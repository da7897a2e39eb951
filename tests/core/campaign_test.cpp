/// \file
/// Tests for the batch campaign runner and its CSV export.

#include "core/campaign.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "common/string_utils.hpp"
#include "dnn/model_zoo.hpp"

namespace chrysalis::core {
namespace {

search::ExplorerOptions
small_options()
{
    search::ExplorerOptions options;
    options.outer.population = 8;
    options.outer.generations = 4;
    options.outer.seed = 3;
    options.inner.max_candidates_per_dim = 4;
    return options;
}

std::vector<CampaignCase>
two_cases()
{
    std::vector<CampaignCase> cases;
    cases.push_back({"conv-latsp", dnn::make_simple_conv(),
                     search::DesignSpace::existing_aut(),
                     {search::ObjectiveKind::kLatSp, 0.0, 0.0}});
    cases.push_back({"kws-lat", dnn::make_kws_mlp(),
                     search::DesignSpace::existing_aut(),
                     {search::ObjectiveKind::kLatency, 10.0, 0.0}});
    return cases;
}

TEST(CampaignTest, RunsEveryCase)
{
    const CampaignResult result =
        run_campaign(two_cases(), small_options());
    ASSERT_EQ(result.entries.size(), 2u);
    EXPECT_EQ(result.entries[0].label, "conv-latsp");
    EXPECT_EQ(result.entries[0].objective_label, "lat*sp");
    EXPECT_EQ(result.entries[1].objective_label, "lat");
    for (const auto& entry : result.entries) {
        EXPECT_TRUE(entry.solution.feasible) << entry.label;
        EXPECT_GE(entry.wall_time_s, 0.0);
    }
}

TEST(CampaignTest, EntryLookup)
{
    const CampaignResult result =
        run_campaign(two_cases(), small_options());
    EXPECT_TRUE(result.entry("kws-lat").solution.feasible);
    EXPECT_DEATH_IF_SUPPORTED((void)result.entry("nope"), "");
}

TEST(CampaignTest, CasesAreDecorrelatedButReproducible)
{
    const auto a = run_campaign(two_cases(), small_options());
    const auto b = run_campaign(two_cases(), small_options());
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.entries[i].solution.score,
                         b.entries[i].solution.score);
    }
}

TEST(CampaignTest, CsvHasHeaderAndOneRowPerCase)
{
    const CampaignResult result =
        run_campaign(two_cases(), small_options());
    std::ostringstream os;
    result.write_csv(os);
    const auto lines = split(trim(os.str()), '\n');
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("label,feasible,objective"),
              std::string::npos);
    EXPECT_NE(lines[1].find("conv-latsp,1,lat*sp"), std::string::npos);
    // Every row has the same number of fields as the header.
    const auto header_fields = split(lines[0], ',').size();
    for (std::size_t i = 1; i < lines.size(); ++i)
        EXPECT_EQ(split(lines[i], ',').size(), header_fields) << i;
}

TEST(CampaignTest, CsvQuotesLabelsHoldingCommasOrQuotes)
{
    // A label starts with the model's name, and a .model file may name
    // its model `my,net`.
    CampaignResult result;
    result.entries.resize(2);
    result.entries[0].label = "my,net-latsp-0";
    result.entries[0].objective_label = "lat*sp";
    result.entries[1].label = "say \"hi\"-lat-1";
    result.entries[1].objective_label = "lat";
    std::ostringstream os;
    result.write_csv(os, CsvColumns::kDeterministic);
    const auto lines = split(trim(os.str()), '\n');
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[1].rfind("\"my,net-latsp-0\",0,lat*sp,", 0), 0u)
        << lines[1];
    EXPECT_EQ(lines[2].rfind("\"say \"\"hi\"\"-lat-1\",0,lat,", 0), 0u)
        << lines[2];
    // Outside quotes, every row has the header's 17 fields.
    const auto fields = [](const std::string& row) {
        std::size_t count = 1;
        bool quoted = false;
        for (const char c : row) {
            if (c == '"')
                quoted = !quoted;
            else if (c == ',' && !quoted)
                ++count;
        }
        return count;
    };
    EXPECT_EQ(fields(lines[0]), 17u);
    for (std::size_t i = 1; i < lines.size(); ++i)
        EXPECT_EQ(fields(lines[i]), 17u) << lines[i];
}

TEST(CampaignDeathTest, EmptyCampaignIsFatal)
{
    EXPECT_EXIT(run_campaign({}, small_options()),
                ::testing::ExitedWithCode(1), "no cases");
}

}  // namespace
}  // namespace chrysalis::core
