/// \file
/// CampaignSpec expansion and the deterministic-journal guarantees:
/// cases built from a spec match the classic CLI campaign scheme,
/// a deterministic journal line zeroes exactly the volatile fields, and a
/// deterministic journal is byte-stable across runs.

#include "core/campaign_spec.hpp"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "dnn/model_zoo.hpp"
#include "fault/fault_injector.hpp"
#include "search/bilevel_explorer.hpp"

namespace chrysalis::core {
namespace {

CampaignSpec
small_spec()
{
    CampaignSpec spec;
    spec.cases = 4;
    spec.population = 4;
    spec.generations = 2;
    spec.seed = 11;
    return spec;
}

std::string
read_file(const std::string& path)
{
    std::ifstream input(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(input)) << path;
    std::ostringstream out;
    out << input.rdbuf();
    return out.str();
}

TEST(CampaignSpec, ObjectiveKindsCycleLikeTheCli)
{
    EXPECT_STREQ(campaign_case_kind(0), "latsp");
    EXPECT_STREQ(campaign_case_kind(1), "lat");
    EXPECT_STREQ(campaign_case_kind(2), "sp");
    EXPECT_STREQ(campaign_case_kind(3), "latsp");
    EXPECT_EQ(campaign_case_label("kws", 4), "kws-lat-4");
}

TEST(CampaignSpec, BuiltCasesMatchTheSpec)
{
    const CampaignSpec spec = small_spec();
    const dnn::Model model = dnn::make_model(spec.model);
    const std::vector<CampaignCase> cases =
        build_campaign_cases(spec, model);
    ASSERT_EQ(cases.size(), 4u);
    for (std::size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(cases[i].label, campaign_case_label("kws", i));
        EXPECT_EQ(cases[i].model.name(), model.name());
    }
    // lat cases carry the panel budget, sp cases the deadline.
    EXPECT_EQ(cases[1].objective.sp_limit_cm2, spec.sp_limit_cm2);
    EXPECT_EQ(cases[2].objective.lat_limit_s, spec.lat_limit_s);
}

TEST(CampaignSpec, ObjectiveKindsCarryTheSpecLimits)
{
    CampaignSpec spec = small_spec();
    spec.sp_limit_cm2 = 7.0;
    spec.lat_limit_s = 30.0;
    const search::Objective lat = campaign_objective(spec, "LAT");
    EXPECT_EQ(lat.kind, search::ObjectiveKind::kLatency);
    EXPECT_EQ(lat.sp_limit_cm2, 7.0);
    const search::Objective sp = campaign_objective(spec, "sp");
    EXPECT_EQ(sp.kind, search::ObjectiveKind::kSolarPanel);
    EXPECT_EQ(sp.lat_limit_s, 30.0);
    EXPECT_EQ(campaign_objective(spec, "lat*sp").kind,
              search::ObjectiveKind::kLatSp);
}

TEST(CampaignSpecDeathTest, UnknownObjectiveIsFatal)
{
    EXPECT_EXIT(campaign_objective(small_spec(), "energy"),
                ::testing::ExitedWithCode(1), "unknown objective");
}

TEST(CampaignSpecDeathTest, PopulationBelowTheGaMinimumIsFatal)
{
    // The GA keeps an elite of two and runs three-way tournaments, so a
    // population of 2 must fail here, before any case runs.
    CampaignSpec spec = small_spec();
    spec.population = 2;
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "population must be >= 3");
}

TEST(CampaignSpec, ExplorerOptionsCarryBudgetSeedAndFaults)
{
    CampaignSpec spec = small_spec();
    std::unique_ptr<fault::FaultInjector> faults;
    search::ExplorerOptions options =
        build_explorer_options(spec, faults);
    EXPECT_EQ(options.outer.population, spec.population);
    EXPECT_EQ(options.outer.generations, spec.generations);
    EXPECT_EQ(options.outer.seed, spec.seed);
    ASSERT_EQ(options.k_eh_envs.size(), 2u);
    EXPECT_EQ(options.k_eh_envs[0], spec.bright_w_cm2);
    EXPECT_EQ(options.k_eh_envs[1], spec.dark_w_cm2);
    EXPECT_EQ(faults, nullptr);

    spec.fault_dropout = 0.5;
    options = build_explorer_options(spec, faults);
    EXPECT_NE(faults, nullptr);
    EXPECT_EQ(options.faults, faults.get());
}

TEST(CampaignSpec, DeterministicRecordZeroesOnlyWallTimes)
{
    CampaignEntry entry;
    entry.label = "kws-latsp-0";
    entry.solution.score = 1.5;
    entry.solution.search_wall_time_s = 3.25;
    entry.wall_time_s = 4.5;
    const std::string full = to_json_line("abc", entry);
    const std::string cleaned =
        to_json_line("abc", entry, /*deterministic=*/true);
    EXPECT_NE(full.find("\"search_wall_time_s\":3.25,\"wall_time_s\":4.5,"),
              std::string::npos)
        << full;
    EXPECT_NE(cleaned.find("\"search_wall_time_s\":0,\"wall_time_s\":0,"),
              std::string::npos)
        << cleaned;

    // Nothing else differs: the line parses back to the same entry with
    // both wall times zeroed.
    std::string key;
    CampaignEntry parsed;
    ASSERT_TRUE(parse_json_line(cleaned, key, parsed));
    EXPECT_EQ(key, "abc");
    EXPECT_EQ(parsed.label, entry.label);
    EXPECT_EQ(parsed.solution.score, entry.solution.score);
    EXPECT_EQ(parsed.solution.search_wall_time_s, 0.0);
    EXPECT_EQ(parsed.wall_time_s, 0.0);
    entry.solution.search_wall_time_s = 0.0;
    entry.wall_time_s = 0.0;
    EXPECT_EQ(to_json_line("abc", entry), cleaned);
}

TEST(CampaignSpec, DeterministicJournalIsByteStableAcrossRuns)
{
    const CampaignSpec spec = small_spec();
    const dnn::Model model = dnn::make_model(spec.model);
    const std::vector<CampaignCase> cases =
        build_campaign_cases(spec, model);
    std::unique_ptr<fault::FaultInjector> faults;
    const search::ExplorerOptions base =
        build_explorer_options(spec, faults);

    const std::string path_a = "campaign_spec_test_a.jsonl";
    const std::string path_b = "campaign_spec_test_b.jsonl";
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
    CampaignOptions options;
    options.threads = 1;
    options.deterministic_journal = true;
    options.journal_path = path_a;
    run_campaign(cases, base, options);
    options.journal_path = path_b;
    run_campaign(cases, base, options);

    const std::string bytes_a = read_file(path_a);
    const std::string bytes_b = read_file(path_b);
    EXPECT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, bytes_b);
    // Volatile fields really are zeroed on every line.
    EXPECT_EQ(bytes_a.find("\"wall_time_s\":0,"),
              bytes_a.find("\"wall_time_s\":"));
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

}  // namespace
}  // namespace chrysalis::core
