/// \file
/// CampaignSpec wire round-trips and the deterministic-journal
/// guarantees `run_case` replies build on: a spec encodes to
/// flat fields and back without loss, cases built from a spec match the
/// classic CLI campaign scheme, deterministic_record() strips exactly
/// the volatile fields, and a deterministic journal is byte-stable
/// across runs.

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

TEST(CampaignSpec, FieldsRoundTripExactly)
{
    CampaignSpec spec;
    spec.model = "har";
    spec.space = "future";
    spec.cases = 7;
    spec.sp_limit_cm2 = 12.5;
    spec.lat_limit_s = 0.333333333333333314829616256247390992939472198486328125;
    spec.population = 10;
    spec.generations = 3;
    spec.seed = 42;
    spec.bright_w_cm2 = 1.75e-3;
    spec.dark_w_cm2 = 0.25e-3;
    spec.fault_dropout = 0.125;
    spec.fault_age_years = 2.5;
    spec.fault_ckpt = 0.0625;
    spec.max_attempts = 3;

    const FlatJsonFields fields = to_fields(spec);
    const CampaignSpec decoded = spec_from_fields(fields);
    EXPECT_EQ(decoded.model, spec.model);
    EXPECT_EQ(decoded.space, spec.space);
    EXPECT_EQ(decoded.cases, spec.cases);
    EXPECT_EQ(decoded.sp_limit_cm2, spec.sp_limit_cm2);
    EXPECT_EQ(decoded.lat_limit_s, spec.lat_limit_s);
    EXPECT_EQ(decoded.population, spec.population);
    EXPECT_EQ(decoded.generations, spec.generations);
    EXPECT_EQ(decoded.seed, spec.seed);
    EXPECT_EQ(decoded.bright_w_cm2, spec.bright_w_cm2);
    EXPECT_EQ(decoded.dark_w_cm2, spec.dark_w_cm2);
    EXPECT_EQ(decoded.fault_dropout, spec.fault_dropout);
    EXPECT_EQ(decoded.fault_age_years, spec.fault_age_years);
    EXPECT_EQ(decoded.fault_ckpt, spec.fault_ckpt);
    EXPECT_EQ(decoded.max_attempts, spec.max_attempts);

    // Re-encoding the decoded spec must reproduce the exact fields —
    // this is what makes run_case requests cache-keyable.
    EXPECT_EQ(to_fields(decoded), fields);
}

TEST(CampaignSpec, DefaultsSurviveAnEmptyFieldSet)
{
    const CampaignSpec defaults;
    const CampaignSpec decoded = spec_from_fields({});
    EXPECT_EQ(decoded.model, defaults.model);
    EXPECT_EQ(decoded.cases, defaults.cases);
    EXPECT_EQ(decoded.population, defaults.population);
    EXPECT_EQ(decoded.seed, defaults.seed);
    EXPECT_EQ(decoded.max_attempts, defaults.max_attempts);
}

TEST(CampaignSpec, CaseRequestFieldsCarryTheIndex)
{
    const CampaignSpec spec = small_spec();
    const FlatJsonFields fields = case_request_fields(spec, 3);
    std::uint64_t index = 0;
    ASSERT_TRUE(json_get_uint64(fields, "case_index", index));
    EXPECT_EQ(index, 3u);
    // Everything else is to_fields(spec).
    FlatJsonFields base = fields;
    base.erase("case_index");
    EXPECT_EQ(base, to_fields(spec));
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
    JournalRecord record;
    record.key = "abc";
    record.label = "kws-latsp-0";
    record.score = 1.5;
    record.search_wall_time_s = 3.25;
    record.wall_time_s = 4.5;
    record.attempts = 2;
    const JournalRecord cleaned = deterministic_record(record);
    EXPECT_EQ(cleaned.search_wall_time_s, 0.0);
    EXPECT_EQ(cleaned.wall_time_s, 0.0);
    EXPECT_EQ(cleaned.key, record.key);
    EXPECT_EQ(cleaned.label, record.label);
    EXPECT_EQ(cleaned.score, record.score);
    EXPECT_EQ(cleaned.attempts, record.attempts);
}

TEST(CampaignSpec, RecordFieldsRoundTripThroughAResponseBody)
{
    JournalRecord record;
    record.label = "kws-sp-2";
    record.objective_label = "sp";
    record.feasible = true;
    record.family = 1;
    record.solar_cm2 = 9.25;
    record.capacitance_f = 6.25e-5;
    record.arch = 2;
    record.n_pe = 8;
    record.cache_bytes = 4096;
    record.mean_latency_s = 0.125;
    record.lat_sp = 1.15625;
    record.score = 9.25;
    record.evaluations = 40;
    record.cache_hits = 7;
    record.cache_misses = 33;
    record.cache_evictions = 2;
    record.failure_code = "energy_depleted";
    record.failure_detail = "dropout at t=1.5";
    record.attempts = 2;

    std::string body = "{";
    append_record_fields(body, record);
    body += '}';
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json(body, fields));
    JournalRecord decoded;
    ASSERT_TRUE(campaign_record_from_fields(fields, decoded));

    EXPECT_EQ(decoded.label, record.label);
    EXPECT_EQ(decoded.objective_label, record.objective_label);
    EXPECT_EQ(decoded.feasible, record.feasible);
    EXPECT_EQ(decoded.family, record.family);
    EXPECT_EQ(decoded.solar_cm2, record.solar_cm2);
    EXPECT_EQ(decoded.capacitance_f, record.capacitance_f);
    EXPECT_EQ(decoded.arch, record.arch);
    EXPECT_EQ(decoded.n_pe, record.n_pe);
    EXPECT_EQ(decoded.cache_bytes, record.cache_bytes);
    EXPECT_EQ(decoded.mean_latency_s, record.mean_latency_s);
    EXPECT_EQ(decoded.lat_sp, record.lat_sp);
    EXPECT_EQ(decoded.score, record.score);
    EXPECT_EQ(decoded.evaluations, record.evaluations);
    EXPECT_EQ(decoded.cache_hits, record.cache_hits);
    EXPECT_EQ(decoded.cache_misses, record.cache_misses);
    EXPECT_EQ(decoded.cache_evictions, record.cache_evictions);
    EXPECT_EQ(decoded.failure_code, record.failure_code);
    EXPECT_EQ(decoded.failure_detail, record.failure_detail);
    EXPECT_EQ(decoded.attempts, record.attempts);
    // The wire carries no identity or wall-clock fields.
    EXPECT_TRUE(decoded.key.empty());
    EXPECT_EQ(decoded.search_wall_time_s, 0.0);
    EXPECT_EQ(decoded.wall_time_s, 0.0);
}

TEST(CampaignSpec, MissingRecordFieldsAreRejected)
{
    JournalRecord record;
    record.label = "x";
    std::string body = "{";
    append_record_fields(body, record);
    body += '}';
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json(body, fields));
    fields.erase("score");
    JournalRecord decoded;
    EXPECT_FALSE(campaign_record_from_fields(fields, decoded));
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
