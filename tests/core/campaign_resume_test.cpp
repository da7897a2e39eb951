/// \file
/// Tests for campaign resilience: the JSONL result journal, resume after
/// a mid-run kill (byte-identical CSV, completed cases not re-run) and
/// crash isolation of misbehaving cases.

#include "core/campaign_journal.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "common/string_utils.hpp"
#include "dnn/model_zoo.hpp"

namespace chrysalis::core {
namespace {

search::ExplorerOptions
small_options(std::uint64_t seed = 3)
{
    search::ExplorerOptions options;
    options.outer.population = 8;
    options.outer.generations = 4;
    options.outer.seed = seed;
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

/// Fresh journal path in the test temp dir (removed up front so reruns
/// of the test binary never see a stale file).
std::string
journal_path(const char* name)
{
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

std::string
deterministic_csv(const CampaignResult& result)
{
    std::ostringstream os;
    result.write_csv(os, CsvColumns::kDeterministic);
    return os.str();
}

TEST(CampaignJournalTest, RecordRoundTripsThroughJson)
{
    CampaignEntry entry;
    entry.label = "tricky \"label\"\nwith,commas\\and\tescapes";
    entry.objective_label = "lat*sp";
    entry.wall_time_s = 3.25;
    AuTSolution& solution = entry.solution;
    solution.feasible = true;
    solution.hardware.family = search::HardwareFamily::kAccelerator;
    solution.hardware.solar_cm2 = 1.0 / 3.0;
    solution.hardware.capacitance_f = 4.7e-300;
    solution.hardware.arch = hw::AcceleratorArch::kTpu;
    solution.hardware.n_pe = 168;
    solution.hardware.cache_bytes = 2048;
    solution.mean_latency_s = 0.1234567890123456789;
    solution.lat_sp = 1e300;
    solution.score = -0.0;
    solution.evaluations = 1234567890;
    solution.cache_hits = 17;
    solution.cache_misses = 19;
    solution.cache_evictions = 23;
    solution.search_wall_time_s = 2.5;
    solution.failure =
        fault::make_failure(fault::FailureCode::kTimeout, "after 300000 s");
    const std::string key = "00ff00ff00ff00ff00ff00ff00ff00ff";

    std::string parsed_key;
    CampaignEntry parsed;
    ASSERT_TRUE(parse_json_line(to_json_line(key, entry), parsed_key,
                                parsed));
    EXPECT_EQ(parsed_key, key);
    EXPECT_TRUE(parsed.from_journal);
    EXPECT_EQ(parsed.label, entry.label);
    EXPECT_EQ(parsed.objective_label, entry.objective_label);
    EXPECT_EQ(parsed.wall_time_s, entry.wall_time_s);
    const AuTSolution& restored = parsed.solution;
    EXPECT_EQ(restored.feasible, solution.feasible);
    EXPECT_EQ(restored.hardware.family, solution.hardware.family);
    // Doubles are bit-exact.
    EXPECT_EQ(restored.hardware.solar_cm2, solution.hardware.solar_cm2);
    EXPECT_EQ(restored.hardware.capacitance_f,
              solution.hardware.capacitance_f);
    EXPECT_EQ(restored.hardware.arch, solution.hardware.arch);
    EXPECT_EQ(restored.hardware.n_pe, solution.hardware.n_pe);
    EXPECT_EQ(restored.hardware.cache_bytes, solution.hardware.cache_bytes);
    EXPECT_EQ(restored.mean_latency_s, solution.mean_latency_s);
    EXPECT_EQ(restored.lat_sp, solution.lat_sp);
    EXPECT_EQ(restored.score, solution.score);
    EXPECT_TRUE(std::signbit(restored.score));
    EXPECT_EQ(restored.evaluations, solution.evaluations);
    EXPECT_EQ(restored.cache_hits, solution.cache_hits);
    EXPECT_EQ(restored.cache_misses, solution.cache_misses);
    EXPECT_EQ(restored.cache_evictions, solution.cache_evictions);
    EXPECT_EQ(restored.search_wall_time_s, solution.search_wall_time_s);
    EXPECT_EQ(restored.failure.code, solution.failure.code);
    EXPECT_EQ(restored.failure.detail, solution.failure.detail);
}

/// A summary-only entry labelled \p label, as one journal line.
std::string
line_for(const std::string& key, const std::string& label)
{
    CampaignEntry entry;
    entry.label = label;
    entry.objective_label = "lat";
    return to_json_line(key, entry);
}

TEST(CampaignJournalTest, TornAndMalformedLinesAreSkipped)
{
    const std::string path = journal_path("torn_journal.jsonl");
    append_campaign_journal(path, line_for("k1", "good"));
    {
        // A kill mid-write leaves a torn tail; garbage must not load.
        std::ofstream out(path, std::ios::app);
        out << R"({"key":"k2","label":"torn)" << '\n';
        out << "not json at all\n";
        out << "{}\n";
    }
    const auto loaded = load_campaign_journal(path);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.count("k1"), 1u);
    EXPECT_EQ(loaded.at("k1").label, "good");
    EXPECT_TRUE(loaded.at("k1").from_journal);
}

TEST(CampaignJournalTest, MissingFileLoadsEmpty)
{
    EXPECT_TRUE(load_campaign_journal(
                    ::testing::TempDir() + "does_not_exist.jsonl")
                    .empty());
}

TEST(CampaignJournalTest, LastRecordWinsOnDuplicateKeys)
{
    const std::string path = journal_path("dup_journal.jsonl");
    append_campaign_journal(path, line_for("k", "old"));
    append_campaign_journal(path, line_for("k", "new"));
    const auto loaded = load_campaign_journal(path);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.at("k").label, "new");
}

TEST(CampaignResumeTest, SecondRunIsServedEntirelyFromJournal)
{
    CampaignOptions options;
    options.journal_path = journal_path("resume_full.jsonl");
    const CampaignResult first =
        run_campaign(two_cases(), small_options(), options);
    EXPECT_EQ(first.journal_skips, 0u);
    const CampaignResult second =
        run_campaign(two_cases(), small_options(), options);
    EXPECT_EQ(second.journal_skips, 2u);
    for (const auto& entry : second.entries)
        EXPECT_TRUE(entry.from_journal) << entry.label;
    EXPECT_EQ(deterministic_csv(first), deterministic_csv(second));
}

TEST(CampaignResumeTest, ResumeAfterKillReproducesCsvByteForByte)
{
    // Reference: an uninterrupted run with no journal at all.
    const CampaignResult reference =
        run_campaign(two_cases(), small_options());

    // "Killed" run: journal a full campaign, then truncate the file to
    // its first line plus a torn tail — the on-disk state after dying
    // mid-write of the second record.
    CampaignOptions options;
    options.journal_path = journal_path("resume_kill.jsonl");
    run_campaign(two_cases(), small_options(), options);
    std::string first_line;
    {
        std::ifstream in(options.journal_path);
        ASSERT_TRUE(static_cast<bool>(std::getline(in, first_line)));
    }
    {
        std::ofstream out(options.journal_path, std::ios::trunc);
        out << first_line << '\n'
            << R"({"key":"abcd","label":"torn mid-wri)";
    }

    const CampaignResult resumed =
        run_campaign(two_cases(), small_options(), options);
    EXPECT_EQ(resumed.journal_skips, 1u);
    int recomputed = 0;
    for (const auto& entry : resumed.entries)
        recomputed += entry.from_journal ? 0 : 1;
    EXPECT_EQ(recomputed, 1);
    EXPECT_EQ(deterministic_csv(reference), deterministic_csv(resumed));
}

TEST(CampaignResumeTest, StaleJournalFromDifferentOptionsIsIgnored)
{
    CampaignOptions options;
    options.journal_path = journal_path("resume_stale.jsonl");
    run_campaign(two_cases(), small_options(3), options);
    // Different outer seed => different case keys => nothing to reuse.
    const CampaignResult rerun =
        run_campaign(two_cases(), small_options(4), options);
    EXPECT_EQ(rerun.journal_skips, 0u);
}

/// Rewrites every line of the journal at \p path through \p edit.
template <typename EditFn>
void
rewrite_journal(const std::string& path, EditFn&& edit)
{
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(edit(line));
    }
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& line : lines)
        out << line << '\n';
}

TEST(CampaignResumeTest, JournalLineWithoutAttemptsRestoresItsCase)
{
    CampaignOptions options;
    options.journal_path = journal_path("resume_no_attempts.jsonl");
    const CampaignResult first =
        run_campaign(two_cases(), small_options(), options);
    rewrite_journal(options.journal_path, [](std::string line) {
        const std::size_t at = line.find(",\"attempts\":");
        if (at != std::string::npos)
            line.erase(at, line.find('}', at) - at);
        EXPECT_EQ(line.find("attempts"), std::string::npos) << line;
        return line;
    });
    const CampaignResult resumed =
        run_campaign(two_cases(), small_options(), options);
    EXPECT_EQ(resumed.journal_skips, 2u);
    EXPECT_EQ(deterministic_csv(first), deterministic_csv(resumed));
}

TEST(CampaignResumeTest, JournalLineWithAttemptsFieldStillRestores)
{
    // Lines written while cases could be retried end in an attempts
    // field; a crashed case's line read "attempts":2.
    CampaignOptions options;
    options.journal_path = journal_path("resume_old_attempts.jsonl");
    run_campaign(two_cases(), small_options(), options);
    rewrite_journal(options.journal_path, [](std::string line) {
        if (line.find("\"attempts\":") == std::string::npos)
            line.insert(line.rfind('}'), ",\"attempts\":2");
        return line;
    });
    const CampaignResult resumed =
        run_campaign(two_cases(), small_options(), options);
    EXPECT_EQ(resumed.journal_skips, 2u);
    for (const auto& entry : resumed.entries)
        EXPECT_TRUE(entry.from_journal) << entry.label;
}

TEST(CampaignJournalTest, CaseKeyIsHexAndCoversTheGridWidth)
{
    const CampaignCase campaign_case = two_cases().front();
    search::ExplorerOptions wide = small_options();
    wide.inner.max_candidates_per_dim = 6;
    const std::string narrow_key =
        campaign_case_key_hex(campaign_case, small_options(), 0);
    const std::string wide_key =
        campaign_case_key_hex(campaign_case, wide, 0);
    for (const std::string& key : {narrow_key, wide_key}) {
        ASSERT_EQ(key.size(), 32u) << key;
        EXPECT_EQ(key.find_first_not_of("0123456789abcdef"),
                  std::string::npos)
            << key;
    }
    EXPECT_EQ(narrow_key,
              campaign_case_key_hex(campaign_case, small_options(), 0));
    // A journal written at another grid width must be recomputed.
    EXPECT_NE(narrow_key, wide_key);
}

TEST(CampaignIsolationTest, CrashingCasesAreRecordedNotFatal)
{
    // An empty environment list makes every case's explorer fatal(); the
    // campaign must survive, run each case once and report kCrashed.
    search::ExplorerOptions bad = small_options();
    bad.k_eh_envs.clear();
    std::vector<std::string> warnings;
    set_log_sink([&](LogLevel level, std::string_view message) {
        if (level == LogLevel::kWarn)
            warnings.emplace_back(message);
    });
    const CampaignResult result = run_campaign(two_cases(), bad);
    set_log_sink({});
    ASSERT_EQ(result.entries.size(), 2u);
    for (const auto& entry : result.entries) {
        EXPECT_FALSE(entry.solution.feasible) << entry.label;
        EXPECT_EQ(entry.solution.failure.code,
                  fault::FailureCode::kCrashed)
            << entry.label;
        EXPECT_GT(entry.solution.score, 0.0);
    }
    // One failure warning per case: a case is never run twice.
    ASSERT_EQ(warnings.size(), 2u);
    for (const std::string& warning : warnings)
        EXPECT_NE(warning.find("failed"), std::string::npos) << warning;

    // Each crashed row reads 1 in the attempts column, the last one of
    // the deterministic CSV.
    const std::vector<std::string> lines =
        split(deterministic_csv(result), '\n');
    ASSERT_EQ(lines.size(), 4u);  // header, two rows, trailing ""
    for (std::size_t row = 1; row <= 2; ++row) {
        EXPECT_NE(lines[row].find("crashed"), std::string::npos)
            << lines[row];
        EXPECT_EQ(split(lines[row], ',').back(), "1") << lines[row];
    }
}

TEST(CampaignOptionsDeathTest, ValidationRejectsBadFields)
{
    CampaignOptions negative_threads;
    negative_threads.threads = -1;
    EXPECT_EXIT(run_campaign(two_cases(), small_options(),
                             negative_threads),
                ::testing::ExitedWithCode(1), "threads");
}

}  // namespace
}  // namespace chrysalis::core
