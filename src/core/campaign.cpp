#include "core/campaign.hpp"

#include <cmath>
#include <utility>

#include "common/logging.hpp"
#include "common/mutex.hpp"
#include "common/string_utils.hpp"
#include "common/table.hpp"
#include "core/campaign_journal.hpp"
#include "hw/accelerator.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace chrysalis::core {

void
CampaignOptions::validate() const
{
    if (threads < 0)
        fatal("CampaignOptions: threads must be >= 0 (0 = all hardware "
              "threads), got ", threads);
    if (!(progress_interval_s >= 0.0) || !std::isfinite(progress_interval_s))
        fatal("CampaignOptions: progress_interval_s must be finite and "
              ">= 0, got ", progress_interval_s);
}

void
CampaignResult::write_csv(std::ostream& output, CsvColumns columns) const
{
    const bool with_wall_time = columns == CsvColumns::kAll;
    std::vector<std::string> headers = {
        "label", "feasible", "objective", "sp_cm2", "capacitance_f", "arch",
        "n_pe", "cache_bytes", "mean_latency_s", "lat_sp", "score",
        "failure", "evaluations", "cache_hits", "cache_misses",
        "cache_evictions", "attempts"};
    if (with_wall_time)
        headers.push_back("wall_time_s");
    TextTable table(std::move(headers));
    // Doubles go through format_double_17g so the CSV round-trips
    // bit-exactly and a journal-resumed run's export stays
    // byte-identical to an uninterrupted one. Every case runs once, yet
    // the attempts column stays, always 1: the header is the export
    // format, and perfbench's campaign goldens digest whole rows.
    for (const auto& entry : entries) {
        const auto& solution = entry.solution;
        std::vector<std::string> row = {
            entry.label,
            solution.feasible ? "1" : "0",
            entry.objective_label,
            format_double_17g(solution.hardware.solar_cm2),
            format_double_17g(solution.hardware.capacitance_f),
            hw::to_string(solution.hardware.arch),
            std::to_string(solution.hardware.n_pe),
            std::to_string(solution.hardware.cache_bytes),
            format_double_17g(solution.mean_latency_s),
            format_double_17g(solution.lat_sp),
            format_double_17g(solution.score),
            std::string(fault::to_string(solution.failure.code)),
            std::to_string(solution.evaluations),
            std::to_string(solution.cache_hits),
            std::to_string(solution.cache_misses),
            std::to_string(solution.cache_evictions),
            "1"};
        if (with_wall_time)
            row.push_back(format_double_17g(entry.wall_time_s));
        table.add_row(std::move(row));
    }
    table.print_csv(output);
}

const CampaignEntry&
CampaignResult::entry(const std::string& label) const
{
    for (const auto& candidate : entries) {
        if (candidate.label == label)
            return candidate;
    }
    fatal("CampaignResult: no entry labelled '", label, "'");
}

namespace {

/// Runs one case end-to-end (explorer construction + search). The span
/// timer measures the case's own duration on a monotonic clock inside
/// the task, so fan-out reports stay correct when cases run
/// concurrently. May fatal()/throw; run_isolated_case handles that.
CampaignEntry
run_case(const CampaignCase& campaign_case,
         const search::ExplorerOptions& base_options, std::size_t index)
{
    search::ExplorerOptions options = base_options;
    options.outer.seed = base_options.outer.seed + 1000 * (index + 1);
    // The case's GA always runs serially: campaigns parallelise across
    // cases only. A parallel fitness batch can let two identical
    // candidates both miss the memo, so the cache_hits/cache_misses the
    // deterministic CSV and journal carry would depend on whether the
    // case ran on the caller (all-cores GA) or on a campaign worker
    // (nested batches inline).
    options.outer.threads = 1;
    // Timed from before the explorer exists: on a fixed-hardware space
    // its constructor analyzes the case's mapping grid.
    obs::SpanTimer timer("case:" + campaign_case.label);
    const double cpu_before = obs::thread_cpu_seconds();
    ChrysalisInputs inputs{campaign_case.model, campaign_case.space,
                           campaign_case.objective, options};
    const Chrysalis tool(std::move(inputs));
    AuTSolution solution = tool.generate();
    CampaignEntry entry;
    entry.label = campaign_case.label;
    entry.objective_label = to_string(campaign_case.objective.kind);
    entry.solution = std::move(solution);
    entry.wall_time_s = timer.elapsed_s();
    if (obs::MetricsRegistry* registry = obs::metrics()) {
        registry->counter("campaign/cases_evaluated").add(1);
        // Wall/CPU times are volatile by nature; the histograms record
        // their order-of-magnitude distribution for the run report.
        registry
            ->histogram("campaign/case_wall_s", obs::decade_bounds(),
                        obs::Stability::kVolatile)
            .record(entry.wall_time_s);
        registry
            ->histogram("campaign/case_cpu_s", obs::decade_bounds(),
                        obs::Stability::kVolatile)
            .record(obs::thread_cpu_seconds() - cpu_before);
    }
    return entry;
}

/// run_case under crash isolation: a fatal() inside the case is caught
/// (via FatalThrowGuard) and turned into an infeasible kCrashed entry,
/// so one bad case cannot kill a long campaign. The crash is reported
/// to the campaign heartbeat \p progress.
CampaignEntry
run_isolated_case(const CampaignCase& campaign_case,
                  const search::ExplorerOptions& base_options,
                  std::size_t index, obs::ProgressReporter& progress)
{
    std::string error;
    try {
        FatalThrowGuard guard;
        return run_case(campaign_case, base_options, index);
    } catch (const std::exception& failure) {
        error = failure.what();
    }
    warn("campaign case '", campaign_case.label, "' failed: ", error);
    progress.note_crash();
    if (obs::MetricsRegistry* registry = obs::metrics())
        registry->counter("campaign/cases_crashed").add(1);
    CampaignEntry entry;
    entry.label = campaign_case.label;
    entry.objective_label = to_string(campaign_case.objective.kind);
    entry.solution.feasible = false;
    entry.solution.failure = fault::make_failure(
        fault::FailureCode::kCrashed, error);
    entry.solution.score = campaign_case.objective.penalty_score(
        entry.solution.failure);
    return entry;
}

}  // namespace

CampaignResult
run_campaign(const std::vector<CampaignCase>& cases,
             const search::ExplorerOptions& base_options,
             const CampaignOptions& campaign_options)
{
    if (cases.empty())
        fatal("run_campaign: no cases supplied");
    campaign_options.validate();

    obs::SpanTimer timer("campaign/run");

    // Resume support: compute every case's stable key up front, load the
    // journal once, and only evaluate cases the journal does not cover.
    const bool journaled = !campaign_options.journal_path.empty();
    std::vector<std::string> keys(cases.size());
    std::unordered_map<std::string, CampaignEntry> journal;
    if (journaled) {
        for (std::size_t i = 0; i < cases.size(); ++i)
            keys[i] = campaign_case_key_hex(cases[i], base_options, i);
        journal = load_campaign_journal(campaign_options.journal_path);
    }

    if (obs::MetricsRegistry* registry = obs::metrics()) {
        registry->counter("campaign/runs").add(1);
        registry->counter("campaign/cases_total").add(cases.size());
        if (journaled) {
            registry->counter("campaign/journal_loaded")
                .add(journal.size());
        }
    }
    obs::ProgressReporter::Options progress_options;
    progress_options.min_interval_s = campaign_options.progress_interval_s;
    obs::ProgressReporter progress("campaign", cases.size(),
                                   progress_options);

    CampaignResult result;
    result.entries.resize(cases.size());
    Mutex journal_mutex;
    runtime::ThreadPool pool(campaign_options.threads);
    pool.parallel_for(cases.size(), [&](std::size_t index) {
        if (journaled) {
            const auto it = journal.find(keys[index]);
            if (it != journal.end()) {
                result.entries[index] = it->second;
                progress.note_restored();
                progress.advance();
                return;
            }
        }
        CampaignEntry entry =
            run_isolated_case(cases[index], base_options, index, progress);
        if (journaled) {
            const std::string line = to_json_line(
                keys[index], entry, campaign_options.deterministic_journal);
            MutexLock lock(journal_mutex);
            append_campaign_journal(campaign_options.journal_path, line);
        }
        result.entries[index] = std::move(entry);
        progress.advance();
    });
    for (const auto& entry : result.entries) {
        if (entry.from_journal)
            ++result.journal_skips;
    }
    if (obs::MetricsRegistry* registry = obs::metrics()) {
        registry->counter("campaign/journal_restored")
            .add(result.journal_skips);
    }
    progress.finish();
    result.wall_time_s = timer.elapsed_s();
    return result;
}

CampaignResult
run_campaign(const std::vector<CampaignCase>& cases,
             const search::ExplorerOptions& base_options)
{
    return run_campaign(cases, base_options, CampaignOptions{});
}

}  // namespace chrysalis::core
