#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>
#include <thread>
#include <utility>

#include "common/logging.hpp"
#include "common/mutex.hpp"
#include "common/string_utils.hpp"
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
    if (max_attempts < 1)
        fatal("CampaignOptions: max_attempts must be >= 1, got ",
              max_attempts);
    if (!(retry_backoff_s >= 0.0) || !std::isfinite(retry_backoff_s))
        fatal("CampaignOptions: retry_backoff_s must be finite and >= 0, "
              "got ", retry_backoff_s);
    if (!(retry_backoff_cap_s >= 0.0) ||
        !std::isfinite(retry_backoff_cap_s))
        fatal("CampaignOptions: retry_backoff_cap_s must be finite and "
              ">= 0, got ", retry_backoff_cap_s);
    if (!(progress_interval_s >= 0.0) || !std::isfinite(progress_interval_s))
        fatal("CampaignOptions: progress_interval_s must be finite and "
              ">= 0, got ", progress_interval_s);
}

void
CampaignResult::write_csv(std::ostream& output, CsvColumns columns) const
{
    output << "label,feasible,objective,sp_cm2,capacitance_f,arch,n_pe,"
              "cache_bytes,mean_latency_s,lat_sp,score,failure,"
              "evaluations,cache_hits,cache_misses,cache_evictions,attempts";
    if (columns == CsvColumns::kAll)
        output << ",wall_time_s";
    output << '\n';
    // Doubles go through format_double_17g so the CSV round-trips
    // bit-exactly and a journal-resumed run's export stays
    // byte-identical to an uninterrupted one.
    for (const auto& entry : entries) {
        const auto& solution = entry.solution;
        output << entry.label << ',' << (solution.feasible ? 1 : 0)
               << ',' << entry.objective_label << ','
               << format_double_17g(solution.hardware.solar_cm2) << ','
               << format_double_17g(solution.hardware.capacitance_f)
               << ',' << hw::to_string(solution.hardware.arch) << ','
               << solution.hardware.n_pe << ','
               << solution.hardware.cache_bytes << ','
               << format_double_17g(solution.mean_latency_s) << ','
               << format_double_17g(solution.lat_sp) << ','
               << format_double_17g(solution.score) << ','
               << fault::to_string(solution.failure.code) << ','
               << solution.evaluations << ',' << solution.cache_hits
               << ',' << solution.cache_misses << ','
               << solution.cache_evictions << ',' << entry.attempts;
        if (columns == CsvColumns::kAll)
            output << ',' << format_double_17g(entry.wall_time_s);
        output << '\n';
    }
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
/// concurrently. May fatal()/throw; the caller handles isolation.
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

/// run_case with retry + crash isolation: a fatal() inside the case is
/// caught (via FatalThrowGuard), retried with capped exponential backoff
/// and — when attempts are exhausted — turned into an infeasible
/// kCrashed entry so one bad case cannot kill a long campaign. Retries
/// and crashes are reported to the campaign heartbeat \p progress.
CampaignEntry
run_case_with_retries(const CampaignCase& campaign_case,
                      const search::ExplorerOptions& base_options,
                      std::size_t index, int max_attempts,
                      double retry_backoff_s, double retry_backoff_cap_s,
                      obs::ProgressReporter& progress)
{
    std::string last_error;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        try {
            FatalThrowGuard guard;
            CampaignEntry entry =
                run_case(campaign_case, base_options, index);
            entry.attempts = attempt;
            return entry;
        } catch (const std::exception& error) {
            last_error = error.what();
            warn("campaign case '", campaign_case.label, "' attempt ",
                 attempt, "/", max_attempts, " failed: ", last_error);
        }
        if (attempt < max_attempts) {
            progress.note_retry();
            if (obs::MetricsRegistry* registry = obs::metrics())
                registry->counter("campaign/case_retries").add(1);
        }
        if (attempt < max_attempts && retry_backoff_s > 0.0) {
            const double backoff = std::min(
                retry_backoff_cap_s,
                retry_backoff_s * std::pow(2.0, attempt - 1));
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoff));
        }
    }
    progress.note_crash();
    if (obs::MetricsRegistry* registry = obs::metrics())
        registry->counter("campaign/cases_crashed").add(1);
    CampaignEntry entry;
    entry.label = campaign_case.label;
    entry.objective_label = to_string(campaign_case.objective.kind);
    entry.attempts = max_attempts;
    entry.solution.feasible = false;
    entry.solution.failure = fault::make_failure(
        fault::FailureCode::kCrashed, last_error);
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
    std::unordered_map<std::string, JournalRecord> journal;
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
                result.entries[index] = from_journal_record(it->second);
                progress.note_restored();
                progress.advance();
                return;
            }
        }
        CampaignEntry entry = campaign_options.isolate_failures
            ? run_case_with_retries(cases[index], base_options, index,
                                    campaign_options.max_attempts,
                                    campaign_options.retry_backoff_s,
                                    campaign_options.retry_backoff_cap_s,
                                    progress)
            : run_case(cases[index], base_options, index);
        if (journaled) {
            JournalRecord record = to_journal_record(entry, keys[index]);
            if (campaign_options.deterministic_journal)
                record = deterministic_record(std::move(record));
            MutexLock lock(journal_mutex);
            append_campaign_journal(campaign_options.journal_path, record);
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
