/// \file
/// Batch experiment campaigns: run a list of (workload, space, objective)
/// search cases with shared options and export the results as CSV — the
/// workflow behind sweeping tables like the paper's Fig. 10 grid, exposed
/// as a reusable API for downstream studies.

#ifndef CHRYSALIS_CORE_CAMPAIGN_HPP
#define CHRYSALIS_CORE_CAMPAIGN_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "core/chrysalis.hpp"

namespace chrysalis::core {

/// One search case in a campaign.
struct CampaignCase {
    std::string label;           ///< row identifier in reports
    dnn::Model model;            ///< workload
    search::DesignSpace space;   ///< (possibly ablated) design space
    search::Objective objective; ///< optimization target
};

/// Result of one case.
struct CampaignEntry {
    std::string label;
    std::string objective_label;  ///< "lat" / "sp" / "lat*sp"
    AuTSolution solution;
    /// Per-case search wall-clock time, measured on a monotonic clock
    /// inside the case's task so it stays correct when cases run
    /// concurrently (it is the case's own duration, not a share of the
    /// campaign's elapsed time).
    double wall_time_s = 0.0;
    bool from_journal = false; ///< restored from a resume journal, not run
};

/// Which columns write_csv emits.
enum class CsvColumns {
    kAll,            ///< every column, including wall-clock timing
    kDeterministic,  ///< drops wall_time_s, so a resumed campaign's CSV
                     ///< is byte-identical to an uninterrupted run's
};

/// Aggregated campaign results.
struct CampaignResult {
    std::vector<CampaignEntry> entries;
    double wall_time_s = 0.0;  ///< whole-campaign wall-clock time
    std::size_t journal_skips = 0;  ///< cases restored from the journal

    /// Writes a CSV with one row per case: label, feasibility, the
    /// chosen EA/IA parameters, metrics, failure code, search effort,
    /// memo-cache activity, attempts (always 1) and (in kAll mode)
    /// timing. A field holding a comma, a quote or a newline (a label
    /// built from a .model file's model name) is quoted.
    void write_csv(std::ostream& output,
                   CsvColumns columns = CsvColumns::kAll) const;

    /// Looks up an entry by label; fatal() if absent.
    const CampaignEntry& entry(const std::string& label) const;
};

/// Campaign-level execution controls.
struct CampaignOptions {
    /// Case-level fan-out: 0 = all hardware threads, 1 = sequential.
    /// Cases are independent searches with decorrelated seeds, so any
    /// value produces identical entries in identical order — memo
    /// counters included. This is the campaign's only parallelism:
    /// every case runs its GA serially whatever the base options'
    /// `outer.threads` says, so memo hit/miss counts are reproducible.
    int threads = 1;

    /// When non-empty, finished cases are appended to this JSONL journal
    /// and — on a later run with the same cases and options — loaded
    /// from it instead of re-evaluated, so a killed campaign resumes
    /// where it stopped. See campaign_journal.hpp.
    std::string journal_path;

    /// Minimum seconds between progress-heartbeat lines (emitted at
    /// kInform level through the logging sink; silent at the default
    /// kWarn threshold). 0 logs a line after every finished case.
    double progress_interval_s = 5.0;

    /// When true, journal lines are written with the volatile
    /// wall-clock fields zeroed (see to_json_line()), so two
    /// runs of the same campaign produce byte-identical journal lines
    /// at any `threads` (lines land in completion order, so compare
    /// them sorted when threads > 1).
    bool deterministic_journal = false;

    /// fatal() with an actionable message when any field is out of range.
    void validate() const;
};

/// Runs every case once with \p base_options (the per-case seed is
/// offset by the case index so cases are decorrelated but the whole
/// campaign stays reproducible). A case whose evaluation fatal()s (a bad
/// derived configuration, a crashed search) is recorded as an
/// infeasible kCrashed entry instead of killing the campaign. It is not
/// retried: its search is a pure function of the case and the base
/// options, so a second attempt would fail the same way.
CampaignResult run_campaign(const std::vector<CampaignCase>& cases,
                            const search::ExplorerOptions& base_options,
                            const CampaignOptions& campaign_options);

/// Sequential convenience overload (CampaignOptions defaults).
CampaignResult run_campaign(const std::vector<CampaignCase>& cases,
                            const search::ExplorerOptions& base_options);

}  // namespace chrysalis::core

#endif  // CHRYSALIS_CORE_CAMPAIGN_HPP
