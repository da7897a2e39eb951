/// \file
/// Crash-safe campaign result journal (JSONL).
///
/// `run_campaign` appends one flat JSON record per finished case to a
/// journal file. A campaign killed mid-run can be restarted with the same
/// cases, options and journal path: completed cases are loaded from the
/// journal (keyed by a `StableHash` of the case and the base
/// options, so a stale journal from a *different* campaign never
/// contaminates results) and are not re-evaluated. Doubles round-trip
/// through "%.17g", so a resumed campaign's deterministic CSV is
/// byte-identical to an uninterrupted run's. Torn or malformed lines —
/// the expected state after a kill mid-write — are skipped.

#ifndef CHRYSALIS_CORE_CAMPAIGN_JOURNAL_HPP
#define CHRYSALIS_CORE_CAMPAIGN_JOURNAL_HPP

#include <string>
#include <unordered_map>

#include "core/campaign.hpp"

namespace chrysalis::core {

/// One journal line: everything needed to reconstruct a CampaignEntry's
/// CSV row without re-running the search. (Mappings, cost breakdowns and
/// Pareto fronts are not journaled; a restored entry carries only the
/// summary metrics and is flagged `from_journal`.)
struct JournalRecord {
    std::string key;  ///< campaign_case_key_hex() of the producing case

    std::string label;
    std::string objective_label;
    bool feasible = false;
    int family = 0;
    double solar_cm2 = 0.0;
    double capacitance_f = 0.0;
    int arch = 0;
    std::int64_t n_pe = 0;
    std::int64_t cache_bytes = 0;
    double mean_latency_s = 0.0;
    double lat_sp = 0.0;
    double score = 0.0;
    std::int64_t evaluations = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_evictions = 0;
    double search_wall_time_s = 0.0;
    double wall_time_s = 0.0;
    std::string failure_code;    ///< fault::to_string(code); "" for none
    std::string failure_detail;
    int attempts = 1;
};

/// Stable identity of one campaign case: hashes the case index, label,
/// workload identity, design space, objective and every base-option field
/// that shapes the search result (seeds, environments, technology, fault
/// spec — but not thread counts, which never change results).
std::string campaign_case_key_hex(const CampaignCase& campaign_case,
                                  const search::ExplorerOptions& base,
                                  std::size_t index);

/// Converts a finished entry into its journal record.
JournalRecord to_journal_record(const CampaignEntry& entry,
                                const std::string& key);

/// Copy of \p record with the volatile wall-clock fields
/// (search_wall_time_s, wall_time_s) zeroed — every remaining field is
/// a pure function of the case and the base options, so a
/// deterministic-journal line is reproducible byte-for-byte across
/// runs, processes and thread counts.
JournalRecord deterministic_record(JournalRecord record);

/// Reconstructs a (summary-only) entry from a journal record.
CampaignEntry from_journal_record(const JournalRecord& record);

/// Serializes a record as one flat JSON line (no trailing newline).
std::string to_json_line(const JournalRecord& record);

/// Parses a journal line; returns false (leaving \p record unspecified)
/// on torn or malformed input.
bool parse_json_line(const std::string& line, JournalRecord& record);

/// Loads a journal file into a key -> record map. Malformed lines are
/// skipped with a warning; when a key repeats, the last record wins.
/// A missing file yields an empty map (first run of a campaign).
std::unordered_map<std::string, JournalRecord>
load_campaign_journal(const std::string& path);

/// Appends \p record to the journal at \p path (creating it if needed)
/// and flushes, so the record survives a kill immediately after return.
void append_campaign_journal(const std::string& path,
                             const JournalRecord& record);

}  // namespace chrysalis::core

#endif  // CHRYSALIS_CORE_CAMPAIGN_JOURNAL_HPP
