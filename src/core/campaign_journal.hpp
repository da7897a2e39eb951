/// \file
/// Crash-safe campaign result journal (JSONL).
///
/// `run_campaign` appends one flat JSON line per finished case to a
/// journal file: the case's key and its CampaignEntry's summary. A
/// campaign killed mid-run can be restarted with the same cases, options
/// and journal path: completed cases are loaded from the journal (keyed
/// by a `StableHash` of the case and the base options, so a stale
/// journal from a *different* campaign never contaminates results) and
/// are not re-evaluated. Doubles round-trip through "%.17g", so a
/// resumed campaign's deterministic CSV is byte-identical to an
/// uninterrupted run's. Torn or malformed lines — the expected state
/// after a kill mid-write — are skipped.

#ifndef CHRYSALIS_CORE_CAMPAIGN_JOURNAL_HPP
#define CHRYSALIS_CORE_CAMPAIGN_JOURNAL_HPP

#include <string>
#include <unordered_map>

#include "core/campaign.hpp"

namespace chrysalis::core {

/// Stable identity of one campaign case: hashes the case index, label,
/// evaluation context (search::add_evaluation_context: workload identity,
/// objective, environments, technology, grid width, fault spec), design
/// space and outer search (strategy, budget, seed — but not thread
/// counts, which never change results).
std::string campaign_case_key_hex(const CampaignCase& campaign_case,
                                  const search::ExplorerOptions& base,
                                  std::size_t index);

/// Serializes the summary of \p entry under \p key as one flat JSON
/// line (no trailing newline): everything its CSV row needs, not the
/// mappings, cost breakdowns or Pareto front. With \p deterministic set,
/// both wall times (the solution's search_wall_time_s and the entry's
/// wall_time_s) are written as 0; every remaining field is a pure
/// function of the case and the base options, so the line is
/// reproducible byte-for-byte across runs, processes and thread counts.
std::string to_json_line(const std::string& key, const CampaignEntry& entry,
                         bool deterministic = false);

/// Parses a journal line into its \p key and a summary-only \p entry
/// flagged `from_journal`; returns false (leaving both unspecified) on
/// torn or malformed input.
bool parse_json_line(const std::string& line, std::string& key,
                     CampaignEntry& entry);

/// Loads a journal file into a key -> entry map. Malformed lines are
/// skipped with a warning; when a key repeats, the last line wins.
/// A missing file yields an empty map (first run of a campaign).
std::unordered_map<std::string, CampaignEntry>
load_campaign_journal(const std::string& path);

/// Appends \p line and a newline to the journal at \p path (creating it
/// if needed) and flushes, so the line survives a kill immediately after
/// return.
void append_campaign_journal(const std::string& path,
                             const std::string& line);

}  // namespace chrysalis::core

#endif  // CHRYSALIS_CORE_CAMPAIGN_JOURNAL_HPP
