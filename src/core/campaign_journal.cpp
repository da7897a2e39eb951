#include "core/campaign_journal.hpp"

#include <cstdio>
#include <fstream>
#include <utility>

#include "common/flat_json.hpp"
#include "common/logging.hpp"
#include "common/string_utils.hpp"

namespace chrysalis::core {

std::string
campaign_case_key_hex(const CampaignCase& campaign_case,
                      const search::ExplorerOptions& base,
                      std::size_t index)
{
    StableHash hash;
    hash.add(std::string_view("campaign-case"))
        .add(static_cast<std::uint64_t>(index))
        .add(std::string_view(campaign_case.label));

    search::add_evaluation_context(hash, campaign_case.model,
                                   campaign_case.objective, base);

    const search::DesignSpace& space = campaign_case.space;
    hash.add(static_cast<int>(space.family))
        .add(space.search_solar)
        .add(space.solar_min_cm2)
        .add(space.solar_max_cm2)
        .add(space.search_capacitor)
        .add(space.cap_min_f)
        .add(space.cap_max_f)
        .add(space.search_arch)
        .add(space.search_pe)
        .add(space.pe_min)
        .add(space.pe_max)
        .add(space.search_cache)
        .add(space.cache_min_bytes)
        .add(space.cache_max_bytes);
    const search::HwCandidate& defaults = space.defaults;
    hash.add(static_cast<int>(defaults.family))
        .add(defaults.solar_cm2)
        .add(defaults.capacitance_f)
        .add(static_cast<int>(defaults.arch))
        .add(defaults.n_pe)
        .add(defaults.cache_bytes);

    hash.add(static_cast<int>(base.strategy))
        .add(base.outer.population)
        .add(base.outer.generations)
        .add(base.outer.seed);

    const CacheKey key = hash.key();
    char buffer[2 * 16 + 1];
    std::snprintf(buffer, sizeof buffer, "%016llx%016llx",
                  static_cast<unsigned long long>(key.hi),
                  static_cast<unsigned long long>(key.lo));
    return buffer;
}

JournalRecord
to_journal_record(const CampaignEntry& entry, const std::string& key)
{
    const AuTSolution& solution = entry.solution;
    JournalRecord record;
    record.key = key;
    record.label = entry.label;
    record.objective_label = entry.objective_label;
    record.feasible = solution.feasible;
    record.family = static_cast<int>(solution.hardware.family);
    record.solar_cm2 = solution.hardware.solar_cm2;
    record.capacitance_f = solution.hardware.capacitance_f;
    record.arch = static_cast<int>(solution.hardware.arch);
    record.n_pe = solution.hardware.n_pe;
    record.cache_bytes = solution.hardware.cache_bytes;
    record.mean_latency_s = solution.mean_latency_s;
    record.lat_sp = solution.lat_sp;
    record.score = solution.score;
    record.evaluations = solution.evaluations;
    record.cache_hits = solution.cache_hits;
    record.cache_misses = solution.cache_misses;
    record.cache_evictions = solution.cache_evictions;
    record.search_wall_time_s = solution.search_wall_time_s;
    record.wall_time_s = entry.wall_time_s;
    if (solution.failure) {
        record.failure_code =
            std::string(fault::to_string(solution.failure.code));
        record.failure_detail = solution.failure.detail;
    }
    return record;
}

JournalRecord
deterministic_record(JournalRecord record)
{
    record.search_wall_time_s = 0.0;
    record.wall_time_s = 0.0;
    return record;
}

CampaignEntry
from_journal_record(const JournalRecord& record)
{
    CampaignEntry entry;
    entry.label = record.label;
    entry.objective_label = record.objective_label;
    entry.wall_time_s = record.wall_time_s;
    entry.from_journal = true;

    AuTSolution& solution = entry.solution;
    solution.feasible = record.feasible;
    solution.hardware.family =
        static_cast<search::HardwareFamily>(record.family);
    solution.hardware.solar_cm2 = record.solar_cm2;
    solution.hardware.capacitance_f = record.capacitance_f;
    solution.hardware.arch = static_cast<hw::AcceleratorArch>(record.arch);
    solution.hardware.n_pe = record.n_pe;
    solution.hardware.cache_bytes = record.cache_bytes;
    solution.mean_latency_s = record.mean_latency_s;
    solution.lat_sp = record.lat_sp;
    solution.score = record.score;
    solution.evaluations = static_cast<int>(record.evaluations);
    solution.cache_hits = record.cache_hits;
    solution.cache_misses = record.cache_misses;
    solution.cache_evictions = record.cache_evictions;
    solution.search_wall_time_s = record.search_wall_time_s;
    if (!record.failure_code.empty()) {
        solution.failure = fault::make_failure(
            fault::failure_code_from_string(record.failure_code),
            record.failure_detail);
    }
    return entry;
}

std::string
to_json_line(const JournalRecord& record)
{
    std::string out = "{";
    json_append_field(out, "key", record.key);
    json_append_field(out, "label", record.label);
    json_append_field(out, "objective", record.objective_label);
    json_append_raw_field(out, "feasible", record.feasible ? "1" : "0");
    json_append_raw_field(out, "family", std::to_string(record.family));
    json_append_raw_field(out, "solar_cm2", format_double_17g(record.solar_cm2));
    json_append_raw_field(out, "capacitance_f",
                          format_double_17g(record.capacitance_f));
    json_append_raw_field(out, "arch", std::to_string(record.arch));
    json_append_raw_field(out, "n_pe", std::to_string(record.n_pe));
    json_append_raw_field(out, "cache_bytes",
                          std::to_string(record.cache_bytes));
    json_append_raw_field(out, "mean_latency_s",
                          format_double_17g(record.mean_latency_s));
    json_append_raw_field(out, "lat_sp", format_double_17g(record.lat_sp));
    json_append_raw_field(out, "score", format_double_17g(record.score));
    json_append_raw_field(out, "evaluations",
                          std::to_string(record.evaluations));
    json_append_raw_field(out, "cache_hits",
                          std::to_string(record.cache_hits));
    json_append_raw_field(out, "cache_misses",
                          std::to_string(record.cache_misses));
    json_append_raw_field(out, "cache_evictions",
                          std::to_string(record.cache_evictions));
    json_append_raw_field(out, "search_wall_time_s",
                          format_double_17g(record.search_wall_time_s));
    json_append_raw_field(out, "wall_time_s",
                          format_double_17g(record.wall_time_s));
    json_append_field(out, "failure_code", record.failure_code);
    json_append_field(out, "failure_detail", record.failure_detail);
    out += '}';
    return out;
}

bool
parse_json_line(const std::string& line, JournalRecord& record)
{
    // Lines written before every case ran exactly once also carry an
    // "attempts" field; it is not read.
    FlatJsonFields fields;
    if (!scan_flat_json(line, fields))
        return false;
    std::int64_t feasible = 0;
    const bool ok =
        json_get_string(fields, "key", record.key) &&
        json_get_string(fields, "label", record.label) &&
        json_get_string(fields, "objective", record.objective_label) &&
        json_get_int64(fields, "feasible", feasible) &&
        json_get_int(fields, "family", record.family) &&
        json_get_double(fields, "solar_cm2", record.solar_cm2) &&
        json_get_double(fields, "capacitance_f", record.capacitance_f) &&
        json_get_int(fields, "arch", record.arch) &&
        json_get_int64(fields, "n_pe", record.n_pe) &&
        json_get_int64(fields, "cache_bytes", record.cache_bytes) &&
        json_get_double(fields, "mean_latency_s", record.mean_latency_s) &&
        json_get_double(fields, "lat_sp", record.lat_sp) &&
        json_get_double(fields, "score", record.score) &&
        json_get_int64(fields, "evaluations", record.evaluations) &&
        json_get_uint64(fields, "cache_hits", record.cache_hits) &&
        json_get_uint64(fields, "cache_misses", record.cache_misses) &&
        json_get_uint64(fields, "cache_evictions",
                        record.cache_evictions) &&
        json_get_double(fields, "search_wall_time_s",
                        record.search_wall_time_s) &&
        json_get_double(fields, "wall_time_s", record.wall_time_s) &&
        json_get_string(fields, "failure_code", record.failure_code) &&
        json_get_string(fields, "failure_detail", record.failure_detail);
    record.feasible = feasible != 0;
    return ok;
}

std::unordered_map<std::string, JournalRecord>
load_campaign_journal(const std::string& path)
{
    std::unordered_map<std::string, JournalRecord> records;
    std::ifstream input(path);
    if (!input)
        return records;  // first run: nothing journaled yet
    std::string line;
    std::size_t line_number = 0;
    std::size_t skipped = 0;
    while (std::getline(input, line)) {
        ++line_number;
        if (line.empty())
            continue;
        JournalRecord record;
        if (!parse_json_line(line, record)) {
            ++skipped;
            continue;
        }
        records[record.key] = std::move(record);  // last record wins
    }
    if (skipped > 0) {
        warn("campaign journal '", path, "': skipped ", skipped, " of ",
             line_number, " lines (torn or malformed; expected after an "
             "interrupted run)");
    }
    return records;
}

void
append_campaign_journal(const std::string& path,
                        const JournalRecord& record)
{
    std::ofstream output(path, std::ios::app);
    if (!output)
        fatal("campaign journal: cannot open '", path, "' for append");
    output << to_json_line(record) << '\n';
    output.flush();
    if (!output)
        fatal("campaign journal: write to '", path, "' failed");
}

}  // namespace chrysalis::core
