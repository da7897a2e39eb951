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

std::string
to_json_line(const std::string& key, const CampaignEntry& entry,
             bool deterministic)
{
    const AuTSolution& solution = entry.solution;
    const bool failed = static_cast<bool>(solution.failure);
    std::string out = "{";
    json_append_field(out, "key", key);
    json_append_field(out, "label", entry.label);
    json_append_field(out, "objective", entry.objective_label);
    json_append_flag(out, "feasible", solution.feasible);
    json_append_int64(out, "family",
                      static_cast<int>(solution.hardware.family));
    json_append_double(out, "solar_cm2", solution.hardware.solar_cm2);
    json_append_double(out, "capacitance_f", solution.hardware.capacitance_f);
    json_append_int64(out, "arch", static_cast<int>(solution.hardware.arch));
    json_append_int64(out, "n_pe", solution.hardware.n_pe);
    json_append_int64(out, "cache_bytes", solution.hardware.cache_bytes);
    json_append_double(out, "mean_latency_s", solution.mean_latency_s);
    json_append_double(out, "lat_sp", solution.lat_sp);
    json_append_double(out, "score", solution.score);
    json_append_int64(out, "evaluations", solution.evaluations);
    json_append_uint64(out, "cache_hits", solution.cache_hits);
    json_append_uint64(out, "cache_misses", solution.cache_misses);
    json_append_uint64(out, "cache_evictions", solution.cache_evictions);
    json_append_double(out, "search_wall_time_s",
                       deterministic ? 0.0 : solution.search_wall_time_s);
    json_append_double(out, "wall_time_s",
                       deterministic ? 0.0 : entry.wall_time_s);
    json_append_field(out, "failure_code",
                      failed ? fault::to_string(solution.failure.code) : "");
    json_append_field(out, "failure_detail",
                      failed ? solution.failure.detail : "");
    out += '}';
    return out;
}

bool
parse_json_line(const std::string& line, std::string& key,
                CampaignEntry& entry)
{
    // Lines written before every case ran exactly once also carry an
    // "attempts" field; it is not read.
    FlatJsonFields fields;
    if (!scan_flat_json(line, fields))
        return false;
    AuTSolution& solution = entry.solution;
    std::int64_t feasible = 0;
    int family = 0;
    int arch = 0;
    std::string failure_code;
    std::string failure_detail;
    const bool ok =
        json_get_string(fields, "key", key) &&
        json_get_string(fields, "label", entry.label) &&
        json_get_string(fields, "objective", entry.objective_label) &&
        json_get_int64(fields, "feasible", feasible) &&
        json_get_int(fields, "family", family) &&
        json_get_double(fields, "solar_cm2", solution.hardware.solar_cm2) &&
        json_get_double(fields, "capacitance_f",
                        solution.hardware.capacitance_f) &&
        json_get_int(fields, "arch", arch) &&
        json_get_int64(fields, "n_pe", solution.hardware.n_pe) &&
        json_get_int64(fields, "cache_bytes", solution.hardware.cache_bytes) &&
        json_get_double(fields, "mean_latency_s", solution.mean_latency_s) &&
        json_get_double(fields, "lat_sp", solution.lat_sp) &&
        json_get_double(fields, "score", solution.score) &&
        json_get_int(fields, "evaluations", solution.evaluations) &&
        json_get_uint64(fields, "cache_hits", solution.cache_hits) &&
        json_get_uint64(fields, "cache_misses", solution.cache_misses) &&
        json_get_uint64(fields, "cache_evictions",
                        solution.cache_evictions) &&
        json_get_double(fields, "search_wall_time_s",
                        solution.search_wall_time_s) &&
        json_get_double(fields, "wall_time_s", entry.wall_time_s) &&
        json_get_string(fields, "failure_code", failure_code) &&
        json_get_string(fields, "failure_detail", failure_detail);
    solution.feasible = feasible != 0;
    solution.hardware.family = static_cast<search::HardwareFamily>(family);
    solution.hardware.arch = static_cast<hw::AcceleratorArch>(arch);
    if (!failure_code.empty()) {
        solution.failure = fault::make_failure(
            fault::failure_code_from_string(failure_code), failure_detail);
    }
    entry.from_journal = true;
    return ok;
}

std::unordered_map<std::string, CampaignEntry>
load_campaign_journal(const std::string& path)
{
    std::unordered_map<std::string, CampaignEntry> entries;
    std::ifstream input(path);
    if (!input)
        return entries;  // first run: nothing journaled yet
    std::string line;
    std::size_t line_number = 0;
    std::size_t skipped = 0;
    while (std::getline(input, line)) {
        ++line_number;
        if (line.empty())
            continue;
        std::string key;
        CampaignEntry entry;
        if (!parse_json_line(line, key, entry)) {
            ++skipped;
            continue;
        }
        entries[key] = std::move(entry);  // last line wins
    }
    if (skipped > 0) {
        warn("campaign journal '", path, "': skipped ", skipped, " of ",
             line_number, " lines (torn or malformed; expected after an "
             "interrupted run)");
    }
    return entries;
}

void
append_campaign_journal(const std::string& path, const std::string& line)
{
    std::ofstream output(path, std::ios::app);
    if (!output)
        fatal("campaign journal: cannot open '", path, "' for append");
    output << line << '\n';
    output.flush();
    if (!output)
        fatal("campaign journal: write to '", path, "' failed");
}

}  // namespace chrysalis::core
