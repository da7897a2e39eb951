#include "serve/handlers.hpp"

#include <exception>
#include <memory>
#include <string_view>
#include <utility>

#include "common/logging.hpp"
#include "common/string_utils.hpp"
#include "core/chrysalis.hpp"
#include "dnn/model_zoo.hpp"
#include "fault/fault_injector.hpp"
#include "hw/accelerator.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"

namespace chrysalis::serve {
namespace {

// ---- body builders -------------------------------------------------------
// A body is the comma-joined field list *between* the braces; the
// flat_json writers put no comma before its first field.

void
body_f64(std::string& body, const char* name, double value)
{
    json_append_raw_field(body, name, format_double_17g(value));
}

void
body_i64(std::string& body, const char* name, std::int64_t value)
{
    json_append_raw_field(body, name, std::to_string(value));
}

void
body_u64(std::string& body, const char* name, std::uint64_t value)
{
    json_append_raw_field(body, name, std::to_string(value));
}

void
body_flag(std::string& body, const char* name, bool value)
{
    json_append_raw_field(body, name, value ? "1" : "0");
}

// ---- strict field access -------------------------------------------------
// Absent fields fall back to their default; present-but-unparsable
// fields are a client error and fatal() (converted to a bad_request
// reply by the dispatch wrapper) instead of being silently ignored.

double
field_double(const FlatJsonFields& fields, const char* name, double fallback)
{
    if (fields.find(name) == fields.end())
        return fallback;
    double out = 0.0;
    if (!json_get_double(fields, name, out))
        fatal("request field \"", name, "\" is not a number");
    return out;
}

std::int64_t
field_int64(const FlatJsonFields& fields, const char* name,
            std::int64_t fallback)
{
    if (fields.find(name) == fields.end())
        return fallback;
    std::int64_t out = 0;
    if (!json_get_int64(fields, name, out))
        fatal("request field \"", name, "\" is not an integer");
    return out;
}

std::uint64_t
field_uint64(const FlatJsonFields& fields, const char* name,
             std::uint64_t fallback)
{
    if (fields.find(name) == fields.end())
        return fallback;
    std::uint64_t out = 0;
    if (!json_get_uint64(fields, name, out))
        fatal("request field \"", name,
              "\" is not a non-negative integer");
    return out;
}

std::string
field_string(const FlatJsonFields& fields, const char* name,
             std::string fallback)
{
    std::string out;
    if (json_get_string(fields, name, out))
        return out;
    return fallback;
}

// ---- request decoding ----------------------------------------------------

/// Everything an eval-type handler needs, decoded from request fields.
struct EvalRequest {
    explicit EvalRequest(dnn::Model workload) : model(std::move(workload))
    {}

    dnn::Model model;
    search::DesignSpace space;
    search::Objective objective;
    search::ExplorerOptions options;
    search::HwCandidate candidate;
    /// Owns the injector `options.faults` / `sim.faults` point at.
    std::unique_ptr<fault::FaultInjector> faults;
    sim::SimConfig sim;
    int runs = 3;  ///< sim_step validation repetitions
};

EvalRequest
parse_eval_request(const FlatJsonFields& fields)
{
    EvalRequest request(
        dnn::make_model(field_string(fields, "model", "kws")));

    const std::string space = field_string(fields, "space", "existing");
    if (space == "existing")
        request.space = search::DesignSpace::existing_aut();
    else if (space == "future")
        request.space = search::DesignSpace::future_aut();
    else
        fatal("unknown space '", space, "' (expected existing|future)");

    const std::string objective =
        field_string(fields, "objective", "latsp");
    if (objective == "lat")
        request.objective.kind = search::ObjectiveKind::kLatency;
    else if (objective == "sp")
        request.objective.kind = search::ObjectiveKind::kSolarPanel;
    else if (objective == "latsp")
        request.objective.kind = search::ObjectiveKind::kLatSp;
    else
        fatal("unknown objective '", objective,
              "' (expected lat|sp|latsp)");
    request.objective.sp_limit_cm2 =
        field_double(fields, "sp_limit", request.objective.sp_limit_cm2);
    request.objective.lat_limit_s =
        field_double(fields, "lat_limit", request.objective.lat_limit_s);

    const double bright = field_double(fields, "bright", 2.0e-3);
    const double dark = field_double(fields, "dark", 0.5e-3);
    request.options.k_eh_envs = {bright, dark};

    const std::uint64_t seed = field_uint64(fields, "seed", 1);
    request.options.inner.seed = seed;
    request.options.inner.max_candidates_per_dim =
        static_cast<std::size_t>(field_int64(
            fields, "mapping_candidates",
            static_cast<std::int64_t>(
                request.options.inner.max_candidates_per_dim)));
    // The handler evaluates exactly one candidate; the per-request memo
    // inside the explorer would never hit and the server already shares
    // a response-level cache across connections.
    request.options.cache_capacity = 0;

    request.candidate = request.space.defaults;
    request.candidate.solar_cm2 = field_double(
        fields, "solar_cm2", request.candidate.solar_cm2);
    request.candidate.capacitance_f = field_double(
        fields, "capacitance_f", request.candidate.capacitance_f);
    const std::string arch = field_string(fields, "arch", "");
    if (!arch.empty())
        request.candidate.arch = hw::accelerator_arch_from_string(arch);
    request.candidate.n_pe =
        field_int64(fields, "n_pe", request.candidate.n_pe);
    request.candidate.cache_bytes =
        field_int64(fields, "cache_bytes", request.candidate.cache_bytes);

    fault::FaultSpec spec;
    spec.seed = seed;
    spec.dropout_probability =
        field_double(fields, "fault_dropout", 0.0);
    spec.mission_age_years = field_double(fields, "fault_age", 0.0);
    spec.ckpt_corruption_rate = field_double(fields, "fault_ckpt", 0.0);
    if (spec.any_active()) {
        spec.validate();
        request.faults = std::make_unique<fault::FaultInjector>(spec);
        request.options.faults = request.faults.get();
    }

    request.sim.seed = seed;
    request.sim.step_s = field_double(fields, "step_s", request.sim.step_s);
    request.sim.exception_rate = field_double(
        fields, "exception_rate", request.sim.exception_rate);
    request.sim.faults = request.options.faults;
    request.runs = static_cast<int>(field_int64(fields, "runs", 3));
    if (request.runs < 1)
        fatal("request field \"runs\" must be >= 1");
    return request;
}

// ---- per-type handlers ---------------------------------------------------

std::string
eval_design_point_body(const FlatJsonFields& fields)
{
    const EvalRequest request = parse_eval_request(fields);
    const core::Chrysalis tool({request.model, request.space,
                                request.objective, request.options});
    const core::AuTSolution solution =
        tool.evaluate_candidate(request.candidate);

    std::string body;
    body_flag(body, "ok", true);
    json_append_field(body, "type", "eval_design_point");
    body_flag(body, "feasible", solution.feasible);
    body_f64(body, "score", solution.score);
    body_f64(body, "mean_latency_s", solution.mean_latency_s);
    body_f64(body, "lat_sp", solution.lat_sp);
    body_f64(body, "e_all_j", solution.cost.total_energy_j());
    body_i64(body, "n_tile", solution.cost.n_tile);
    // Echo the (clamped) candidate that was actually evaluated.
    body_f64(body, "solar_cm2", solution.hardware.solar_cm2);
    body_f64(body, "capacitance_f", solution.hardware.capacitance_f);
    json_append_field(body, "arch", hw::to_string(solution.hardware.arch));
    body_i64(body, "n_pe", solution.hardware.n_pe);
    body_i64(body, "cache_bytes", solution.hardware.cache_bytes);
    json_append_field(body, "failure",
                      std::string(fault::to_string(solution.failure.code)));
    return body;
}

std::string
eval_mapping_body(const FlatJsonFields& fields)
{
    const EvalRequest request = parse_eval_request(fields);
    const search::BiLevelExplorer explorer(
        request.model, request.space, request.objective, request.options);
    const search::EvaluatedDesign design =
        explorer.evaluate(request.candidate);

    // Compact per-layer rendering: "<dataflow>:KxYxN" joined by ';'.
    std::string mappings;
    for (const auto& mapping : design.mapping.mappings) {
        if (!mappings.empty())
            mappings += ';';
        mappings += dataflow::to_string(mapping.dataflow);
        mappings += ':';
        mappings += std::to_string(mapping.tiles_k);
        mappings += 'x';
        mappings += std::to_string(mapping.tiles_y);
        mappings += 'x';
        mappings += std::to_string(mapping.tiles_n);
    }

    std::string body;
    body_flag(body, "ok", true);
    json_append_field(body, "type", "eval_mapping");
    body_flag(body, "feasible", design.mapping.feasible);
    body_f64(body, "time_s", design.mapping.cost.time_s);
    body_f64(body, "e_all_j", design.mapping.cost.total_energy_j());
    body_f64(body, "max_tile_energy_j",
             design.mapping.cost.max_tile_energy_j());
    body_i64(body, "n_tile", design.mapping.cost.n_tile);
    body_f64(body, "violation_j", design.mapping.violation_j);
    body_i64(body, "evaluations", design.mapping.evaluations);
    body_u64(body, "layers", design.mapping.mappings.size());
    json_append_field(body, "mappings", mappings);
    json_append_field(
        body, "failure",
        std::string(fault::to_string(design.mapping.failure.code)));
    return body;
}

std::string
sim_step_body(const FlatJsonFields& fields)
{
    const EvalRequest request = parse_eval_request(fields);
    const core::Chrysalis tool({request.model, request.space,
                                request.objective, request.options});
    const core::AuTSolution solution =
        tool.evaluate_candidate(request.candidate);

    std::string body;
    body_flag(body, "ok", true);
    json_append_field(body, "type", "sim_step");
    body_flag(body, "feasible", solution.feasible);
    if (!solution.feasible) {
        // No mapping to replay; report why instead of simulating.
        body_flag(body, "completed", false);
        json_append_field(
            body, "failure",
            std::string(fault::to_string(solution.failure.code)));
        return body;
    }

    const core::ValidationResult validation = tool.validate(
        solution, request.options.k_eh_envs.front(), request.sim,
        request.runs);
    body_flag(body, "completed", validation.sim.completed);
    body_f64(body, "mean_sim_latency_s", validation.mean_sim_latency_s);
    body_f64(body, "analytic_latency_s", validation.analytic_latency_s);
    body_f64(body, "relative_error", validation.relative_error);
    body_i64(body, "steps", validation.sim.steps);
    body_i64(body, "tiles_total", validation.sim.tiles_total);
    body_i64(body, "tiles_executed", validation.sim.tiles_executed);
    body_i64(body, "exceptions", validation.sim.exceptions);
    body_i64(body, "energy_cycles", validation.sim.energy_cycles);
    body_i64(body, "power_offs", validation.sim.power_offs);
    body_i64(body, "ckpt_saves", validation.sim.ckpt_saves);
    body_i64(body, "ckpt_restores", validation.sim.ckpt_restores);
    body_i64(body, "ckpt_corruptions", validation.sim.ckpt_corruptions);
    body_f64(body, "e_all_j", validation.sim.e_all_j());
    json_append_field(
        body, "failure",
        std::string(fault::to_string(validation.sim.failure.code)));
    return body;
}

std::string
server_stats_body(const ServerStatsSnapshot& stats)
{
    std::string body;
    body_flag(body, "ok", true);
    json_append_field(body, "type", "server_stats");
    body_u64(body, "connections_open", stats.connections_open);
    body_u64(body, "connections_total", stats.connections_total);
    body_u64(body, "requests_total", stats.requests_total);
    body_u64(body, "requests_eval_design_point",
             stats.requests_eval_design_point);
    body_u64(body, "requests_eval_mapping", stats.requests_eval_mapping);
    body_u64(body, "requests_sim_step", stats.requests_sim_step);
    body_u64(body, "requests_server_stats", stats.requests_server_stats);
    body_u64(body, "requests_health", stats.requests_health);
    body_u64(body, "errors_total", stats.errors_total);
    body_u64(body, "overload_rejections", stats.overload_rejections);
    body_u64(body, "batches", stats.batches);
    body_u64(body, "max_batch", stats.max_batch);
    body_u64(body, "pending", stats.pending);
    body_u64(body, "timeouts_read", stats.timeouts_read);
    body_u64(body, "timeouts_idle", stats.timeouts_idle);
    body_u64(body, "slow_consumer_closes", stats.slow_consumer_closes);
    body_flag(body, "draining", stats.draining);
    body_i64(body, "threads", stats.threads);
    body_u64(body, "cache_hits", stats.cache.hits);
    body_u64(body, "cache_misses", stats.cache.misses);
    body_u64(body, "cache_insertions", stats.cache.insertions);
    body_u64(body, "cache_evictions", stats.cache.evictions);
    body_u64(body, "cache_entries", stats.cache.entries);
    body_u64(body, "cache_capacity", stats.cache.capacity);
    body_f64(body, "cache_hit_rate", stats.cache.hit_rate());
    json_append_field(body, "worker_id", stats.worker_id);
    body_f64(body, "uptime_seconds", stats.uptime_seconds);
    body_u64(body, "latency_count", stats.latency_count);
    body_f64(body, "latency_p50_s", stats.latency_p50_s);
    body_f64(body, "latency_p95_s", stats.latency_p95_s);
    body_f64(body, "latency_p99_s", stats.latency_p99_s);
    return body;
}

/// Readiness/drain probe for load balancers and deploy scripts: cheap
/// (never evaluates anything, never cached) and honest during shutdown
/// — requests admitted before stop() still drain, but a draining reply
/// tells the client to take new traffic elsewhere.
std::string
health_body(const ServerStatsSnapshot& stats)
{
    std::string body;
    body_flag(body, "ok", true);
    json_append_field(body, "type", "health");
    json_append_field(body, "status", stats.draining ? "draining" : "ready");
    json_append_field(body, "worker_id", stats.worker_id);
    body_flag(body, "draining", stats.draining);
    body_u64(body, "connections_open", stats.connections_open);
    body_u64(body, "pending", stats.pending);
    body_i64(body, "threads", stats.threads);
    return body;
}

}  // namespace

std::uint64_t
request_id(const FlatJsonFields& fields)
{
    std::uint64_t id = 0;
    json_get_uint64(fields, "id", id);
    return id;
}

bool
response_is_memoized(const std::string& type)
{
    return type == "eval_design_point" || type == "eval_mapping" ||
           type == "sim_step";
}

CacheKey
request_cache_key(const FlatJsonFields& fields)
{
    StableHash hash;
    hash.add(std::string_view(kProtocolVersion));
    for (const auto& [key, value] : fields) {
        // "id" is the echo token; "trace" is observability context.
        // Neither changes what is computed, so neither may split the
        // memo — a traced request must hit an untraced request's entry.
        if (key == "id" || key == "trace")
            continue;
        hash.add(std::string_view(key));
        hash.add(std::string_view(value));
    }
    return hash.key();
}

std::string
error_body(const std::string& code, const std::string& detail)
{
    std::string body;
    body_flag(body, "ok", false);
    json_append_field(body, "error", code);
    json_append_field(body, "detail", detail);
    return body;
}

std::string
finish_response(std::uint64_t id, const std::string& body)
{
    std::string out = "{";
    json_append_field(out, "v", kProtocolVersion);
    json_append_raw_field(out, "id", std::to_string(id));
    out += ',';
    out += body;
    out += '}';
    return out;
}

std::string
error_response(std::uint64_t id, const std::string& code,
               const std::string& detail)
{
    return finish_response(id, error_body(code, detail));
}

void
append_timing_fields(std::string& response, double queue_wait_s,
                     double decode_s, double eval_s, double encode_s)
{
    if (response.empty() || response.back() != '}')
        return;
    response.pop_back();
    body_f64(response, "timing_queue_s", queue_wait_s);
    body_f64(response, "timing_decode_s", decode_s);
    body_f64(response, "timing_eval_s", eval_s);
    body_f64(response, "timing_encode_s", encode_s);
    response += '}';
}

std::string
handle_request_body(const FlatJsonFields& fields, ResponseCache* cache,
                    const ServerStatsSnapshot& stats)
{
    std::string version;
    if (!json_get_string(fields, "v", version))
        return error_body(kErrBadVersion, "missing protocol field \"v\"");
    if (version != kProtocolVersion)
        return error_body(kErrBadVersion,
                          "unsupported protocol version \"" + version +
                              "\"; this server speaks " +
                              kProtocolVersion);
    std::string type;
    if (!json_get_string(fields, "type", type))
        return error_body(kErrBadRequest,
                          "missing request field \"type\"");
    if (type == "server_stats")
        return server_stats_body(stats);
    if (type == "health")
        return health_body(stats);
    if (!response_is_memoized(type))
        return error_body(kErrUnknownType,
                          "unknown request type \"" + type + "\"");

    const auto compute = [&]() -> std::string {
        OBS_SPAN("serve/eval");
        // Handlers report user errors via fatal(); isolate them to an
        // error reply instead of taking the daemon down.
        FatalThrowGuard guard;
        try {
            if (type == "eval_design_point")
                return eval_design_point_body(fields);
            if (type == "eval_mapping")
                return eval_mapping_body(fields);
            return sim_step_body(fields);
        } catch (const FatalError& error) {
            return error_body(kErrBadRequest, error.what());
        } catch (const std::exception& error) {
            return error_body(kErrBadRequest, error.what());
        }
    };
    if (cache == nullptr)
        return compute();
    return cache->get_or_compute(request_cache_key(fields), compute);
}

}  // namespace chrysalis::serve
