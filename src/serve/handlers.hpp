/// \file
/// Request handlers of `chrysalis-serve-v1`: pure functions from parsed
/// request fields to a response *body* (the fields after `"v"` and
/// `"id"`), factored out of the server's I/O loop so tests can exercise
/// every request type without a socket.
///
/// Determinism contract: for `eval_design_point`, `eval_mapping` and
/// `sim_step` the body is a pure function of the request fields — all
/// doubles are rendered with format_double_17g() and all field orders
/// are fixed — so identical requests produce byte-identical responses
/// regardless of server thread count, cache state, or which worker ran
/// them. `server_stats` and `health` report live state and are exempt
/// (and are never cached).

#ifndef CHRYSALIS_SERVE_HANDLERS_HPP
#define CHRYSALIS_SERVE_HANDLERS_HPP

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/flat_json.hpp"
#include "runtime/eval_cache.hpp"

namespace chrysalis::serve {

/// Response memo shared across connections: request-key -> body bytes.
/// Two clients asking the same question cost one evaluation.
using ResponseCache = runtime::EvalCache<std::string>;

/// Point-in-time copy of the server's counters, captured on the I/O
/// thread when a batch is dispatched; `server_stats` replies are
/// formatted from this snapshot on a worker without touching live state.
struct ServerStatsSnapshot {
    std::uint64_t connections_open = 0;
    std::uint64_t connections_total = 0;   ///< accepted since start
    std::uint64_t requests_total = 0;      ///< well-framed requests seen
    std::uint64_t requests_eval_design_point = 0;
    std::uint64_t requests_eval_mapping = 0;
    std::uint64_t requests_sim_step = 0;
    std::uint64_t requests_server_stats = 0;
    std::uint64_t requests_health = 0;
    std::uint64_t errors_total = 0;        ///< "ok":0 replies sent
    std::uint64_t overload_rejections = 0; ///< admission-control refusals
    std::uint64_t batches = 0;             ///< micro-batches dispatched
    std::uint64_t max_batch = 0;           ///< largest batch so far
    std::uint64_t pending = 0;             ///< queued at snapshot time
    std::uint64_t timeouts_read = 0;       ///< slow-loris closes (partial
                                           ///< frame past read_timeout_s)
    std::uint64_t timeouts_idle = 0;       ///< idle closes (idle_timeout_s)
    std::uint64_t slow_consumer_closes = 0;  ///< write buffer overflows
    bool draining = false;                 ///< stop() requested; no new
                                           ///< work admitted after drain
    int threads = 1;                       ///< eval worker count
    runtime::EvalCacheStats cache;         ///< shared response-memo stats
    /// Stable identity this daemon reports in `server_stats` and
    /// `health` replies (ServerOptions::worker_id, defaulted to
    /// "<hostname>:<port>" at start()), so clients and logs can
    /// attribute work to a daemon.
    std::string worker_id;
    double uptime_seconds = 0.0;           ///< seconds since start()
    /// Request-latency summary, computed server-side from the latency
    /// histogram's bucket counts (obs::histogram_quantile) so
    /// operators read a p99 from one `server_stats` call without a
    /// metrics report. Quantiles resolve to bucket upper edges.
    std::uint64_t latency_count = 0;
    double latency_p50_s = 0.0;
    double latency_p95_s = 0.0;
    double latency_p99_s = 0.0;
};

/// The client-chosen "id" echo token; 0 when absent or unparsable.
std::uint64_t request_id(const FlatJsonFields& fields);

/// True for request types whose response goes through the StableHash
/// response memo (`eval_design_point`, `eval_mapping`, `sim_step`):
/// their replies are pure functions of the request fields.
/// `server_stats` and `health` report live state and are never cached.
bool response_is_memoized(const std::string& type);

/// Stable memo key of a request: StableHash over the protocol version
/// and every field except "id" and "trace", in key-sorted order. Two
/// requests that differ only in "id" or trace context (or field
/// spelling order on the wire — the map is sorted) share a key and
/// therefore a cached body: tracing is observability, never semantics,
/// so a traced and an untraced request must hit the same memo entry.
CacheKey request_cache_key(const FlatJsonFields& fields);

/// Dispatches one parsed request to its handler. Eval-type responses go
/// through \p cache when non-null. Never throws and never fatals:
/// handler-level fatal() (unknown model, bad field value) is converted
/// to an `"ok":0` body via FatalThrowGuard.
std::string handle_request_body(const FlatJsonFields& fields,
                                ResponseCache* cache,
                                const ServerStatsSnapshot& stats);

/// Splices the per-request stage timings into a finished response
/// (before the trailing '}'): `timing_queue_s`, `timing_decode_s`,
/// `timing_eval_s`, `timing_encode_s`, all format_double_17g. The
/// server calls this only for requests that carried a `trace` field,
/// AFTER any response-memo lookup — timing never enters cached bytes,
/// so traced and untraced clients read byte-identical payloads.
void append_timing_fields(std::string& response, double queue_wait_s,
                          double decode_s, double eval_s,
                          double encode_s);

/// Longest `detail` an error reply echoes, in bytes of the raw value. A
/// detail may quote the request (an unknown type, a bad model name), and
/// JSON escaping writes at most 6 bytes per byte, so cutting it here is
/// what keeps every reply to an admitted frame within kMaxFrameBytes.
inline constexpr std::size_t kMaxErrorDetailBytes = 1024;

/// Body of an `"ok":0` reply: `"ok":0,"error":<code>,"detail":<detail>`.
/// A detail longer than kMaxErrorDetailBytes is cut there, back to a
/// UTF-8 character boundary, and ends in a `... [<n> more bytes]`
/// marker.
std::string error_body(const std::string& code, const std::string& detail);

/// Wraps a body into the full response object:
/// `{"v":<version>,"id":<id>,<body>}`.
std::string finish_response(std::uint64_t id, const std::string& body);

/// finish_response(error_body(...)) in one step — the server's reply
/// for refused requests (overload, malformed payload or frame).
std::string error_response(std::uint64_t id, const std::string& code,
                           const std::string& detail);

}  // namespace chrysalis::serve

#endif  // CHRYSALIS_SERVE_HANDLERS_HPP
