/// \file
/// `chrysalis-serve-v1` client: connect, frame requests, read framed
/// replies. Used by `chrysalis_cli call`, the load-generator bench and
/// the protocol tests (which also use the raw send_bytes() escape
/// hatch to produce deliberately broken frames).
///
/// Two calling conventions coexist:
///
///  - The low-level primitives (`send_frame` / `recv_frame` / `call`)
///    make exactly one attempt. `recv_frame` enforces a single
///    wall-clock deadline across the *whole* frame — a server that
///    trickles one byte per poll interval can no longer hold a request
///    forever by resetting a per-recv() timer.
///
///  - `request()` is the resilient path: overall per-request deadline,
///    connect timeout, automatic reconnect, bounded exponential backoff
///    with deterministic jitter (seeded — replays exactly), and a
///    circuit breaker that fast-fails after a run of consecutive
///    failures instead of hammering a dead server. Retries are
///    restricted to request types classified idempotent by the server's
///    StableHash response memo (`response_is_memoized()`): resending
///    one costs at most a cache hit, never a second side effect. Each
///    failed attempt closes the socket before retrying, so a late reply
///    from a timed-out attempt can never be mis-associated with the
///    next request.

#ifndef CHRYSALIS_SERVE_CLIENT_HPP
#define CHRYSALIS_SERVE_CLIENT_HPP

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/flat_json.hpp"
#include "serve/protocol.hpp"

namespace chrysalis::serve {

/// One parsed response.
struct Response {
    bool ok = false;           ///< the "ok" flag of the reply
    std::uint64_t id = 0;      ///< echoed request id
    std::string error;         ///< kErr* code when !ok
    std::string detail;        ///< human-readable error context
    std::string raw;           ///< full reply payload (exact bytes)
    FlatJsonFields fields;     ///< every reply field, parsed
};

/// Outcome of a resilient request() — the terminal classification
/// after every permitted attempt was spent.
enum class CallStatus {
    kOk = 0,          ///< reply received and parsed (may be "ok":0)
    kTransportError,  ///< connect/send/recv failed on the final attempt
    kTimeout,         ///< request deadline elapsed on the final attempt
    kProtocolError,   ///< reply was unparsable or mis-addressed
    kCircuitOpen,     ///< fast-failed without touching the network
};

/// Stable lowercase token for logs and bench reports.
const char* to_string(CallStatus status);

/// Knobs of the resilient request() path; validate() fatals on
/// nonsense values. The defaults suit a loopback daemon.
struct ClientOptions {
    /// Bounds the TCP dial (nonblocking connect + poll).
    double connect_timeout_s = 5.0;
    /// Wall-clock budget of one attempt: send + whole reply frame.
    /// 0 = wait forever.
    double request_timeout_s = 30.0;
    /// Total attempts per request() (1 = no retry). Only requests whose
    /// type is response_is_memoized() get more than one attempt.
    int max_attempts = 4;
    double backoff_base_s = 0.01;  ///< first retry delay
    double backoff_max_s = 1.0;    ///< exponential backoff cap
    /// Consecutive request() failures that open the circuit breaker;
    /// 0 disables the breaker.
    int circuit_breaker_threshold = 8;
    /// While open, request() fast-fails kCircuitOpen until this much
    /// time has passed; the next attempt is the half-open probe.
    double circuit_breaker_cooldown_s = 1.0;
    /// Seed of the deterministic backoff jitter: same seed, same
    /// request ids, same attempt numbers -> identical delays.
    std::uint64_t retry_seed = 1;

    void validate() const;
};

/// Counters of the resilient path, kept per client instance (the load
/// bench aggregates across clients; obs counters mirror them globally).
struct RetryStats {
    std::uint64_t attempts = 0;          ///< network attempts made
    std::uint64_t retries = 0;           ///< attempts after the first
    std::uint64_t reconnects = 0;        ///< successful re-dials
    std::uint64_t timeouts = 0;          ///< attempts lost to the deadline
    std::uint64_t transport_errors = 0;  ///< attempts lost to connect/IO
    std::uint64_t protocol_errors = 0;   ///< unparsable or wrong-id replies
    std::uint64_t circuit_open_rejections = 0;  ///< fast-failed requests
    std::uint64_t circuit_opens = 0;     ///< closed->open transitions
};

/// TCP client. Movable (so benches can hold a vector of connections),
/// not copyable. Not thread-safe; one client per thread.
class Client
{
  public:
    Client() = default;
    explicit Client(ClientOptions options);
    ~Client();
    Client(Client&& other) noexcept;
    Client& operator=(Client&& other) noexcept;
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    /// Connects to host:port and remembers the address for automatic
    /// reconnects. \p timeout_s >= 0 overrides both the connect and the
    /// per-request deadline (back-compat with the old per-recv timeout
    /// parameter, 0 = wait forever); the default -1 uses
    /// ClientOptions::connect_timeout_s / request_timeout_s. Returns
    /// false on failure (fd left closed).
    bool connect(const std::string& host, int port,
                 double timeout_s = -1.0);

    bool connected() const { return fd_ >= 0; }

    /// Closes the socket (both directions).
    void close();

    /// Half-closes the write side; the server sees EOF after the bytes
    /// in flight, replies to what it received, then closes.
    void shutdown_write();

    /// Sends raw bytes as-is — no framing. For tests that need
    /// truncated or hand-corrupted frames.
    bool send_bytes(const void* data, std::size_t size);

    /// Frames and sends one payload.
    bool send_frame(const std::string& payload);

    /// Blocks until one complete reply frame arrives, bounded by one
    /// wall-clock deadline across the whole frame (the per-request
    /// timeout, however slowly the bytes trickle in). Returns false on
    /// EOF, deadline expiry or protocol corruption.
    bool recv_frame(std::string& payload);

    /// Builds a request payload: `"v"`, an auto-incremented `"id"`,
    /// `"type"`, then \p params in key-sorted order. Parameter values
    /// that parse fully as numbers are emitted bare, everything else as
    /// a JSON string — matching what the handlers accept either way.
    std::string build_request(const std::string& type,
                              const FlatJsonFields& params);

    /// send_frame(build_request(...)) + recv_frame + parse, in one
    /// call — exactly one attempt, no retry. Returns false on any
    /// transport failure; protocol-level errors ("ok":0) still return
    /// true with response.ok == false.
    bool call(const std::string& type, const FlatJsonFields& params,
              Response& response);

    /// The resilient path: one request, up to
    /// ClientOptions::max_attempts network attempts (retrying only
    /// types the server memoizes), automatic reconnect between
    /// attempts, deterministic backoff, circuit breaker. Returns kOk
    /// with \p response filled, or the failure classification of the
    /// final attempt.
    CallStatus request(const std::string& type,
                       const FlatJsonFields& params, Response& response);

    const ClientOptions& options() const { return options_; }
    const RetryStats& retry_stats() const { return stats_; }

    /// True while the circuit breaker refuses requests.
    bool circuit_open() const { return circuit_open_; }

    /// The "id" the next build_request() will use.
    std::uint64_t next_id() const { return next_id_; }
    void set_next_id(std::uint64_t id) { next_id_ = id; }

  private:
    enum class RecvOutcome { kFrame, kTimeout, kClosed, kCorrupt };

    /// Dials host_:port_ within connect_timeout. Returns false and
    /// leaves the fd closed on failure.
    bool dial();
    /// recv_frame against an absolute obs::monotonic_seconds()
    /// deadline; +inf waits forever.
    RecvOutcome recv_frame_until(std::string& payload, double deadline_s);
    /// One send+recv+parse attempt of the prebuilt \p payload.
    CallStatus attempt_once(const std::string& payload,
                            std::uint64_t request_id, Response& response);
    void record_failure(CallStatus status);
    void sleep_backoff(std::uint64_t request_id, int attempt);

    ClientOptions options_;
    int fd_ = -1;
    std::uint64_t next_id_ = 1;
    FrameDecoder decoder_;

    std::string host_;  ///< remembered dial address for reconnects
    int port_ = 0;

    RetryStats stats_;
    int consecutive_failures_ = 0;
    bool circuit_open_ = false;
    double circuit_open_until_s_ = 0.0;
};

/// Parses a reply payload into a Response. Returns false (and fills
/// response.error with kErrBadRequest semantics) when the payload is
/// not a flat JSON object.
bool parse_response(const std::string& payload, Response& response);

}  // namespace chrysalis::serve

#endif  // CHRYSALIS_SERVE_CLIENT_HPP
