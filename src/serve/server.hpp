/// \file
/// The `chrysalis-serve-v1` TCP server: evaluation-as-a-service on a
/// plain POSIX socket, no external dependencies.
///
/// Architecture: one I/O thread owns every socket and runs a poll()
/// loop — accept, incremental frame reassembly, admission control and
/// reply writes all happen there, so connection state needs no locking.
/// Complete requests queue up and are dispatched in arrival order as
/// micro-batches onto a `runtime::ThreadPool` (`parallel_map`, which
/// preserves index order); handlers are pure functions of the request
/// fields (serve/handlers.hpp), so replies are byte-identical at any
/// thread count. A sharded `ResponseCache` is shared by all
/// connections: two clients asking the same question cost one
/// evaluation.
///
/// Admission control: at most `max_connections` sockets (beyond that
/// the listener simply stops accepting; nothing is dropped), at most
/// `max_inflight` queued requests in total and `queue_depth` per
/// connection (beyond either, the request is answered immediately with
/// an `overloaded` error instead of growing the queue). Malformed
/// payloads get a structured `bad_request` reply and the connection
/// lives on; only an oversized length prefix — after which the byte
/// stream cannot be resynchronized — closes a connection, and even then
/// a `bad_frame` reply is flushed first.
///
/// Self-defense against hostile or broken peers: a connection that
/// leaves a frame half-sent for longer than `read_timeout_s` is closed
/// (slow-loris defense), one that goes fully quiet for longer than
/// `idle_timeout_s` is reaped (0 disables — idle pools are legitimate),
/// and one that stops reading while replies accumulate past
/// `max_write_buffer_bytes` is dropped instead of growing the buffer
/// without bound. Every socket syscall retries on EINTR.
///
/// stop() drains: queued requests are evaluated, replies are flushed
/// (bounded by `drain_timeout_s`), then sockets close. While draining,
/// `health` replies report "draining".

#ifndef CHRYSALIS_SERVE_SERVER_HPP
#define CHRYSALIS_SERVE_SERVER_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"

namespace chrysalis::serve {

/// Server knobs; validate() fatals on nonsense values.
struct ServerOptions {
    std::string host = "127.0.0.1";  ///< bind address (dotted quad)
    int port = 0;                    ///< 0 = kernel-chosen (see port())
    /// Eval worker threads; 0 = all hardware threads. Replies are
    /// byte-identical at any value.
    int threads = 1;
    /// Shared response-memo capacity (entries); 0 disables caching.
    std::size_t cache_capacity = 4096;
    int max_connections = 64;   ///< sockets accepted concurrently
    int max_inflight = 256;     ///< total queued requests
    int queue_depth = 32;       ///< queued requests per connection
    int batch_max = 32;         ///< requests per dispatched micro-batch
    double drain_timeout_s = 5.0;  ///< reply-flush bound during stop()
    /// Closes a connection that has held a frame half-sent this long
    /// (slow-loris defense). 0 disables.
    double read_timeout_s = 30.0;
    /// Reaps a connection with nothing buffered in either direction
    /// after this long. 0 (the default) disables — long-lived idle
    /// client pools are legitimate.
    double idle_timeout_s = 0.0;
    /// Closes a connection whose unflushed reply bytes exceed this
    /// (slow-consumer defense; the peer asked and never read).
    std::size_t max_write_buffer_bytes = 8u << 20;
    /// Identity reported in `server_stats`/`health` replies so clients
    /// and logs can attribute work to a daemon. Empty (the default)
    /// resolves to "<hostname>:<port>" at start(), after the listening
    /// port is known.
    std::string worker_id;

    void validate() const;
};

/// The daemon core. Construct, start(), eventually stop(). Thread-safe
/// methods: stop() and stats() may be called from any thread.
class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();  ///< stop()s if still running

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Binds, listens and launches the I/O thread. fatal() when the
    /// address cannot be bound. After start() returns, port() is the
    /// resolved listening port and clients may connect.
    void start();

    /// Requests shutdown, drains queued work and joins the I/O thread.
    /// Idempotent.
    void stop() CHRYSALIS_EXCLUDES(stop_mutex_);

    /// True between start() and stop().
    bool running() const { return running_.load(); }

    /// Resolved listening port (after start()).
    int port() const { return port_; }

    const ServerOptions& options() const { return options_; }

    /// Point-in-time copy of the serving counters.
    ServerStatsSnapshot stats() const CHRYSALIS_EXCLUDES(stats_mutex_);

  private:
    struct Connection {
        int fd = -1;
        std::uint64_t id = 0;     ///< stable handle across vector moves
        FrameDecoder decoder;
        std::string out;          ///< unflushed reply bytes
        std::size_t out_offset = 0;
        int queued = 0;           ///< requests awaiting evaluation
        bool closing = false;     ///< close once `out` is flushed
        /// monotonic_seconds() of the last byte-level progress in
        /// either direction; the idle/read-timeout reference point.
        double last_activity_s = 0.0;
    };

    struct PendingRequest {
        std::uint64_t connection_id = 0;
        std::uint64_t id = 0;     ///< request "id" echo token
        FlatJsonFields fields;
        std::string type;
        /// Queue+eval latency probe; records a trace span when released.
        std::unique_ptr<obs::SpanTimer> timer;
        /// Parsed "trace" request field (trace_id 0 = untraced).
        obs::TraceContext trace_ctx;
        /// monotonic_seconds() when the request entered pending_ —
        /// queue_wait = dispatch time minus this.
        double enqueue_mono_s = 0.0;
        /// Payload scan time for this request (the decode stage).
        double decode_s = 0.0;
    };

    void loop();
    void accept_ready();
    void read_ready(Connection& connection);
    /// Returns false when the connection was closed (slow consumer,
    /// send failure) — the caller's reference is then dangling.
    bool ingest_payload(Connection& connection, const std::string& payload);
    void dispatch_batch();
    void flush(Connection& connection);
    /// Returns false when the connection was closed (see ingest_payload).
    bool enqueue_reply(Connection& connection, const std::string& response);
    void close_connection(std::uint64_t connection_id);
    /// Closes connections whose read/idle deadline has passed.
    void sweep_timeouts(double now_s);
    /// Earliest read/idle deadline the poll timeout must honor; +inf
    /// when there is none.
    double next_deadline_s() const;
    Connection* find_connection(std::uint64_t connection_id);
    void drain_and_close();
    ServerStatsSnapshot snapshot_locked() const
        CHRYSALIS_REQUIRES(stats_mutex_);

    ServerOptions options_;
    std::unique_ptr<runtime::ThreadPool> pool_;
    std::unique_ptr<ResponseCache> cache_;

    int listen_fd_ = -1;
    int wake_read_fd_ = -1;   ///< self-pipe: stop() wakes the poll loop
    int wake_write_fd_ = -1;
    int port_ = 0;

    std::thread io_thread_;
    Mutex stop_mutex_;  ///< serializes concurrent stop() calls
    std::atomic<bool> running_{false};
    std::atomic<bool> stop_requested_{false};

    // I/O-thread state (no locking needed).
    std::vector<Connection> connections_;
    std::deque<PendingRequest> pending_;
    std::uint64_t next_connection_id_ = 1;

    // Counters, shared with stats() callers.
    mutable Mutex stats_mutex_;
    ServerStatsSnapshot counters_ CHRYSALIS_GUARDED_BY(stats_mutex_);
    /// monotonic_seconds() at start()
    double start_time_s_ CHRYSALIS_GUARDED_BY(stats_mutex_) = 0.0;
    /// Always-on request-latency histogram backing the server_stats
    /// p50/p95/p99 summary (internally atomic — recorded on the I/O
    /// thread, read by stats() callers without stats_mutex_).
    obs::Histogram latency_hist_{obs::latency_bounds()};
};

}  // namespace chrysalis::serve

#endif  // CHRYSALIS_SERVE_SERVER_HPP
