#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace chrysalis::serve {
namespace {

void
set_nonblocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        fatal("serve: fcntl(O_NONBLOCK): ", errno_text(errno));
}

void
close_fd(int& fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

void
bump(const char* name, std::uint64_t delta = 1)
{
    if (obs::MetricsRegistry* registry = obs::metrics())
        registry->counter(name, obs::Stability::kVolatile).add(delta);
}

/// True for replies the server counts as errors ("ok":0). The flag is
/// always the first body field, right after the fixed "v"/"id" prefix.
bool
is_error_reply(const std::string& response)
{
    return response.find("\"ok\":0") != std::string::npos;
}

/// Records a traced request's stage spans (request + decode/queue_wait/
/// eval/encode children) into \p session. The stages are timed after
/// the fact, so the spans carry explicit monotonic_seconds() timestamps
/// instead of coming from ScopedSpan; they inherit the request's trace
/// context, which the caller has installed on this thread.
void
record_stage_spans(obs::TraceSession& session, double decode_s,
                   double enqueue_mono_s, double queue_wait_s,
                   double eval_start_s, double eval_end_s,
                   double encode_end_s)
{
    const double decode_start_s = enqueue_mono_s - decode_s;
    session.add_span("serve/request", decode_start_s,
                     encode_end_s - decode_start_s, 0);
    session.add_span("serve/decode", decode_start_s, decode_s, 1);
    session.add_span("serve/queue_wait", enqueue_mono_s, queue_wait_s, 1);
    session.add_span("serve/eval", eval_start_s, eval_end_s - eval_start_s,
                     1);
    session.add_span("serve/encode", eval_end_s, encode_end_s - eval_end_s,
                     1);
}

}  // namespace

void
ServerOptions::validate() const
{
    if (host.empty())
        fatal("serve: bind host must not be empty");
    if (port < 0 || port > 65535)
        fatal("serve: port ", port, " outside [0, 65535]");
    if (threads < 0)
        fatal("serve: threads must be >= 0 (0 = hardware threads)");
    if (max_connections < 1)
        fatal("serve: max_connections must be >= 1");
    if (max_inflight < 1)
        fatal("serve: max_inflight must be >= 1");
    if (queue_depth < 1)
        fatal("serve: queue_depth must be >= 1");
    if (batch_max < 1)
        fatal("serve: batch_max must be >= 1");
    if (!(drain_timeout_s > 0.0))
        fatal("serve: drain_timeout_s must be > 0");
    if (!(read_timeout_s >= 0.0) || !std::isfinite(read_timeout_s))
        fatal("serve: read_timeout_s must be finite and >= 0 "
              "(0 disables the slow-loris defense)");
    if (!(idle_timeout_s >= 0.0) || !std::isfinite(idle_timeout_s))
        fatal("serve: idle_timeout_s must be finite and >= 0 "
              "(0 disables idle reaping)");
    if (max_write_buffer_bytes < kMaxFrameBytes + kLengthPrefixBytes)
        fatal("serve: max_write_buffer_bytes must hold at least one "
              "maximum-size reply frame (",
              kMaxFrameBytes + kLengthPrefixBytes, " bytes)");
}

Server::Server(ServerOptions options) : options_(std::move(options))
{
    options_.validate();
}

Server::~Server()
{
    stop();
    close_fd(listen_fd_);
    close_fd(wake_read_fd_);
    close_fd(wake_write_fd_);
}

void
Server::start()
{
    if (running_.load())
        fatal("serve: start() called on a running server");

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        fatal("serve: socket(): ", errno_text(errno));
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &address.sin_addr) != 1)
        fatal("serve: invalid bind address \"", options_.host, "\"");
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
               sizeof address) != 0)
        fatal("serve: cannot bind ", options_.host, ":", options_.port,
              ": ", errno_text(errno));
    if (::listen(listen_fd_, 128) != 0)
        fatal("serve: listen(): ", errno_text(errno));
    socklen_t length = sizeof address;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                      &length) != 0)
        fatal("serve: getsockname(): ", errno_text(errno));
    port_ = static_cast<int>(ntohs(address.sin_port));
    set_nonblocking(listen_fd_);

    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) != 0)
        fatal("serve: pipe(): ", errno_text(errno));
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];
    set_nonblocking(wake_read_fd_);
    set_nonblocking(wake_write_fd_);

    pool_ = std::make_unique<runtime::ThreadPool>(options_.threads);
    if (options_.cache_capacity > 0)
        cache_ = std::make_unique<ResponseCache>(options_.cache_capacity);
    std::string worker_id = options_.worker_id;
    if (worker_id.empty()) {
        // Default identity: "<hostname>:<port>" — resolvable only now
        // that the kernel has assigned the listening port.
        char hostname[256] = "localhost";
        if (::gethostname(hostname, sizeof hostname) != 0)
            std::snprintf(hostname, sizeof hostname, "localhost");
        hostname[sizeof hostname - 1] = '\0';
        worker_id = std::string(hostname) + ":" + std::to_string(port_);
    }
    {
        MutexLock lock(stats_mutex_);
        counters_.threads = pool_->thread_count();
        counters_.worker_id = worker_id;
        start_time_s_ = obs::monotonic_seconds();
    }

    stop_requested_.store(false);
    running_.store(true);
    io_thread_ = std::thread([this] { loop(); });
}

void
Server::stop()
{
    MutexLock lock(stop_mutex_);
    if (!io_thread_.joinable())
        return;
    stop_requested_.store(true);
    const char byte = 1;
    // The self-pipe is the only wakeup the blocked poll() needs; a full
    // pipe already guarantees a pending wakeup, so the result is moot.
    [[maybe_unused]] const ssize_t n =
        ::write(wake_write_fd_, &byte, 1);
    io_thread_.join();
    running_.store(false);
}

ServerStatsSnapshot
Server::stats() const
{
    MutexLock lock(stats_mutex_);
    return snapshot_locked();
}

ServerStatsSnapshot
Server::snapshot_locked() const
{
    ServerStatsSnapshot snapshot = counters_;
    snapshot.draining = stop_requested_.load() && running_.load();
    if (start_time_s_ > 0.0)
        snapshot.uptime_seconds = obs::monotonic_seconds() - start_time_s_;
    if (cache_ != nullptr)
        snapshot.cache = cache_->stats();
    // The latency histogram is internally atomic (not guarded by
    // stats_mutex_); quantiles resolve to bucket upper edges.
    snapshot.latency_count = latency_hist_.count();
    const std::vector<std::uint64_t> latency_counts =
        latency_hist_.bucket_counts();
    snapshot.latency_p50_s = obs::histogram_quantile(
        latency_hist_.bounds(), latency_counts, 0.50);
    snapshot.latency_p95_s = obs::histogram_quantile(
        latency_hist_.bounds(), latency_counts, 0.95);
    snapshot.latency_p99_s = obs::histogram_quantile(
        latency_hist_.bounds(), latency_counts, 0.99);
    return snapshot;
}

// ---- I/O thread ----------------------------------------------------------

void
Server::loop()
{
    while (!stop_requested_.load()) {
        const double now_s = obs::monotonic_seconds();
        std::vector<pollfd> fds;
        fds.push_back({wake_read_fd_, POLLIN, 0});
        const bool accepting = static_cast<int>(connections_.size()) <
                               options_.max_connections;
        const std::size_t listen_index = fds.size();
        if (accepting)
            fds.push_back({listen_fd_, POLLIN, 0});
        const std::size_t connection_base = fds.size();
        std::vector<std::uint64_t> ids;
        ids.reserve(connections_.size());
        for (const Connection& connection : connections_) {
            short events = POLLIN;
            if (connection.out_offset < connection.out.size())
                events |= POLLOUT;
            fds.push_back({connection.fd, events, 0});
            ids.push_back(connection.id);
        }

        int timeout_ms = pending_.empty() ? -1 : 0;
        if (timeout_ms != 0) {
            const double deadline_s = next_deadline_s();
            if (std::isfinite(deadline_s)) {
                const double wait_s = std::max(0.0, deadline_s - now_s);
                // Round up so we never wake a hair before the deadline
                // and busy-loop on a not-yet-expired timer.
                timeout_ms = static_cast<int>(
                                 std::min(wait_s * 1000.0, 60000.0)) +
                             1;
            }
        }
        const int ready = ::poll(fds.data(),
                                 static_cast<nfds_t>(fds.size()),
                                 timeout_ms);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: poll(): ", errno_text(errno));
            break;
        }

        if ((fds[0].revents & POLLIN) != 0) {
            char drain[64];
            while (true) {
                const ssize_t got =
                    ::read(wake_read_fd_, drain, sizeof drain);
                if (got > 0 || (got < 0 && errno == EINTR))
                    continue;
                break;
            }
        }
        if (accepting && (fds[listen_index].revents & POLLIN) != 0)
            accept_ready();

        for (std::size_t i = 0; i < ids.size(); ++i) {
            const pollfd& entry = fds[connection_base + i];
            Connection* connection = find_connection(ids[i]);
            if (connection == nullptr)
                continue;
            if ((entry.revents & POLLNVAL) != 0 ||
                (entry.revents & POLLERR) != 0) {
                close_connection(ids[i]);
                continue;
            }
            // Read before honoring POLLHUP: a closed peer may still
            // have queued bytes we must consume (recv() returning 0 is
            // the real EOF signal).
            if ((entry.revents & POLLIN) != 0)
                read_ready(*connection);
            connection = find_connection(ids[i]);
            if (connection == nullptr)
                continue;
            if ((entry.revents & POLLOUT) != 0)
                flush(*connection);
            connection = find_connection(ids[i]);
            if (connection == nullptr)
                continue;
            if ((entry.revents & POLLHUP) != 0 &&
                (entry.revents & POLLIN) == 0)
                close_connection(ids[i]);
        }

        sweep_timeouts(obs::monotonic_seconds());

        if (!pending_.empty())
            dispatch_batch();
    }
    drain_and_close();
}

double
Server::next_deadline_s() const
{
    double next_s = std::numeric_limits<double>::infinity();
    for (const Connection& connection : connections_) {
        if (options_.read_timeout_s > 0.0 &&
            connection.decoder.buffered_bytes() > 0)
            next_s = std::min(next_s, connection.last_activity_s +
                                          options_.read_timeout_s);
        else if (options_.idle_timeout_s > 0.0 &&
                 connection.queued == 0 &&
                 connection.out_offset >= connection.out.size())
            next_s = std::min(next_s, connection.last_activity_s +
                                          options_.idle_timeout_s);
    }
    return next_s;
}

void
Server::sweep_timeouts(double now_s)
{
    std::vector<std::uint64_t> expired_read;
    std::vector<std::uint64_t> expired_idle;
    for (const Connection& connection : connections_) {
        // A partial frame sitting in the decoder means the peer owes us
        // bytes: that is the slow-loris signature. A connection with no
        // buffered traffic in either direction is merely idle.
        if (options_.read_timeout_s > 0.0 &&
            connection.decoder.buffered_bytes() > 0) {
            if (now_s - connection.last_activity_s >=
                options_.read_timeout_s)
                expired_read.push_back(connection.id);
        } else if (options_.idle_timeout_s > 0.0 &&
                   connection.queued == 0 &&
                   connection.out_offset >= connection.out.size() &&
                   now_s - connection.last_activity_s >=
                       options_.idle_timeout_s) {
            expired_idle.push_back(connection.id);
        }
    }
    for (const std::uint64_t connection_id : expired_read) {
        close_connection(connection_id);
        {
            MutexLock lock(stats_mutex_);
            ++counters_.timeouts_read;
        }
        bump("serve/timeouts_read");
    }
    for (const std::uint64_t connection_id : expired_idle) {
        close_connection(connection_id);
        {
            MutexLock lock(stats_mutex_);
            ++counters_.timeouts_idle;
        }
        bump("serve/timeouts_idle");
    }
}

void
Server::accept_ready()
{
    while (static_cast<int>(connections_.size()) <
           options_.max_connections) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            // EAGAIN: accepted everything pending. Other errors
            // (aborted handshakes, fd pressure) drop this attempt but
            // never the listener.
            return;
        }
        set_nonblocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        Connection connection;
        connection.fd = fd;
        connection.id = next_connection_id_++;
        connection.last_activity_s = obs::monotonic_seconds();
        connections_.push_back(std::move(connection));
        {
            MutexLock lock(stats_mutex_);
            ++counters_.connections_total;
            ++counters_.connections_open;
        }
        bump("serve/connections");
    }
}

void
Server::read_ready(Connection& connection)
{
    char buffer[4096];
    while (true) {
        const ssize_t received =
            ::recv(connection.fd, buffer, sizeof buffer, 0);
        if (received > 0) {
            connection.last_activity_s = obs::monotonic_seconds();
            OBS_SPAN("serve/decode");
            connection.decoder.feed(
                buffer, static_cast<std::size_t>(received));
            std::string payload;
            while (true) {
                const FrameDecoder::Status status =
                    connection.decoder.next(payload);
                if (status == FrameDecoder::Status::kNeedMore)
                    break;
                if (status == FrameDecoder::Status::kOversized) {
                    // The stream cannot be resynchronized past a frame
                    // that was never buffered: reply, then close once
                    // the reply (and any queued ones) is flushed.
                    if (enqueue_reply(
                            connection,
                            error_response(
                                0, kErrBadFrame,
                                "announced frame length " +
                                    std::to_string(
                                        connection.decoder
                                            .oversized_length()) +
                                    " exceeds the " +
                                    std::to_string(kMaxFrameBytes) +
                                    "-byte limit"))) {
                        connection.closing = true;
                        ::shutdown(connection.fd, SHUT_RD);
                    }
                    return;
                }
                if (!ingest_payload(connection, payload))
                    return;  // connection closed; reference dangling
                if (connection.closing)
                    return;
            }
            continue;
        }
        if (received == 0) {
            // EOF: the peer finished sending (possibly shutdown(WR))
            // but may still be reading; finish queued replies first.
            connection.closing = true;
            if (connection.queued == 0 &&
                connection.out_offset >= connection.out.size())
                close_connection(connection.id);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        if (errno == EINTR)
            continue;
        close_connection(connection.id);
        return;
    }
}

bool
Server::ingest_payload(Connection& connection, const std::string& payload)
{
    const double ingest_start_s = obs::monotonic_seconds();
    FlatJsonFields fields;
    if (!scan_flat_json(payload, fields)) {
        // Malformed payload inside a well-delimited frame: the stream
        // is still in sync, so answer and keep the connection.
        return enqueue_reply(
            connection,
            error_response(0, kErrBadRequest,
                           "payload is not a flat JSON object"));
    }
    const std::uint64_t id = request_id(fields);
    if (static_cast<int>(pending_.size()) >= options_.max_inflight ||
        connection.queued >= options_.queue_depth) {
        {
            MutexLock lock(stats_mutex_);
            ++counters_.overload_rejections;
        }
        bump("serve/overloaded");
        return enqueue_reply(
            connection,
            error_response(id, kErrOverloaded,
                           "server queue is full; retry after replies "
                           "drain"));
    }

    PendingRequest request;
    request.connection_id = connection.id;
    request.id = id;
    std::string type;
    json_get_string(fields, "type", type);
    request.type = type;
    // A client's trace context rides along as an optional field; a
    // malformed value is ignored (tracing must never fail a request).
    std::string trace_field;
    if (json_get_string(fields, "trace", trace_field))
        obs::parse_trace_field(trace_field, request.trace_ctx);
    request.fields = std::move(fields);
    request.timer = std::make_unique<obs::SpanTimer>("serve/request");
    request.enqueue_mono_s = obs::monotonic_seconds();
    request.decode_s = request.enqueue_mono_s - ingest_start_s;
    {
        MutexLock lock(stats_mutex_);
        ++counters_.requests_total;
        if (type == "eval_design_point")
            ++counters_.requests_eval_design_point;
        else if (type == "eval_mapping")
            ++counters_.requests_eval_mapping;
        else if (type == "sim_step")
            ++counters_.requests_sim_step;
        else if (type == "server_stats")
            ++counters_.requests_server_stats;
        else if (type == "health")
            ++counters_.requests_health;
    }
    bump("serve/requests");
    pending_.push_back(std::move(request));
    ++connection.queued;
    return true;
}

void
Server::dispatch_batch()
{
    const std::size_t count =
        std::min(pending_.size(),
                 static_cast<std::size_t>(options_.batch_max));
    std::vector<PendingRequest> batch;
    batch.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        batch.push_back(std::move(pending_.front()));
        pending_.pop_front();
    }

    ServerStatsSnapshot snapshot;
    {
        MutexLock lock(stats_mutex_);
        ++counters_.batches;
        counters_.max_batch =
            std::max(counters_.max_batch,
                     static_cast<std::uint64_t>(count));
        counters_.pending =
            static_cast<std::uint64_t>(pending_.size());
        snapshot = snapshot_locked();
    }
    bump("serve/batches");
    if (obs::MetricsRegistry* registry = obs::metrics())
        registry->gauge("serve/queue_depth", obs::Stability::kVolatile)
            .set(static_cast<double>(pending_.size()));

    obs::TraceSession* const trace_session = obs::trace();
    const double dispatch_start_s = obs::monotonic_seconds();

    std::vector<std::string> responses;
    {
        OBS_SPAN("serve/eval_batch");
        responses = pool_->parallel_map(count, [&](std::size_t i) {
            PendingRequest& request = batch[i];
            if (!request.trace_ctx.active()) {
                return finish_response(
                    request.id,
                    handle_request_body(request.fields, cache_.get(),
                                        snapshot));
            }
            // Traced request: install the caller's context (spans
            // recorded by the handler inherit it), measure each stage
            // and splice the timings into the reply — after the memo,
            // so cached bytes stay timing-free.
            obs::ScopedTraceContext context(request.trace_ctx);
            const double queue_wait_s =
                dispatch_start_s - request.enqueue_mono_s;
            const double eval_start_s = obs::monotonic_seconds();
            const std::string body = handle_request_body(
                request.fields, cache_.get(), snapshot);
            const double eval_end_s = obs::monotonic_seconds();
            std::string response = finish_response(request.id, body);
            const double encode_end_s = obs::monotonic_seconds();
            append_timing_fields(response, queue_wait_s,
                                 request.decode_s,
                                 eval_end_s - eval_start_s,
                                 encode_end_s - eval_end_s);
            if (trace_session != nullptr)
                record_stage_spans(*trace_session, request.decode_s,
                                   request.enqueue_mono_s, queue_wait_s,
                                   eval_start_s, eval_end_s,
                                   encode_end_s);
            return response;
        });
    }

    for (std::size_t i = 0; i < count; ++i) {
        const double latency_s = batch[i].timer->elapsed_s();
        latency_hist_.record(latency_s);
        if (obs::MetricsRegistry* registry = obs::metrics())
            registry
                ->histogram("serve/request_latency_s",
                            obs::latency_bounds(),
                            obs::Stability::kVolatile)
                .record(latency_s);
        {
            // The released span inherits the request's trace context.
            obs::ScopedTraceContext context(batch[i].trace_ctx);
            batch[i].timer.reset();  // records the trace span
        }
        Connection* connection =
            find_connection(batch[i].connection_id);
        if (connection == nullptr)
            continue;  // client disconnected mid-request: drop reply
        --connection->queued;
        enqueue_reply(*connection, responses[i]);
    }
}

bool
Server::enqueue_reply(Connection& connection, const std::string& response)
{
    {
        OBS_SPAN("serve/encode");
        connection.out += encode_frame(response);
    }
    if (is_error_reply(response)) {
        MutexLock lock(stats_mutex_);
        ++counters_.errors_total;
        bump("serve/errors");
    }
    if (connection.out.size() - connection.out_offset >
        options_.max_write_buffer_bytes) {
        // Slow-consumer defense: the peer keeps asking but stopped
        // reading; drop it rather than buffer replies without bound.
        const std::uint64_t connection_id = connection.id;
        close_connection(connection_id);
        {
            MutexLock lock(stats_mutex_);
            ++counters_.slow_consumer_closes;
        }
        bump("serve/slow_consumer_closes");
        return false;
    }
    const std::uint64_t connection_id = connection.id;
    flush(connection);
    return find_connection(connection_id) != nullptr;
}

void
Server::flush(Connection& connection)
{
    while (connection.out_offset < connection.out.size()) {
        const ssize_t sent = ::send(
            connection.fd, connection.out.data() + connection.out_offset,
            connection.out.size() - connection.out_offset, MSG_NOSIGNAL);
        if (sent > 0) {
            connection.out_offset += static_cast<std::size_t>(sent);
            connection.last_activity_s = obs::monotonic_seconds();
            continue;
        }
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;  // poll() will report POLLOUT
        if (sent < 0 && errno == EINTR)
            continue;
        close_connection(connection.id);
        return;
    }
    connection.out.clear();
    connection.out_offset = 0;
    if (connection.closing && connection.queued == 0)
        close_connection(connection.id);
}

void
Server::close_connection(std::uint64_t connection_id)
{
    for (std::size_t i = 0; i < connections_.size(); ++i) {
        if (connections_[i].id != connection_id)
            continue;
        ::close(connections_[i].fd);
        connections_.erase(
            connections_.begin() + static_cast<std::ptrdiff_t>(i));
        MutexLock lock(stats_mutex_);
        --counters_.connections_open;
        return;
    }
}

void
Server::drain_and_close()
{
    // Evaluate everything already admitted; new reads stopped with the
    // loop, so the queue only shrinks.
    while (!pending_.empty())
        dispatch_batch();

    // Flush outstanding replies, bounded by the drain timeout.
    obs::SpanTimer deadline("serve/drain");
    while (deadline.elapsed_s() < options_.drain_timeout_s) {
        std::vector<pollfd> fds;
        std::vector<std::uint64_t> ids;
        for (const Connection& connection : connections_) {
            if (connection.out_offset < connection.out.size()) {
                fds.push_back({connection.fd, POLLOUT, 0});
                ids.push_back(connection.id);
            }
        }
        if (fds.empty())
            break;
        const int ready = ::poll(fds.data(),
                                 static_cast<nfds_t>(fds.size()), 50);
        if (ready < 0 && errno != EINTR)
            break;
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if ((fds[i].revents &
                 (POLLOUT | POLLERR | POLLHUP | POLLNVAL)) == 0)
                continue;
            if ((fds[i].revents & POLLOUT) != 0) {
                if (Connection* connection = find_connection(ids[i]))
                    flush(*connection);
            } else {
                close_connection(ids[i]);
            }
        }
    }

    for (const Connection& connection : connections_)
        ::close(connection.fd);
    connections_.clear();
    MutexLock lock(stats_mutex_);
    counters_.connections_open = 0;
}

Server::Connection*
Server::find_connection(std::uint64_t connection_id)
{
    for (Connection& connection : connections_) {
        if (connection.id == connection_id)
            return &connection;
    }
    return nullptr;
}

}  // namespace chrysalis::serve
