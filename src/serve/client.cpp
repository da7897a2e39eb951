#include "serve/client.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
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
#include "obs/trace.hpp"
#include "serve/handlers.hpp"

namespace chrysalis::serve {
namespace {

/// True when \p text is entirely one JSON-compatible number.
bool
is_bare_number(const std::string& text)
{
    if (text.empty())
        return false;
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    return end != text.c_str() && *end == '\0' && errno == 0 &&
           std::isfinite(value);
}

void
bump(const char* name, std::uint64_t delta = 1)
{
    if (obs::MetricsRegistry* registry = obs::metrics())
        registry->counter(name, obs::Stability::kVolatile).add(delta);
}

void
record_latency(const char* name, double value_s)
{
    if (obs::MetricsRegistry* registry = obs::metrics())
        registry
            ->histogram(name, obs::latency_bounds(),
                        obs::Stability::kVolatile)
            .record(value_s);
}

/// splitmix64 finalizer — the same bit mixer the fault injectors use.
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Deterministic uniform double in [0, 1) keyed by (seed, id, attempt).
double
jitter01(std::uint64_t seed, std::uint64_t request_id,
         std::uint64_t attempt)
{
    const std::uint64_t word =
        mix64(seed + mix64(request_id * 0x9e3779b97f4a7c15ULL) +
              mix64(attempt + 0x6a09e667f3bcc909ULL));
    return static_cast<double>(word >> 11) * 0x1.0p-53;
}

/// Absolute obs::monotonic_seconds() deadline; +inf when unbounded.
double
deadline_after(double timeout_s)
{
    if (timeout_s <= 0.0)
        return std::numeric_limits<double>::infinity();
    return obs::monotonic_seconds() + timeout_s;
}

/// Millisecond poll timeout that never wakes before \p deadline_s
/// (rounded up), clamped so int stays sane; -1 when unbounded.
int
poll_timeout_ms(double now_s, double deadline_s)
{
    if (!std::isfinite(deadline_s))
        return -1;
    const double wait_s = std::max(0.0, deadline_s - now_s);
    return static_cast<int>(std::min(wait_s * 1000.0, 60000.0)) + 1;
}

bool
set_blocking(int fd, bool blocking)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        return false;
    const int wanted =
        blocking ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK);
    return ::fcntl(fd, F_SETFL, wanted) >= 0;
}

}  // namespace

const char*
to_string(CallStatus status)
{
    switch (status) {
      case CallStatus::kOk:
        return "ok";
      case CallStatus::kTransportError:
        return "transport_error";
      case CallStatus::kTimeout:
        return "timeout";
      case CallStatus::kProtocolError:
        return "protocol_error";
      case CallStatus::kCircuitOpen:
        return "circuit_open";
    }
    return "unknown";
}

void
ClientOptions::validate() const
{
    if (!(connect_timeout_s >= 0.0) || !std::isfinite(connect_timeout_s))
        fatal("serve: client connect_timeout_s must be finite and >= 0");
    if (!(request_timeout_s >= 0.0) || !std::isfinite(request_timeout_s))
        fatal("serve: client request_timeout_s must be finite and >= 0 "
              "(0 waits forever)");
    if (max_attempts < 1)
        fatal("serve: client max_attempts must be >= 1");
    if (!(backoff_base_s >= 0.0) || !std::isfinite(backoff_base_s))
        fatal("serve: client backoff_base_s must be finite and >= 0");
    if (!(backoff_max_s >= backoff_base_s) ||
        !std::isfinite(backoff_max_s))
        fatal("serve: client backoff_max_s must be finite and >= "
              "backoff_base_s");
    if (circuit_breaker_threshold < 0)
        fatal("serve: client circuit_breaker_threshold must be >= 0 "
              "(0 disables the breaker)");
    if (!(circuit_breaker_cooldown_s >= 0.0) ||
        !std::isfinite(circuit_breaker_cooldown_s))
        fatal("serve: client circuit_breaker_cooldown_s must be finite "
              "and >= 0");
}

Client::Client(ClientOptions options) : options_(std::move(options))
{
    options_.validate();
}

Client::~Client()
{
    close();
}

Client::Client(Client&& other) noexcept
    : options_(std::move(other.options_)),
      fd_(other.fd_),
      next_id_(other.next_id_),
      decoder_(std::move(other.decoder_)),
      host_(std::move(other.host_)),
      port_(other.port_),
      stats_(other.stats_),
      consecutive_failures_(other.consecutive_failures_),
      circuit_open_(other.circuit_open_),
      circuit_open_until_s_(other.circuit_open_until_s_)
{
    other.fd_ = -1;
}

Client&
Client::operator=(Client&& other) noexcept
{
    if (this != &other) {
        close();
        options_ = std::move(other.options_);
        fd_ = other.fd_;
        next_id_ = other.next_id_;
        decoder_ = std::move(other.decoder_);
        host_ = std::move(other.host_);
        port_ = other.port_;
        stats_ = other.stats_;
        consecutive_failures_ = other.consecutive_failures_;
        circuit_open_ = other.circuit_open_;
        circuit_open_until_s_ = other.circuit_open_until_s_;
        other.fd_ = -1;
    }
    return *this;
}

bool
Client::connect(const std::string& host, int port, double timeout_s)
{
    if (timeout_s >= 0.0) {
        // Back-compat: the old single timeout parameter bounds both the
        // dial and each request (0 = wait forever).
        options_.connect_timeout_s = timeout_s;
        options_.request_timeout_s = timeout_s;
    }
    host_ = host;
    port_ = port;
    return dial();
}

bool
Client::dial()
{
    close();
    if (host_.empty())
        return false;
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return false;

    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<std::uint16_t>(port_));
    if (::inet_pton(AF_INET, host_.c_str(), &address.sin_addr) != 1) {
        close();
        return false;
    }
    if (!set_blocking(fd_, false)) {
        close();
        return false;
    }
    const int rc = ::connect(
        fd_, reinterpret_cast<const sockaddr*>(&address), sizeof address);
    // EINTR on a nonblocking connect means the handshake continues
    // asynchronously — exactly like EINPROGRESS.
    if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
        close();
        return false;
    }
    if (rc != 0) {
        const double deadline_s = deadline_after(options_.connect_timeout_s);
        while (true) {
            const double now_s = obs::monotonic_seconds();
            if (now_s >= deadline_s) {
                close();
                return false;  // connect timeout
            }
            pollfd waiter{fd_, POLLOUT, 0};
            const int ready =
                ::poll(&waiter, 1, poll_timeout_ms(now_s, deadline_s));
            if (ready < 0) {
                if (errno == EINTR)
                    continue;
                close();
                return false;
            }
            if (ready == 0)
                continue;  // recheck the deadline
            break;
        }
        int error = 0;
        socklen_t length = sizeof error;
        if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &error, &length) !=
                0 ||
            error != 0) {
            close();
            return false;  // refused, reset or unreachable
        }
    }
    if (!set_blocking(fd_, true)) {
        close();
        return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return true;
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    decoder_ = FrameDecoder();
}

void
Client::shutdown_write()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_WR);
}

bool
Client::send_bytes(const void* data, std::size_t size)
{
    const char* bytes = static_cast<const char*>(data);
    std::size_t sent_total = 0;
    while (sent_total < size) {
        const ssize_t sent = ::send(fd_, bytes + sent_total,
                                    size - sent_total, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent_total += static_cast<std::size_t>(sent);
    }
    return true;
}

bool
Client::send_frame(const std::string& payload)
{
    const std::string frame = encode_frame(payload);
    return send_bytes(frame.data(), frame.size());
}

bool
Client::recv_frame(std::string& payload)
{
    return recv_frame_until(payload,
                            deadline_after(options_.request_timeout_s)) ==
           RecvOutcome::kFrame;
}

Client::RecvOutcome
Client::recv_frame_until(std::string& payload, double deadline_s)
{
    while (true) {
        switch (decoder_.next(payload)) {
          case FrameDecoder::Status::kFrame:
            return RecvOutcome::kFrame;
          case FrameDecoder::Status::kOversized:
            return RecvOutcome::kCorrupt;
          case FrameDecoder::Status::kNeedMore:
            break;
        }
        // One wall-clock deadline across the whole frame: a server
        // trickling single bytes cannot reset it the way a per-recv()
        // timer (SO_RCVTIMEO) would be reset by every byte.
        const double now_s = obs::monotonic_seconds();
        if (now_s >= deadline_s)
            return RecvOutcome::kTimeout;
        pollfd waiter{fd_, POLLIN, 0};
        const int ready =
            ::poll(&waiter, 1, poll_timeout_ms(now_s, deadline_s));
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return RecvOutcome::kClosed;
        }
        if (ready == 0)
            continue;  // recheck the deadline
        char buffer[4096];
        const ssize_t received = ::recv(fd_, buffer, sizeof buffer, 0);
        if (received > 0) {
            decoder_.feed(buffer, static_cast<std::size_t>(received));
            continue;
        }
        if (received < 0 &&
            (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
            continue;
        return RecvOutcome::kClosed;  // EOF, reset or hard error
    }
}

std::string
Client::build_request(const std::string& type,
                      const FlatJsonFields& params)
{
    std::string payload = "{";
    json_append_field(payload, "v", kProtocolVersion);
    json_append_raw_field(payload, "id", std::to_string(next_id_++));
    json_append_field(payload, "type", type);
    for (const auto& [key, value] : params) {
        if (key == "v" || key == "id" || key == "type")
            continue;
        if (is_bare_number(value))
            json_append_raw_field(payload, key.c_str(), value);
        else
            json_append_field(payload, key.c_str(), value);
    }
    payload += '}';
    return payload;
}

bool
Client::call(const std::string& type, const FlatJsonFields& params,
             Response& response)
{
    if (!send_frame(build_request(type, params)))
        return false;
    std::string payload;
    if (!recv_frame(payload))
        return false;
    return parse_response(payload, response);
}

CallStatus
Client::request(const std::string& type, const FlatJsonFields& params,
                Response& response)
{
    if (options_.circuit_breaker_threshold > 0 && circuit_open_) {
        if (obs::monotonic_seconds() < circuit_open_until_s_) {
            ++stats_.circuit_open_rejections;
            bump("serve/client/circuit_open_rejections");
            return CallStatus::kCircuitOpen;
        }
        // Cooldown elapsed: this request is the half-open probe. On
        // success the breaker closes; on failure it re-arms.
    }

    // Build once so every attempt resends the exact same bytes — the
    // id must not advance between retries, both for idempotence (one
    // memo key) and so the reply can be matched to this request.
    const std::string payload = build_request(type, params);
    const std::uint64_t request_id = next_id_ - 1;
    const bool retryable = response_is_memoized(type);
    const int max_attempts = retryable ? options_.max_attempts : 1;

    CallStatus status = CallStatus::kTransportError;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        ++stats_.attempts;
        if (attempt > 1) {
            ++stats_.retries;
            bump("serve/client/retries");
            sleep_backoff(request_id, attempt);
        }
        status = attempt_once(payload, request_id, response);
        if (status == CallStatus::kOk) {
            if (!response.ok && retryable && attempt < max_attempts &&
                (response.error == kErrOverloaded ||
                 response.error == kErrShuttingDown)) {
                // The server explicitly asked us to back off; the
                // stream is still in sync, so keep the connection.
                continue;
            }
            consecutive_failures_ = 0;
            circuit_open_ = false;
            return CallStatus::kOk;
        }
        // A failed attempt poisons the stream (a late reply could be
        // mis-associated with the next request): drop the connection
        // and let the next attempt redial.
        close();
    }
    record_failure(status);
    return status;
}

CallStatus
Client::attempt_once(const std::string& payload,
                     std::uint64_t request_id, Response& response)
{
    const double deadline_s = deadline_after(options_.request_timeout_s);
    if (!connected()) {
        const double dial_start_s = obs::monotonic_seconds();
        if (!dial()) {
            ++stats_.transport_errors;
            bump("serve/client/transport_errors");
            return CallStatus::kTransportError;
        }
        ++stats_.reconnects;
        bump("serve/client/reconnects");
        record_latency("serve/client/reconnect_s",
                       obs::monotonic_seconds() - dial_start_s);
    }
    if (!send_frame(payload)) {
        ++stats_.transport_errors;
        bump("serve/client/transport_errors");
        return CallStatus::kTransportError;
    }
    std::string reply;
    switch (recv_frame_until(reply, deadline_s)) {
      case RecvOutcome::kFrame:
        break;
      case RecvOutcome::kTimeout:
        ++stats_.timeouts;
        bump("serve/client/timeouts");
        return CallStatus::kTimeout;
      case RecvOutcome::kClosed:
        ++stats_.transport_errors;
        bump("serve/client/transport_errors");
        return CallStatus::kTransportError;
      case RecvOutcome::kCorrupt:
        ++stats_.protocol_errors;
        bump("serve/client/protocol_errors");
        return CallStatus::kProtocolError;
    }
    if (!parse_response(reply, response) || response.id != request_id) {
        ++stats_.protocol_errors;
        bump("serve/client/protocol_errors");
        return CallStatus::kProtocolError;
    }
    return CallStatus::kOk;
}

void
Client::record_failure(CallStatus status)
{
    (void)status;
    if (options_.circuit_breaker_threshold <= 0)
        return;
    ++consecutive_failures_;
    if (consecutive_failures_ >= options_.circuit_breaker_threshold) {
        if (!circuit_open_) {
            ++stats_.circuit_opens;
            bump("serve/client/circuit_opens");
        }
        circuit_open_ = true;
        circuit_open_until_s_ = obs::monotonic_seconds() +
                                options_.circuit_breaker_cooldown_s;
    }
}

void
Client::sleep_backoff(std::uint64_t request_id, int attempt)
{
    double backoff_s = options_.backoff_base_s;
    for (int doubling = 2; doubling < attempt; ++doubling)
        backoff_s = std::min(backoff_s * 2.0, options_.backoff_max_s);
    backoff_s = std::min(backoff_s, options_.backoff_max_s);
    // Deterministic jitter in [0.5, 1.0]: decorrelates clients that
    // failed together without sacrificing replayability.
    backoff_s *= 0.5 + 0.5 * jitter01(options_.retry_seed, request_id,
                                      static_cast<std::uint64_t>(attempt));
    record_latency("serve/client/backoff_s", backoff_s);
    if (backoff_s <= 0.0)
        return;
    const double until_s = obs::monotonic_seconds() + backoff_s;
    while (true) {
        const double now_s = obs::monotonic_seconds();
        if (now_s >= until_s)
            return;
        // poll() with no fds is the portable sub-second sleep that the
        // lint fence permits here (no <chrono> outside src/obs/).
        ::poll(nullptr, 0, poll_timeout_ms(now_s, until_s));
    }
}

bool
parse_response(const std::string& payload, Response& response)
{
    response = Response();
    response.raw = payload;
    if (!scan_flat_json(payload, response.fields))
        return false;
    std::uint64_t ok = 0;
    json_get_uint64(response.fields, "ok", ok);
    response.ok = ok != 0;
    json_get_uint64(response.fields, "id", response.id);
    json_get_string(response.fields, "error", response.error);
    json_get_string(response.fields, "detail", response.detail);
    return true;
}

}  // namespace chrysalis::serve
