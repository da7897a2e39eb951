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

#include "obs/trace.hpp"

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

Client::~Client()
{
    close();
}

Client::Client(Client&& other) noexcept
    : connect_timeout_s_(other.connect_timeout_s_),
      request_timeout_s_(other.request_timeout_s_),
      fd_(other.fd_),
      next_id_(other.next_id_),
      decoder_(std::move(other.decoder_))
{
    other.fd_ = -1;
}

Client&
Client::operator=(Client&& other) noexcept
{
    if (this != &other) {
        close();
        connect_timeout_s_ = other.connect_timeout_s_;
        request_timeout_s_ = other.request_timeout_s_;
        fd_ = other.fd_;
        next_id_ = other.next_id_;
        decoder_ = std::move(other.decoder_);
        other.fd_ = -1;
    }
    return *this;
}

bool
Client::connect(const std::string& host, int port, double timeout_s)
{
    if (timeout_s >= 0.0) {
        connect_timeout_s_ = timeout_s;
        request_timeout_s_ = timeout_s;
    }
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return false;

    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
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
        const double deadline_s = deadline_after(connect_timeout_s_);
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
    const double deadline_s = deadline_after(request_timeout_s_);
    while (true) {
        switch (decoder_.next(payload)) {
          case FrameDecoder::Status::kFrame:
            return true;
          case FrameDecoder::Status::kOversized:
            return false;
          case FrameDecoder::Status::kNeedMore:
            break;
        }
        // One wall-clock deadline across the whole frame: a server
        // trickling single bytes cannot reset it the way a per-recv()
        // timer (SO_RCVTIMEO) would be reset by every byte.
        const double now_s = obs::monotonic_seconds();
        if (now_s >= deadline_s)
            return false;
        pollfd waiter{fd_, POLLIN, 0};
        const int ready =
            ::poll(&waiter, 1, poll_timeout_ms(now_s, deadline_s));
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return false;
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
        return false;  // EOF, reset or hard error
    }
}

std::string
Client::build_request(const std::string& type,
                      const FlatJsonFields& params)
{
    std::string payload = "{";
    json_append_field(payload, "v", kProtocolVersion);
    json_append_uint64(payload, "id", next_id_++);
    json_append_field(payload, "type", type);
    for (const auto& [key, value] : params) {
        if (key == "v" || key == "id" || key == "type")
            continue;
        if (is_bare_number(value))
            json_append_raw_field(payload, key, value);
        else
            json_append_field(payload, key, value);
    }
    payload += '}';
    return payload;
}

bool
Client::call(const std::string& type, const FlatJsonFields& params,
             Response& response)
{
    const std::uint64_t id = next_id_;
    if (!send_frame(build_request(type, params)))
        return false;
    std::string payload;
    if (!recv_frame(payload))
        return false;
    return parse_response(payload, response) && response.id == id;
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
