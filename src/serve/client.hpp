/// \file
/// `chrysalis-serve-v1` client: connect, frame requests, read framed
/// replies. Used by `chrysalis_cli call`, the load-generator bench and
/// the protocol tests (which also use the raw send_bytes() escape
/// hatch to produce deliberately broken frames).
///
/// Every call makes exactly one attempt. The dial is a nonblocking
/// connect bounded by a timeout, and `recv_frame` enforces a single
/// wall-clock deadline across the *whole* frame — a server that
/// trickles one byte per poll interval cannot hold a request forever by
/// resetting a per-recv() timer.

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

/// TCP client. Movable (so benches can hold a vector of connections),
/// not copyable. Not thread-safe; one client per thread.
class Client
{
  public:
    Client() = default;
    ~Client();
    Client(Client&& other) noexcept;
    Client& operator=(Client&& other) noexcept;
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    /// Connects to host:port. \p timeout_s >= 0 sets both the dial
    /// timeout and the per-reply-frame deadline (0 = wait forever); the
    /// default -1 keeps them (5 s to dial, 30 s per reply frame until
    /// first set). Returns false on failure (fd left closed).
    bool connect(const std::string& host, int port,
                 double timeout_s = -1.0);

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
    /// wall-clock deadline across the whole frame (the per-reply
    /// timeout, however slowly the bytes trickle in). Returns false on
    /// EOF, deadline expiry or protocol corruption.
    bool recv_frame(std::string& payload);

    /// Builds a request payload: `"v"`, an auto-incremented `"id"`,
    /// `"type"`, then \p params in key-sorted order. Parameter values
    /// that parse fully as numbers are emitted bare, everything else as
    /// a JSON string — matching what the handlers accept either way.
    /// Names are escaped like values, so any name scans back intact.
    std::string build_request(const std::string& type,
                              const FlatJsonFields& params);

    /// send_frame(build_request(...)) + recv_frame + parse, in one
    /// call. Returns false on any transport failure and on a reply that
    /// does not parse or answers another id; protocol-level errors
    /// ("ok":0) still return true with response.ok == false.
    bool call(const std::string& type, const FlatJsonFields& params,
              Response& response);

    /// Sets the "id" the next build_request() will use.
    void set_next_id(std::uint64_t id) { next_id_ = id; }

  private:
    double connect_timeout_s_ = 5.0;   ///< bounds the nonblocking dial
    double request_timeout_s_ = 30.0;  ///< whole-reply-frame deadline
    int fd_ = -1;
    std::uint64_t next_id_ = 1;
    FrameDecoder decoder_;
};

/// Parses a reply payload into a Response. Returns false (and fills
/// response.error with kErrBadRequest semantics) when the payload is
/// not a flat JSON object.
bool parse_response(const std::string& payload, Response& response);

}  // namespace chrysalis::serve

#endif  // CHRYSALIS_SERVE_CLIENT_HPP
