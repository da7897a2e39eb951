/// \file
/// Wire format of `chrysalis-serve-v1`: length-prefixed flat-JSON frames.
///
/// Every message — request or response — is one flat JSON object (see
/// common/flat_json.hpp) preceded by a 4-byte big-endian payload length.
/// The fixed prefix makes framing trivial to implement in any language
/// and lets the server reject oversized frames *before* buffering them:
/// a length above kMaxFrameBytes is answered with a `bad_frame` error
/// and the connection is closed, since the byte stream beyond a refused
/// frame cannot be resynchronized.
///
/// Requests carry `"v"` (protocol version), `"id"` (client-chosen echo
/// token) and `"type"`; responses echo `"v"` and `"id"` and carry
/// `"ok":1` plus result fields, or `"ok":0` plus `"error"` (a stable
/// code from the kErr* constants) and `"detail"`. docs/serving.md has
/// the full field tables.

#ifndef CHRYSALIS_SERVE_PROTOCOL_HPP
#define CHRYSALIS_SERVE_PROTOCOL_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace chrysalis::serve {

/// Version token every request and response carries in "v".
inline constexpr const char* kProtocolVersion = "chrysalis-serve-v1";

/// Bytes of the big-endian length prefix.
inline constexpr std::size_t kLengthPrefixBytes = 4;

/// Maximum payload bytes in one frame. Far above any legitimate
/// request; a larger announced length is a protocol violation.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

// Stable error codes ("error" field of an "ok":0 response).
inline constexpr const char* kErrBadFrame = "bad_frame";
inline constexpr const char* kErrBadRequest = "bad_request";
inline constexpr const char* kErrBadVersion = "bad_version";
inline constexpr const char* kErrUnknownType = "unknown_type";
inline constexpr const char* kErrOverloaded = "overloaded";

/// Frames \p payload: 4-byte big-endian length followed by the bytes.
/// fatal() when the payload exceeds kMaxFrameBytes (an internal caller
/// bug — handlers never build responses that large).
std::string encode_frame(std::string_view payload);

/// Incremental deframer for one byte stream. Feed whatever recv()
/// produced; pop complete payloads with next(). An oversized announced
/// length is sticky: the stream cannot be resynchronized past a frame
/// that was never buffered, so the connection must be torn down after
/// the error reply.
class FrameDecoder
{
  public:
    enum class Status {
        kNeedMore,   ///< no complete frame buffered yet
        kFrame,      ///< one payload extracted into the out-param
        kOversized,  ///< announced length exceeds kMaxFrameBytes
    };

    /// Appends raw received bytes to the reassembly buffer.
    void feed(const char* data, std::size_t size);

    /// Extracts the next complete payload, if any.
    Status next(std::string& payload);

    /// Announced length that tripped kOversized (0 before that).
    std::size_t oversized_length() const { return oversized_length_; }

    /// Bytes currently buffered awaiting a complete frame.
    std::size_t buffered_bytes() const { return buffer_.size(); }

  private:
    std::string buffer_;
    std::size_t oversized_length_ = 0;
};

}  // namespace chrysalis::serve

#endif  // CHRYSALIS_SERVE_PROTOCOL_HPP
