// Wire-format and handler tests for chrysalis-serve-v1: frame
// encode/decode round-trips, truncated and oversized frames, and the
// pure request handlers — including the determinism and cache-key
// contracts the server's byte-identical-replies guarantee rests on.

#include "serve/handlers.hpp"
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/flat_json.hpp"

namespace {

using namespace chrysalis;
using serve::FrameDecoder;

std::string prefix_bytes(std::size_t length)
{
    std::string out(serve::kLengthPrefixBytes, '\0');
    out[0] = static_cast<char>((length >> 24) & 0xff);
    out[1] = static_cast<char>((length >> 16) & 0xff);
    out[2] = static_cast<char>((length >> 8) & 0xff);
    out[3] = static_cast<char>(length & 0xff);
    return out;
}

FlatJsonFields base_request(const std::string& type)
{
    FlatJsonFields fields;
    fields["v"] = serve::kProtocolVersion;
    fields["id"] = "7";
    fields["type"] = type;
    return fields;
}

TEST(FrameDecoder, RoundTripsOnePayload)
{
    const std::string payload = "{\"v\":\"x\",\"id\":1}";
    const std::string frame = serve::encode_frame(payload);
    ASSERT_EQ(frame.size(), serve::kLengthPrefixBytes + payload.size());

    FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    std::string out;
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kFrame);
    EXPECT_EQ(out, payload);
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kNeedMore);
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameDecoder, RoundTripsEmptyPayload)
{
    const std::string frame = serve::encode_frame("");
    FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    std::string out = "sentinel";
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kFrame);
    EXPECT_TRUE(out.empty());
}

TEST(FrameDecoder, TruncatedFrameWaitsByteByByte)
{
    const std::string frame = serve::encode_frame("{\"id\":2}");
    FrameDecoder decoder;
    std::string out;
    // Every prefix of the frame (including a torn length prefix) must
    // report kNeedMore; only the full frame yields the payload.
    for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
        decoder.feed(frame.data() + i, 1);
        EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kNeedMore)
            << "after byte " << i;
    }
    decoder.feed(frame.data() + frame.size() - 1, 1);
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kFrame);
    EXPECT_EQ(out, "{\"id\":2}");
}

TEST(FrameDecoder, ExtractsBackToBackFrames)
{
    const std::string both =
        serve::encode_frame("first") + serve::encode_frame("second");
    FrameDecoder decoder;
    decoder.feed(both.data(), both.size());
    std::string out;
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kFrame);
    EXPECT_EQ(out, "first");
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kFrame);
    EXPECT_EQ(out, "second");
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kNeedMore);
}

TEST(FrameDecoder, OversizedLengthIsSticky)
{
    const std::size_t huge = serve::kMaxFrameBytes + 1;
    const std::string prefix = prefix_bytes(huge);
    FrameDecoder decoder;
    decoder.feed(prefix.data(), prefix.size());
    std::string out;
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kOversized);
    EXPECT_EQ(decoder.oversized_length(), huge);
    // The stream cannot be resynchronized: even well-formed bytes fed
    // afterwards keep reporting kOversized.
    const std::string frame = serve::encode_frame("{}");
    decoder.feed(frame.data(), frame.size());
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kOversized);
}

TEST(FrameDecoder, MaxLengthFrameIsAccepted)
{
    const std::string payload(serve::kMaxFrameBytes, 'x');
    const std::string frame = serve::encode_frame(payload);
    FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    std::string out;
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kFrame);
    EXPECT_EQ(out.size(), serve::kMaxFrameBytes);
}

TEST(Handlers, RequestIdParsesAndDefaultsToZero)
{
    FlatJsonFields fields;
    EXPECT_EQ(serve::request_id(fields), 0u);
    fields["id"] = "42";
    EXPECT_EQ(serve::request_id(fields), 42u);
    fields["id"] = "not-a-number";
    EXPECT_EQ(serve::request_id(fields), 0u);
}

TEST(Handlers, ErrorResponseShape)
{
    const std::string reply =
        serve::error_response(9, serve::kErrOverloaded, "queue full");
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json(reply, fields));
    EXPECT_EQ(fields.at("v"), serve::kProtocolVersion);
    EXPECT_EQ(fields.at("id"), "9");
    EXPECT_EQ(fields.at("ok"), "0");
    EXPECT_EQ(fields.at("error"), serve::kErrOverloaded);
    EXPECT_EQ(fields.at("detail"), "queue full");
}

TEST(Handlers, MissingOrWrongVersionIsRejected)
{
    serve::ServerStatsSnapshot stats;
    FlatJsonFields fields;
    fields["type"] = "server_stats";
    std::string body = serve::handle_request_body(fields, nullptr, stats);
    EXPECT_NE(body.find(serve::kErrBadVersion), std::string::npos) << body;

    fields["v"] = "chrysalis-serve-v999";
    body = serve::handle_request_body(fields, nullptr, stats);
    EXPECT_NE(body.find(serve::kErrBadVersion), std::string::npos) << body;
}

TEST(Handlers, MissingTypeIsBadRequest)
{
    serve::ServerStatsSnapshot stats;
    FlatJsonFields fields;
    fields["v"] = serve::kProtocolVersion;
    const std::string body =
        serve::handle_request_body(fields, nullptr, stats);
    EXPECT_NE(body.find(serve::kErrBadRequest), std::string::npos) << body;
}

TEST(Handlers, UnknownTypeIsReported)
{
    serve::ServerStatsSnapshot stats;
    const std::string body = serve::handle_request_body(
        base_request("make_coffee"), nullptr, stats);
    EXPECT_NE(body.find(serve::kErrUnknownType), std::string::npos) << body;
}

TEST(Handlers, HandlerFatalBecomesStructuredError)
{
    serve::ServerStatsSnapshot stats;
    FlatJsonFields fields = base_request("eval_design_point");
    fields["model"] = "no_such_model";
    const std::string body =
        serve::handle_request_body(fields, nullptr, stats);
    EXPECT_NE(body.find("\"ok\":0"), std::string::npos) << body;
    EXPECT_NE(body.find(serve::kErrBadRequest), std::string::npos) << body;
}

TEST(Handlers, EvalDesignPointBodyIsDeterministic)
{
    serve::ServerStatsSnapshot stats;
    FlatJsonFields fields = base_request("eval_design_point");
    fields["model"] = "kws";
    fields["solar_cm2"] = "8";
    const std::string first =
        serve::handle_request_body(fields, nullptr, stats);
    const std::string second =
        serve::handle_request_body(fields, nullptr, stats);
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("\"ok\":1"), std::string::npos) << first;
    EXPECT_NE(first.find("\"feasible\":"), std::string::npos) << first;
}

TEST(Handlers, CacheKeyIgnoresIdButNotParameters)
{
    FlatJsonFields a = base_request("eval_design_point");
    a["model"] = "kws";
    FlatJsonFields b = a;
    b["id"] = "99";  // different echo token, same logical request
    EXPECT_EQ(serve::request_cache_key(a), serve::request_cache_key(b));

    FlatJsonFields c = a;
    c["model"] = "har";
    EXPECT_NE(serve::request_cache_key(a), serve::request_cache_key(c));
}

TEST(Handlers, EscapedModelNameIsDecodedNotTruncated)
{
    // The escape spells U+0177, not a byte: the model "k\u0177s" does
    // not exist, and its request must not share the memo key of "kws".
    const std::string line =
        std::string(R"({"v":")") + serve::kProtocolVersion +
        R"(","id":7,"type":"eval_design_point","model":"k\u0177s"})";
    FlatJsonFields escaped;
    ASSERT_TRUE(scan_flat_json(line, escaped));
    EXPECT_EQ(escaped.at("model"), "k\xC5\xB7s");
    FlatJsonFields plain = base_request("eval_design_point");
    plain["model"] = "kws";
    EXPECT_NE(serve::request_cache_key(escaped),
              serve::request_cache_key(plain));

    serve::ServerStatsSnapshot stats;
    const std::string body =
        serve::handle_request_body(escaped, nullptr, stats);
    EXPECT_NE(body.find(serve::kErrBadRequest), std::string::npos) << body;
}

TEST(Handlers, ResponseCacheServesRepeatsWithoutRecompute)
{
    serve::ServerStatsSnapshot stats;
    serve::ResponseCache cache(64);
    FlatJsonFields first = base_request("eval_design_point");
    first["model"] = "kws";
    FlatJsonFields repeat = first;
    repeat["id"] = "8";

    const std::string body1 =
        serve::handle_request_body(first, &cache, stats);
    const std::string body2 =
        serve::handle_request_body(repeat, &cache, stats);
    EXPECT_EQ(body1, body2);
    const runtime::EvalCacheStats cache_stats = cache.stats();
    EXPECT_EQ(cache_stats.hits, 1u);
    EXPECT_EQ(cache_stats.misses, 1u);
    EXPECT_EQ(cache_stats.insertions, 1u);
}

TEST(Handlers, ServerStatsIsNeverCached)
{
    serve::ServerStatsSnapshot stats;
    stats.requests_total = 5;
    serve::ResponseCache cache(64);
    const std::string body = serve::handle_request_body(
        base_request("server_stats"), &cache, stats);
    EXPECT_NE(body.find("\"requests_total\":5"), std::string::npos) << body;
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(Handlers, FinishResponseWrapsBody)
{
    const std::string reply = serve::finish_response(3, "\"ok\":1,\"x\":2");
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json(reply, fields));
    EXPECT_EQ(fields.at("v"), serve::kProtocolVersion);
    EXPECT_EQ(fields.at("id"), "3");
    EXPECT_EQ(fields.at("ok"), "1");
    EXPECT_EQ(fields.at("x"), "2");
}

}  // namespace
