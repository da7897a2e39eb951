// Request-tracing handler tests: the `trace` field round trip, its
// memo exemption (tracing is observability, never semantics), timing
// splices staying out of cached bytes, and the server_stats latency
// quantiles.

#include "serve/handlers.hpp"
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/flat_json.hpp"
#include "obs/trace.hpp"

namespace {

using namespace chrysalis;

FlatJsonFields base_request(const std::string& type)
{
    return {{"v", serve::kProtocolVersion}, {"id", "7"}, {"type", type}};
}

TEST(TraceField, RoundTripsAndRejectsMalformed)
{
    obs::TraceContext context;
    context.trace_id = 0xabcdef12u;
    context.parent_span = 42;
    context.sampled = true;
    obs::TraceContext out;
    ASSERT_TRUE(
        obs::parse_trace_field(obs::format_trace_field(context), out));
    EXPECT_EQ(out.trace_id, context.trace_id);
    EXPECT_EQ(out.parent_span, context.parent_span);
    EXPECT_TRUE(out.sampled);

    context.sampled = false;
    ASSERT_TRUE(
        obs::parse_trace_field(obs::format_trace_field(context), out));
    EXPECT_FALSE(out.sampled);

    out.trace_id = 99;
    EXPECT_FALSE(obs::parse_trace_field("", out));
    EXPECT_FALSE(obs::parse_trace_field("not-a-trace", out));
    EXPECT_FALSE(obs::parse_trace_field("zz-00-01", out));
    EXPECT_EQ(out.trace_id, 99u);  // untouched on failure
}

TEST(Handlers, CacheKeyIgnoresTraceContext)
{
    FlatJsonFields untraced = base_request("eval_design_point");
    untraced["model"] = "kws";

    obs::TraceContext context;
    context.trace_id = 0x1234;
    context.parent_span = 5;
    FlatJsonFields traced = untraced;
    traced["trace"] = obs::format_trace_field(context);
    traced["id"] = "99";

    // Tracing is observability, never semantics: a traced and an
    // untraced spelling of the same request share one memo entry.
    EXPECT_EQ(serve::request_cache_key(untraced),
              serve::request_cache_key(traced));

    FlatJsonFields different = untraced;
    different["model"] = "har";
    EXPECT_NE(serve::request_cache_key(untraced),
              serve::request_cache_key(different));
}

TEST(Handlers, TracedRequestHitsUntracedMemoEntry)
{
    serve::ServerStatsSnapshot stats;
    serve::ResponseCache cache(64);
    FlatJsonFields untraced = base_request("eval_design_point");
    untraced["model"] = "kws";

    const std::string body1 =
        serve::handle_request_body(untraced, &cache, stats);

    obs::TraceContext context;
    context.trace_id = 7;
    FlatJsonFields traced = untraced;
    traced["trace"] = obs::format_trace_field(context);
    const std::string body2 =
        serve::handle_request_body(traced, &cache, stats);

    EXPECT_EQ(body1, body2);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
    // Timing is spliced by the server AFTER memo lookup; handler-level
    // bodies (the bytes that get cached) must never carry it.
    EXPECT_EQ(body1.find("timing_"), std::string::npos) << body1;
    EXPECT_EQ(body2.find("timing_"), std::string::npos) << body2;
}

TEST(Handlers, AppendTimingFieldsSplicesBeforeClosingBrace)
{
    std::string response = "{\"v\":\"x\",\"id\":1,\"ok\":1}";
    serve::append_timing_fields(response, 0.5, 0.25, 2.0, 0.125);
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json(response, fields));
    EXPECT_EQ(fields.at("ok"), "1");
    EXPECT_EQ(fields.at("timing_queue_s"), "0.5");
    EXPECT_EQ(fields.at("timing_decode_s"), "0.25");
    EXPECT_EQ(fields.at("timing_eval_s"), "2");
    EXPECT_EQ(fields.at("timing_encode_s"), "0.125");
}

TEST(Handlers, ServerStatsReportsLatencyQuantiles)
{
    serve::ServerStatsSnapshot stats;
    stats.latency_count = 1000;
    stats.latency_p50_s = 0.5;
    stats.latency_p95_s = 2.0;
    stats.latency_p99_s = 4.0;
    const std::string body = serve::handle_request_body(
        base_request("server_stats"), nullptr, stats);
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json("{" + body + "}", fields));
    EXPECT_EQ(fields.at("latency_count"), "1000");
    EXPECT_EQ(fields.at("latency_p50_s"), "0.5");
    EXPECT_EQ(fields.at("latency_p95_s"), "2");
    EXPECT_EQ(fields.at("latency_p99_s"), "4");
}

}  // namespace
