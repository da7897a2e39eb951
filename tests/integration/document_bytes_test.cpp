/// \file
/// Pins the bytes of each kind of document the program writes: the
/// `chrysalis-metrics-v1` report in both modes, campaign journal lines,
/// serve replies and the Chrome trace (its times masked). The expected
/// bytes were recorded before these documents shared one JSON writer;
/// a change to any comma, escape or number spelling fails here.

#include <regex>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/flat_json.hpp"
#include "core/campaign_journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"

namespace chrysalis {
namespace {

/// A registry with counters, gauges and histograms at both stabilities,
/// one histogram empty.
std::string
fixed_report(obs::ReportMode mode)
{
    obs::MetricsRegistry registry;
    registry.counter("search/inner/calls").add(1234567890123ULL);
    registry.counter("campaign/cases").add(48);
    registry.counter("runtime/memo/races", obs::Stability::kVolatile).add(7);
    registry.gauge("runtime/pool/utilization").set(0.6180339887498949);
    registry.gauge("search/best", obs::Stability::kStable).set(-2.5e-300);
    obs::Histogram& latency = registry.histogram(
        "serve/latency_s", obs::latency_bounds(), obs::Stability::kVolatile);
    latency.record(1e-4);
    latency.record(0.003);
    latency.record(250.0);
    obs::Histogram& best = registry.histogram("search/ga/gen_best_score",
                                              {0.1, 1.0, 10.0});
    best.record(0.5);
    best.record(0.05);
    best.record(3.0 / 7.0);
    registry.histogram("campaign/empty", {1.0, 2.0});
    return registry.to_json(mode);
}

/// A failed entry whose label and failure detail need escapes.
core::CampaignEntry
fixed_entry()
{
    core::CampaignEntry entry;
    entry.label = "my,\"net\"\\x\n-latsp-0";
    entry.objective_label = "lat*sp";
    entry.wall_time_s = 1.0 / 3.0;
    core::AuTSolution& solution = entry.solution;
    solution.feasible = false;
    solution.hardware.family = search::HardwareFamily::kAccelerator;
    solution.hardware.solar_cm2 = 2.7;
    solution.hardware.capacitance_f = 4.7e-4;
    solution.hardware.arch = hw::AcceleratorArch::kTpu;
    solution.hardware.n_pe = 168;
    solution.hardware.cache_bytes = 2048;
    solution.mean_latency_s = 0.1234567890123456789;
    solution.lat_sp = 1e300;
    solution.score = 7.25;
    solution.evaluations = 96;
    solution.cache_hits = 17;
    solution.cache_misses = 79;
    solution.cache_evictions = 3;
    solution.search_wall_time_s = 0.0625;
    solution.failure = fault::make_failure(fault::FailureCode::kTimeout,
                                           "after \"300000\" s\t(sim)");
    return entry;
}

serve::ServerStatsSnapshot
fixed_snapshot()
{
    serve::ServerStatsSnapshot stats;
    stats.connections_open = 2;
    stats.connections_total = 9;
    stats.requests_total = 1000;
    stats.requests_eval_design_point = 600;
    stats.requests_eval_mapping = 200;
    stats.requests_sim_step = 150;
    stats.requests_server_stats = 40;
    stats.requests_health = 10;
    stats.errors_total = 5;
    stats.overload_rejections = 1;
    stats.batches = 300;
    stats.max_batch = 8;
    stats.pending = 3;
    stats.timeouts_read = 1;
    stats.timeouts_idle = 2;
    stats.slow_consumer_closes = 0;
    stats.draining = true;
    stats.threads = 4;
    stats.cache.hits = 700;
    stats.cache.misses = 250;
    stats.cache.insertions = 250;
    stats.cache.evictions = 10;
    stats.cache.entries = 240;
    stats.cache.capacity = 256;
    stats.worker_id = "host\"a\":7070";
    stats.uptime_seconds = 12.5;
    stats.latency_count = 995;
    stats.latency_p50_s = 5e-5;
    stats.latency_p95_s = 2e-4;
    stats.latency_p99_s = 1e-3;
    return stats;
}

/// The body a `server_stats` or `health` request gets from the fixed
/// snapshot.
std::string
stats_body(const char* type)
{
    FlatJsonFields fields;
    fields["v"] = serve::kProtocolVersion;
    fields["type"] = type;
    return serve::handle_request_body(fields, nullptr, fixed_snapshot());
}

/// A refused request's reply, with the stage timings a traced request
/// gets.
std::string
error_reply()
{
    std::string reply = serve::finish_response(
        42, serve::error_body(serve::kErrBadRequest,
                              "unknown model \"x\\y\"\n\x01"));
    serve::append_timing_fields(reply, 1e-6, 2.5e-6, 1.0 / 3.0, 0.0);
    return reply;
}

/// A Chrome trace of four spans, `ts` and `dur` masked.
std::string
masked_trace()
{
    obs::TraceSession session;
    const double start = obs::monotonic_seconds();
    session.add_span("campaign/run", start, 0.5, 0);
    session.add_span("case:my,\"net\"\\x\n-latsp-0", start + 0.001, 0.25, 1);
    {
        obs::TraceContext context;
        context.trace_id = 0x00c0ffee12345678ULL;
        obs::ScopedTraceContext scoped(context);
        session.add_span("serve/eval", start + 0.002, 0.125, 2);
    }
    session.add_span("ga/generation", start + 0.003, 0.0625, 2);
    std::ostringstream os;
    session.write_chrome_trace(os);
    std::string text = os.str();
    text = std::regex_replace(text, std::regex(R"("ts":[-0-9.]+)"),
                              "\"ts\":T");
    return std::regex_replace(text, std::regex(R"("dur":[-0-9.]+)"),
                              "\"dur\":D");
}

constexpr const char* kKey = "0123456789abcdef0123456789abcdef";

TEST(DocumentBytesTest, MetricsReportInBothModes)
{
    EXPECT_EQ(fixed_report(obs::ReportMode::kFull),
              R"js({"schema":"chrysalis-metrics-v1",)js"
              R"js("stable":{"counters":{"campaign/cases":48,)js"
              R"js("search/inner/calls":1234567890123},)js"
              R"js("gauges":{"search/best":-2.5e-300},)js"
              R"js("histograms":{"campaign/empty":{"count":0,"min":0,)js"
              R"js("max":0,"bounds":[1,2],"counts":[0,0,0]},)js"
              R"js("search/ga/gen_best_score":{"count":3,)js"
              R"js("min":0.050000000000000003,"max":0.5,)js"
              R"js("bounds":[0.10000000000000001,1,10],"counts":[1,2,0,)js"
              R"js(0]}}},"volatile":{"counters":{"runtime/memo/races":7},)js"
              R"js("gauges":{"runtime/pool/utilization":0.618033988749894)js"
              R"js(9},"histograms":{"serve/latency_s":{"count":3,)js"
              R"js("sum":250.00309999999999,"min":0.0001,"max":250,)js"
              R"js("bounds":[1.0000000000000001e-05,)js"
              R"js(2.0000000000000002e-05,5.0000000000000002e-05,0.0001,)js"
              R"js(0.00020000000000000001,0.00050000000000000001,0.001,)js"
              R"js(0.002,0.0050000000000000001,0.01,0.02,)js"
              R"js(0.050000000000000003,0.10000000000000001,)js"
              R"js(0.20000000000000001,0.5,1,2,5,10,20,50,100],)js"
              R"js("counts":[0,0,0,1,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,)js"
              R"js(1]}}}})js"
              "\n");
    EXPECT_EQ(fixed_report(obs::ReportMode::kDeterministic),
              R"js({"schema":"chrysalis-metrics-v1",)js"
              R"js("stable":{"counters":{"campaign/cases":48,)js"
              R"js("search/inner/calls":1234567890123},)js"
              R"js("gauges":{"search/best":-2.5e-300},)js"
              R"js("histograms":{"campaign/empty":{"count":0,"min":0,)js"
              R"js("max":0,"bounds":[1,2],"counts":[0,0,0]},)js"
              R"js("search/ga/gen_best_score":{"count":3,)js"
              R"js("min":0.050000000000000003,"max":0.5,)js"
              R"js("bounds":[0.10000000000000001,1,10],"counts":[1,2,0,)js"
              R"js(0]}}}})js"
              "\n");
}

TEST(DocumentBytesTest, JournalLinesWithAndWithoutWallTimes)
{
    const std::string full =
        R"js({"key":"0123456789abcdef0123456789abcdef","label":"my,)js"
        R"js(\"net\"\\x\n-latsp-0","objective":"lat*sp","feasible":0,)js"
        R"js("family":1,"solar_cm2":2.7000000000000002,)js"
        R"js("capacitance_f":0.00046999999999999999,"arch":0,"n_pe":168,)js"
        R"js("cache_bytes":2048,"mean_latency_s":0.12345678901234568,)js"
        R"js("lat_sp":1.0000000000000001e+300,"score":7.25,)js"
        R"js("evaluations":96,"cache_hits":17,"cache_misses":79,)js"
        R"js("cache_evictions":3,"search_wall_time_s":0.0625,)js"
        R"js("wall_time_s":0.33333333333333331,"failure_code":"timeout",)js"
        R"js("failure_detail":"after \"300000\" s\t(sim)"})js";
    const std::string deterministic =
        R"js({"key":"0123456789abcdef0123456789abcdef","label":"my,)js"
        R"js(\"net\"\\x\n-latsp-0","objective":"lat*sp","feasible":0,)js"
        R"js("family":1,"solar_cm2":2.7000000000000002,)js"
        R"js("capacitance_f":0.00046999999999999999,"arch":0,"n_pe":168,)js"
        R"js("cache_bytes":2048,"mean_latency_s":0.12345678901234568,)js"
        R"js("lat_sp":1.0000000000000001e+300,"score":7.25,)js"
        R"js("evaluations":96,"cache_hits":17,"cache_misses":79,)js"
        R"js("cache_evictions":3,"search_wall_time_s":0,"wall_time_s":0,)js"
        R"js("failure_code":"timeout",)js"
        R"js("failure_detail":"after \"300000\" s\t(sim)"})js";
    EXPECT_EQ(core::to_json_line(kKey, fixed_entry()), full);
    EXPECT_EQ(core::to_json_line(kKey, fixed_entry(), /*deterministic=*/true),
              deterministic);

    // A pinned line parses back to an entry that writes the same bytes.
    std::string key;
    core::CampaignEntry restored;
    ASSERT_TRUE(core::parse_json_line(full, key, restored));
    EXPECT_EQ(key, kKey);
    EXPECT_EQ(core::to_json_line(key, restored), full);
}

TEST(DocumentBytesTest, ErrorReplyWithTimings)
{
    EXPECT_EQ(error_reply(),
              R"js({"v":"chrysalis-serve-v1","id":42,"ok":0,)js"
              R"js("error":"bad_request",)js"
              R"js("detail":"unknown model \"x\\y\"\n\u0001",)js"
              R"js("timing_queue_s":9.9999999999999995e-07,)js"
              R"js("timing_decode_s":2.5000000000000002e-06,)js"
              R"js("timing_eval_s":0.33333333333333331,)js"
              R"js("timing_encode_s":0})js");
}

TEST(DocumentBytesTest, ServerStatsAndHealthBodies)
{
    EXPECT_EQ(stats_body("server_stats"),
              R"js("ok":1,"type":"server_stats","connections_open":2,)js"
              R"js("connections_total":9,"requests_total":1000,)js"
              R"js("requests_eval_design_point":600,)js"
              R"js("requests_eval_mapping":200,"requests_sim_step":150,)js"
              R"js("requests_server_stats":40,"requests_health":10,)js"
              R"js("errors_total":5,"overload_rejections":1,)js"
              R"js("batches":300,"max_batch":8,"pending":3,)js"
              R"js("timeouts_read":1,"timeouts_idle":2,)js"
              R"js("slow_consumer_closes":0,"draining":1,"threads":4,)js"
              R"js("cache_hits":700,"cache_misses":250,)js"
              R"js("cache_insertions":250,"cache_evictions":10,)js"
              R"js("cache_entries":240,"cache_capacity":256,)js"
              R"js("cache_hit_rate":0.73684210526315785,)js"
              R"js("worker_id":"host\"a\":7070","uptime_seconds":12.5,)js"
              R"js("latency_count":995,)js"
              R"js("latency_p50_s":5.0000000000000002e-05,)js"
              R"js("latency_p95_s":0.00020000000000000001,)js"
              R"js("latency_p99_s":0.001)js");
    EXPECT_EQ(stats_body("health"),
              R"js("ok":1,"type":"health","status":"draining",)js"
              R"js("worker_id":"host\"a\":7070","draining":1,)js"
              R"js("connections_open":2,"pending":3,"threads":4)js");
}

TEST(DocumentBytesTest, ChromeTraceWithTimesMasked)
{
    EXPECT_EQ(masked_trace(),
              R"js({"displayTimeUnit":"ms",)js"
              R"js("traceEvents":[{"name":"campaign/run",)js"
              R"js("cat":"chrysalis","ph":"X","pid":0,"tid":0,"ts":T,)js"
              R"js("dur":D,"args":{"depth":0}},{"name":"case:my,)js"
              R"js(\"net\"\\x\n-latsp-0","cat":"chrysalis","ph":"X",)js"
              R"js("pid":0,"tid":0,"ts":T,"dur":D,"args":{"depth":1}},)js"
              R"js({"name":"serve/eval","cat":"chrysalis","ph":"X",)js"
              R"js("pid":0,"tid":0,"ts":T,"dur":D,"args":{"depth":2,)js"
              R"js("trace_id":"00c0ffee12345678"}},)js"
              R"js({"name":"ga/generation","cat":"chrysalis","ph":"X",)js"
              R"js("pid":0,"tid":0,"ts":T,"dur":D,"args":{"depth":2}}]})js"
              "\n");
}

TEST(DocumentBytesTest, RequestFieldNamesAreEscaped)
{
    // A name holding a quote used to be appended raw, which tore the
    // payload: the server answered bad_request.
    serve::Client client;
    FlatJsonFields params;
    params["a\"b"] = "x";
    params["n"] = "2";
    const std::string payload = client.build_request("health", params);
    EXPECT_EQ(payload,
              R"js({"v":"chrysalis-serve-v1","id":1,"type":"health",)js"
              R"js("a\"b":"x","n":2})js");
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json(payload, fields)) << payload;
    EXPECT_EQ(fields.at("a\"b"), "x");
    EXPECT_EQ(fields.at("n"), "2");
}

}  // namespace
}  // namespace chrysalis
