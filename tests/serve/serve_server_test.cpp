// Live-socket tests for the chrysalis-serve-v1 daemon: every request
// type over a real loopback connection, protocol-robustness cases
// (malformed payloads, oversized frames, mid-request disconnects,
// overload admission), the defenses against hostile peers (slow-loris
// and idle reaping, slow consumers), the write path past full socket
// buffers, health and identity probes, and the headline guarantee —
// byte-identical replies from a multi-threaded server and a
// single-threaded one.

#include "serve/client.hpp"
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/flat_json.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace chrysalis;

serve::ServerOptions loopback_options(int threads)
{
    serve::ServerOptions options;
    options.host = "127.0.0.1";
    options.port = 0;  // kernel-chosen; tests read server.port()
    options.threads = threads;
    return options;
}

serve::Client connect_to(const serve::Server& server)
{
    serve::Client client;
    EXPECT_TRUE(client.connect("127.0.0.1", server.port(), 60.0));
    return client;
}

/// Blocking loopback socket connected to \p port whose receive buffer
/// was shrunk before connect(), so the advertised window stays tiny and
/// replies back up into the server's send path. Receives time out after
/// 30 s instead of hanging the suite. Returns -1 on failure.
int
connect_small_window(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    const int small = 4096;
    const timeval receive_timeout{30, 0};
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<std::uint16_t>(port));
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof small) !=
            0 ||
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &receive_timeout,
                     sizeof receive_timeout) != 0 ||
        ::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                  sizeof address) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/// Writes all of \p bytes; false once the peer has hung up.
bool
send_all(int fd, const std::string& bytes)
{
    std::size_t sent_total = 0;
    while (sent_total < bytes.size()) {
        const ssize_t sent =
            ::send(fd, bytes.data() + sent_total,
                   bytes.size() - sent_total, MSG_NOSIGNAL);
        if (sent <= 0)
            return false;
        sent_total += static_cast<std::size_t>(sent);
    }
    return true;
}

/// \p reply with its "id" member removed, so replies to requests that
/// differ only in id compare equal.
std::string
without_id(const std::string& reply)
{
    const std::size_t start = reply.find("\"id\":");
    if (start == std::string::npos)
        return reply;
    return reply.substr(0, start) +
           reply.substr(reply.find(',', start) + 1);
}

TEST(ServeServer, StartResolvesPortAndStopIsIdempotent)
{
    serve::Server server(loopback_options(1));
    server.start();
    EXPECT_TRUE(server.running());
    EXPECT_GT(server.port(), 0);
    server.stop();
    EXPECT_FALSE(server.running());
    server.stop();  // second stop must be a no-op
}

TEST(ServeServer, AnswersEveryRequestType)
{
    serve::Server server(loopback_options(2));
    server.start();
    serve::Client client = connect_to(server);

    serve::Response response;
    ASSERT_TRUE(client.call("eval_design_point", {{"model", "kws"}},
                            response));
    EXPECT_TRUE(response.ok) << response.raw;
    EXPECT_TRUE(response.fields.count("feasible")) << response.raw;

    ASSERT_TRUE(client.call("eval_mapping", {{"model", "kws"}}, response));
    EXPECT_TRUE(response.ok) << response.raw;
    EXPECT_TRUE(response.fields.count("mappings")) << response.raw;

    ASSERT_TRUE(client.call(
        "sim_step", {{"model", "kws"}, {"runs", "1"}}, response));
    EXPECT_TRUE(response.ok) << response.raw;
    EXPECT_TRUE(response.fields.count("completed")) << response.raw;

    ASSERT_TRUE(client.call("server_stats", {}, response));
    EXPECT_TRUE(response.ok) << response.raw;
    std::uint64_t total = 0;
    EXPECT_TRUE(json_get_uint64(response.fields, "requests_total", total));
    EXPECT_GE(total, 3u);

    server.stop();
}

TEST(ServeServer, UnknownTypeGetsStructuredErrorAndConnectionLives)
{
    serve::Server server(loopback_options(1));
    server.start();
    serve::Client client = connect_to(server);

    serve::Response response;
    ASSERT_TRUE(client.call("make_coffee", {}, response));
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, serve::kErrUnknownType);

    // Same connection still serves valid requests.
    ASSERT_TRUE(client.call("server_stats", {}, response));
    EXPECT_TRUE(response.ok);
    server.stop();
}

TEST(ServeServer, WrongVersionIsRejected)
{
    serve::Server server(loopback_options(1));
    server.start();
    serve::Client client = connect_to(server);

    ASSERT_TRUE(client.send_frame(
        "{\"v\":\"chrysalis-serve-v999\",\"id\":4,\"type\":"
        "\"server_stats\"}"));
    std::string payload;
    ASSERT_TRUE(client.recv_frame(payload));
    serve::Response response;
    ASSERT_TRUE(serve::parse_response(payload, response));
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, serve::kErrBadVersion);
    EXPECT_EQ(response.id, 4u);
    server.stop();
}

TEST(ServeServer, MalformedJsonKeepsConnectionAlive)
{
    serve::Server server(loopback_options(1));
    server.start();
    serve::Client client = connect_to(server);

    ASSERT_TRUE(client.send_frame("{\"v\":unterminated garbage"));
    std::string payload;
    ASSERT_TRUE(client.recv_frame(payload));
    serve::Response response;
    ASSERT_TRUE(serve::parse_response(payload, response));
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, serve::kErrBadRequest);

    // The frame itself was well-formed, so the stream is still in sync
    // and the connection must survive for the next request.
    ASSERT_TRUE(client.call("server_stats", {}, response));
    EXPECT_TRUE(response.ok);
    server.stop();
}

TEST(ServeServer, OversizedLengthPrefixGetsBadFrameThenClose)
{
    serve::Server server(loopback_options(1));
    server.start();
    serve::Client client = connect_to(server);

    // Announce a 2 MiB payload (no body needed; the prefix alone is the
    // violation). The server must reply bad_frame, then close — the
    // stream past a refused frame cannot be resynchronized.
    const std::size_t huge = serve::kMaxFrameBytes * 2;
    unsigned char prefix[4] = {
        static_cast<unsigned char>((huge >> 24) & 0xff),
        static_cast<unsigned char>((huge >> 16) & 0xff),
        static_cast<unsigned char>((huge >> 8) & 0xff),
        static_cast<unsigned char>(huge & 0xff),
    };
    ASSERT_TRUE(client.send_bytes(prefix, sizeof prefix));

    std::string payload;
    ASSERT_TRUE(client.recv_frame(payload));
    serve::Response response;
    ASSERT_TRUE(serve::parse_response(payload, response));
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, serve::kErrBadFrame);

    // After the error reply the server closes: the next read sees EOF.
    EXPECT_FALSE(client.recv_frame(payload));
    server.stop();
}

TEST(ServeServer, MidRequestDisconnectDoesNotKillTheServer)
{
    serve::Server server(loopback_options(2));
    server.start();
    {
        // Half a frame, then vanish.
        serve::Client client = connect_to(server);
        const std::string frame = serve::encode_frame(
            "{\"v\":\"chrysalis-serve-v1\",\"id\":1,\"type\":"
            "\"server_stats\"}");
        ASSERT_TRUE(client.send_bytes(frame.data(), frame.size() / 2));
        client.close();
    }
    {
        // A full request, then vanish before reading the reply.
        serve::Client client = connect_to(server);
        ASSERT_TRUE(client.send_frame(
            "{\"v\":\"chrysalis-serve-v1\",\"id\":2,\"type\":"
            "\"eval_design_point\",\"model\":\"kws\"}"));
        client.close();
    }
    // The server must still be alive and serving.
    serve::Client client = connect_to(server);
    serve::Response response;
    ASSERT_TRUE(client.call("server_stats", {}, response));
    EXPECT_TRUE(response.ok);
    server.stop();
}

TEST(ServeServer, EofAfterRequestsStillGetsEveryReply)
{
    serve::Server server(loopback_options(2));
    server.start();
    serve::Client client = connect_to(server);

    const int n = 5;
    for (int i = 0; i < n; ++i) {
        ASSERT_TRUE(client.send_frame(
            "{\"v\":\"chrysalis-serve-v1\",\"id\":" + std::to_string(i + 1) +
            ",\"type\":\"eval_design_point\",\"model\":\"kws\"}"));
    }
    // Half-close: the server sees EOF after the five requests, must
    // evaluate and flush all five replies, then close.
    client.shutdown_write();
    for (int i = 0; i < n; ++i) {
        std::string payload;
        ASSERT_TRUE(client.recv_frame(payload)) << "reply " << i;
        serve::Response response;
        ASSERT_TRUE(serve::parse_response(payload, response));
        EXPECT_TRUE(response.ok) << payload;
        EXPECT_EQ(response.id, static_cast<std::uint64_t>(i) + 1);
    }
    std::string payload;
    EXPECT_FALSE(client.recv_frame(payload));  // then EOF
    server.stop();
}

TEST(ServeServer, OverloadedRequestsAreRefusedNotDropped)
{
    serve::ServerOptions options = loopback_options(1);
    options.max_inflight = 1;
    options.queue_depth = 1;
    options.batch_max = 1;
    serve::Server server(options);
    server.start();
    serve::Client client = connect_to(server);

    // One write syscall carrying 8 frames: they arrive together, the
    // first is admitted and the burst overflows the depth-1 queue.
    const int n = 8;
    std::string burst;
    for (int i = 0; i < n; ++i) {
        burst += serve::encode_frame(
            "{\"v\":\"chrysalis-serve-v1\",\"id\":" + std::to_string(i + 1) +
            ",\"type\":\"eval_design_point\",\"model\":\"kws\"}");
    }
    ASSERT_TRUE(client.send_bytes(burst.data(), burst.size()));

    // Every request gets exactly one reply — evaluated or refused with
    // a structured `overloaded` error, never silently dropped.
    int ok_replies = 0;
    int overloaded = 0;
    for (int i = 0; i < n; ++i) {
        std::string payload;
        ASSERT_TRUE(client.recv_frame(payload)) << "reply " << i;
        serve::Response response;
        ASSERT_TRUE(serve::parse_response(payload, response));
        if (response.ok) {
            ++ok_replies;
        } else {
            EXPECT_EQ(response.error, serve::kErrOverloaded) << payload;
            ++overloaded;
        }
    }
    EXPECT_EQ(ok_replies + overloaded, n);
    EXPECT_GE(ok_replies, 1);

    const serve::ServerStatsSnapshot stats = server.stats();
    EXPECT_EQ(stats.overload_rejections,
              static_cast<std::uint64_t>(overloaded));
    server.stop();
}

TEST(ServeServer, SharedCacheCountsRepeatsAcrossConnections)
{
    serve::Server server(loopback_options(2));
    server.start();

    const FlatJsonFields params = {{"model", "kws"}, {"solar_cm2", "8"}};
    serve::Response first;
    serve::Response repeat;
    {
        serve::Client client = connect_to(server);
        ASSERT_TRUE(client.call("eval_design_point", params, first));
    }
    {
        serve::Client client = connect_to(server);
        client.set_next_id(1);  // same id => byte-identical full reply
        ASSERT_TRUE(client.call("eval_design_point", params, repeat));
    }
    EXPECT_TRUE(first.ok);
    EXPECT_EQ(first.raw, repeat.raw);

    const serve::ServerStatsSnapshot stats = server.stats();
    EXPECT_GE(stats.cache.hits, 1u);
    EXPECT_GE(stats.cache.insertions, 1u);
    server.stop();
}

// The headline determinism gate at test scale: 16 concurrent clients
// against a 4-thread server, every reply byte-compared against a fresh
// single-threaded server answering the same payloads serially.
TEST(ServeServer, SixteenClientRepliesMatchSingleThreadedServer)
{
    static const char* const kModels[] = {"kws", "har", "simple_conv"};
    static const char* const kTypes[] = {"eval_design_point",
                                         "eval_mapping"};
    const std::size_t per_client = 4;
    const std::size_t n_clients = 16;
    const std::size_t total = n_clients * per_client;

    // Deterministic payload table; request i carries id i+1.
    std::vector<std::string> payloads;
    serve::Client builder;  // unconnected: only build_request is used
    for (std::size_t i = 0; i < total; ++i) {
        FlatJsonFields params;
        params["model"] = kModels[i % 3];
        params["solar_cm2"] = std::to_string(4 + (i % 5));
        builder.set_next_id(i + 1);
        payloads.push_back(builder.build_request(
            kTypes[i % 2], params));
    }

    serve::Server loaded(loopback_options(4));
    loaded.start();
    std::vector<std::string> concurrent(total);
    std::atomic<int> failures{0};
    runtime::ThreadPool clients(static_cast<int>(n_clients));
    clients.parallel_for(n_clients, [&](std::size_t c) {
        serve::Client client;
        if (!client.connect("127.0.0.1", loaded.port(), 60.0)) {
            failures.fetch_add(1);
            return;
        }
        for (std::size_t k = 0; k < per_client; ++k) {
            const std::size_t i = c * per_client + k;
            if (!client.send_frame(payloads[i]) ||
                !client.recv_frame(concurrent[i]))
                failures.fetch_add(1);
        }
    });
    loaded.stop();
    ASSERT_EQ(failures.load(), 0);

    serve::Server reference(loopback_options(1));
    reference.start();
    serve::Client serial = connect_to(reference);
    for (std::size_t i = 0; i < total; ++i) {
        std::string reply;
        ASSERT_TRUE(serial.send_frame(payloads[i]));
        ASSERT_TRUE(serial.recv_frame(reply));
        EXPECT_EQ(concurrent[i], reply) << "request " << i << ": "
                                        << payloads[i];
    }
    reference.stop();
}

// The write path past full socket buffers: a client with a tiny
// receive window pipelines thousands of requests before reading any
// reply, so the server's send() hits EAGAIN, the unsent tail waits in
// the connection's buffer, and flushing resumes at its offset once the
// client drains. Every reply must arrive intact and in order.
TEST(ServeServer, PipelinedRepliesLargerThanTheSocketBuffersArriveIntact)
{
    const FlatJsonFields params = {{"model", "kws"}, {"solar_cm2", "8"}};
    std::string reference;
    {
        serve::Server single(loopback_options(1));
        single.start();
        serve::Client client = connect_to(single);
        serve::Response response;
        ASSERT_TRUE(client.call("eval_design_point", params, response));
        ASSERT_TRUE(response.ok) << response.raw;
        reference = without_id(response.raw);
        single.stop();
    }

    const std::size_t n = 16000;
    serve::ServerOptions options = loopback_options(2);
    options.queue_depth = static_cast<int>(n);
    options.max_inflight = static_cast<int>(n);
    serve::Server server(options);
    server.start();

    std::string burst;
    serve::Client builder;  // unconnected: only build_request is used
    for (std::size_t i = 0; i < n; ++i) {
        builder.set_next_id(i + 1);
        burst += serve::encode_frame(
            builder.build_request("eval_design_point", params));
    }
    const int fd = connect_small_window(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, burst));
    // Read nothing until every reply has been produced: they must pile
    // up behind the small window rather than drain as they are sent.
    const double deadline_s = obs::monotonic_seconds() + 60.0;
    while (server.stats().latency_count < n &&
           obs::monotonic_seconds() < deadline_s)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    serve::FrameDecoder decoder;
    std::size_t received = 0;
    std::string payload;
    char buffer[4096];
    while (received < n) {
        if (decoder.next(payload) == serve::FrameDecoder::Status::kFrame) {
            serve::Response response;
            ASSERT_TRUE(serve::parse_response(payload, response));
            ASSERT_EQ(response.id, received + 1);
            ASSERT_EQ(without_id(payload), reference)
                << "reply " << received + 1;
            ++received;
            continue;
        }
        const ssize_t got = ::recv(fd, buffer, sizeof buffer, 0);
        ASSERT_GT(got, 0) << "after " << received << " replies";
        decoder.feed(buffer, static_cast<std::size_t>(got));
    }
    ::close(fd);
    EXPECT_EQ(server.stats().overload_rejections, 0u);
    EXPECT_EQ(server.stats().slow_consumer_closes, 0u);
    server.stop();
}

// Slow-consumer defense: a peer that keeps asking but never reads is
// disconnected once its unflushed replies pass max_write_buffer_bytes,
// and the daemon keeps serving everyone else.
TEST(ServeServer, SlowConsumerIsDisconnectedAndOthersAreStillServed)
{
    serve::ServerOptions options = loopback_options(1);
    options.max_write_buffer_bytes =
        serve::kMaxFrameBytes + serve::kLengthPrefixBytes;
    serve::Server server(options);
    server.start();

    serve::Client builder;  // unconnected: only build_request is used
    std::string burst;
    for (int i = 0; i < 32; ++i)
        burst += serve::encode_frame(builder.build_request(
            "eval_design_point", {{"model", "kws"}}));
    const int fd = connect_small_window(server.port());
    ASSERT_GE(fd, 0);
    const double deadline_s = obs::monotonic_seconds() + 60.0;
    while (server.stats().slow_consumer_closes == 0 &&
           obs::monotonic_seconds() < deadline_s) {
        if (!send_all(fd, burst))
            break;  // the server hung up on us
    }
    while (server.stats().connections_open != 0 &&
           obs::monotonic_seconds() < deadline_s)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ::close(fd);
    EXPECT_EQ(server.stats().slow_consumer_closes, 1u);
    EXPECT_EQ(server.stats().connections_open, 0u);

    serve::Client fresh = connect_to(server);
    serve::Response response;
    ASSERT_TRUE(fresh.call("health", {}, response));
    EXPECT_TRUE(response.ok) << response.raw;
    server.stop();
}

TEST(ServeChaos, SlowLorisHalfFrameIsReapedByReadTimeout)
{
    serve::ServerOptions options = loopback_options(1);
    options.read_timeout_s = 0.1;
    serve::Server server(options);
    server.start();

    serve::Client loris;
    ASSERT_TRUE(loris.connect("127.0.0.1", server.port(), 10.0));
    // Three bytes of a length prefix, then silence: a half-sent frame
    // that an honest peer would have completed within milliseconds.
    ASSERT_TRUE(loris.send_bytes("\x00\x00\x01", 3));

    const double deadline_s = obs::monotonic_seconds() + 5.0;
    while (server.stats().timeouts_read == 0 &&
           obs::monotonic_seconds() < deadline_s)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(server.stats().timeouts_read, 1u);
    EXPECT_EQ(server.stats().connections_open, 0u);

    // A well-behaved connection that completes its frames promptly is
    // unaffected by the read timeout.
    serve::Client honest;
    ASSERT_TRUE(honest.connect("127.0.0.1", server.port(), 10.0));
    serve::Response response;
    ASSERT_TRUE(honest.call("server_stats", {}, response));
    EXPECT_TRUE(response.ok);
    server.stop();
}

TEST(ServeChaos, IdleConnectionsAreReapedWhenEnabled)
{
    serve::ServerOptions options = loopback_options(1);
    options.idle_timeout_s = 0.1;
    serve::Server server(options);
    server.start();

    serve::Client idler;
    ASSERT_TRUE(idler.connect("127.0.0.1", server.port(), 10.0));
    serve::Response response;
    ASSERT_TRUE(idler.call("server_stats", {}, response));

    const double deadline_s = obs::monotonic_seconds() + 5.0;
    while (server.stats().timeouts_idle == 0 &&
           obs::monotonic_seconds() < deadline_s)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_GE(server.stats().timeouts_idle, 1u);
    EXPECT_EQ(server.stats().connections_open, 0u);
    server.stop();
}

TEST(ServeChaos, HealthRequestReportsReadiness)
{
    serve::Server server(loopback_options(1));
    server.start();
    serve::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), 10.0));

    serve::Response response;
    ASSERT_TRUE(client.call("health", {}, response));
    EXPECT_TRUE(response.ok);
    std::string status;
    json_get_string(response.fields, "status", status);
    EXPECT_EQ(status, "ready");
    std::uint64_t draining = 1;
    json_get_uint64(response.fields, "draining", draining);
    EXPECT_EQ(draining, 0u);
    std::uint64_t threads = 0;
    json_get_uint64(response.fields, "threads", threads);
    EXPECT_EQ(threads, 1u);

    EXPECT_EQ(server.stats().requests_health, 1u);
    // health reports live state: it must never be served from the memo.
    EXPECT_FALSE(serve::response_is_memoized("health"));
    EXPECT_TRUE(serve::response_is_memoized("eval_design_point"));
    server.stop();
}

TEST(ServeChaosDeathTest, ValidationRejectsHostileDefenseSettings)
{
    serve::ServerOptions negative_read = loopback_options(1);
    negative_read.read_timeout_s = -1.0;
    EXPECT_EXIT(negative_read.validate(), ::testing::ExitedWithCode(1),
                "read_timeout_s");

    serve::ServerOptions negative_idle = loopback_options(1);
    negative_idle.idle_timeout_s = -0.5;
    EXPECT_EXIT(negative_idle.validate(), ::testing::ExitedWithCode(1),
                "idle_timeout_s");

    serve::ServerOptions tiny_buffer = loopback_options(1);
    tiny_buffer.max_write_buffer_bytes = 1024;
    EXPECT_EXIT(tiny_buffer.validate(), ::testing::ExitedWithCode(1),
                "max_write_buffer_bytes");
}

TEST(ServeRunCase, HealthAndStatsReportWorkerIdentity)
{
    serve::ServerOptions options = loopback_options(1);
    options.worker_id = "test-worker-7";
    serve::Server server(options);
    server.start();
    serve::Client client = connect_to(server);

    serve::Response health;
    ASSERT_TRUE(client.call("health", {}, health));
    ASSERT_TRUE(health.ok) << health.raw;
    std::string worker_id;
    EXPECT_TRUE(json_get_string(health.fields, "worker_id", worker_id));
    EXPECT_EQ(worker_id, "test-worker-7");

    serve::Response stats;
    ASSERT_TRUE(client.call("server_stats", {}, stats));
    ASSERT_TRUE(stats.ok) << stats.raw;
    worker_id.clear();
    EXPECT_TRUE(json_get_string(stats.fields, "worker_id", worker_id));
    EXPECT_EQ(worker_id, "test-worker-7");
    double uptime = -1.0;
    EXPECT_TRUE(json_get_double(stats.fields, "uptime_seconds", uptime));
    EXPECT_GE(uptime, 0.0);
    server.stop();
}

TEST(ServeRunCase, DefaultWorkerIdIsHostnameAndPort)
{
    serve::Server server(loopback_options(1));
    server.start();
    serve::Client client = connect_to(server);
    serve::Response health;
    ASSERT_TRUE(client.call("health", {}, health));
    std::string worker_id;
    ASSERT_TRUE(json_get_string(health.fields, "worker_id", worker_id));
    const std::string port_suffix =
        ":" + std::to_string(server.port());
    ASSERT_GE(worker_id.size(), port_suffix.size());
    EXPECT_EQ(worker_id.substr(worker_id.size() - port_suffix.size()),
              port_suffix);
    server.stop();
}

}  // namespace
