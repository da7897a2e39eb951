/// \file
/// Closed-loop load generator for the `chrysalis-serve-v1` daemon.
///
/// Drives a deterministic mixed workload (design-point evaluations,
/// mapping searches, step simulations and stats probes, drawn from
/// small parameter pools so the server's response cache sees realistic
/// repeat traffic) from N concurrent client connections, then reports
/// p50/p95/p99 request latency, throughput, cache-hit rate and the two
/// hard acceptance gates: zero dropped connections and byte-identical
/// replies versus a single-threaded reference server.
///
/// Usage:
///   chrysalis_bench_load [--host addr] [--port n] [--requests n]
///                        [--clients n] [--threads n] [--seed n]
///                        [--no-verify]
///
/// Without --port the bench starts its own in-process server
/// (`--threads` workers, default 4) on an ephemeral loopback port.
/// With --port it targets an externally started chrysalis_served (CI's
/// smoke job does this). The run report is BENCH_serve_load.json.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bench_util.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/string_utils.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace chrysalis;

struct LoadOptions {
    std::string host = "127.0.0.1";
    int port = 0;        ///< 0 = start an in-process server
    int requests = 500;
    int clients = 8;
    int threads = 4;     ///< in-process server eval workers
    std::uint64_t seed = 1;
    bool verify = true;  ///< replay against a 1-thread reference
};

/// Prints the usage to \p out: stdout for --help, stderr on a usage
/// error.
void
usage(std::FILE* out, const char* argv0)
{
    std::fprintf(out,
                 "usage: %s [--host addr] [--port n] [--requests n]\n"
                 "          [--clients n] [--threads n] [--seed n]\n"
                 "          [--no-verify]\n",
                 argv0);
}

/// Parses \p argv into \p options. Returns the exit code when there is
/// nothing to run: 0 after --help, 2 after an unknown option.
std::optional<int>
parse_args(int argc, char** argv, LoadOptions& options)
{
    for (int i = 1; i < argc; ++i) {
        std::string inline_value;
        bool has_inline = false;
        const std::string arg =
            split_flag(argv[i], inline_value, has_inline);
        const auto next = [&]() -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--host") {
            options.host = next();
        } else if (arg == "--port") {
            options.port = parse_int_flag(arg, next());
        } else if (arg == "--requests") {
            options.requests = parse_int_flag(arg, next());
        } else if (arg == "--clients") {
            options.clients = parse_int_flag(arg, next());
        } else if (arg == "--threads") {
            options.threads = parse_int_flag(arg, next());
        } else if (arg == "--seed") {
            options.seed = parse_uint64_flag(arg, next());
        } else if (arg == "--no-verify") {
            options.verify = false;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout, argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(stderr, argv[0]);
            return 2;
        }
    }
    if (options.requests < 1 || options.clients < 1 ||
        options.threads < 1)
        fatal("--requests, --clients and --threads must be >= 1");
    return std::nullopt;
}

/// One deterministic request: its type and the exact wire payload
/// request i carries (id i+1).
struct WorkItem {
    std::string type;
    std::string payload;
};

/// Builds the deterministic workload. Request i carries id i+1, and
/// parameters come from small pools so many requests repeat — the
/// repeat fraction is what exercises the shared response cache.
std::vector<WorkItem>
build_workload(const LoadOptions& options)
{
    static const char* const kModels[] = {"kws", "har", "simple_conv"};
    static const char* const kObjectives[] = {"latsp", "lat", "sp"};
    static const double kSolar[] = {4.0, 6.0, 8.0, 10.0, 12.0};
    static const double kCap[] = {50e-6, 100e-6, 200e-6};

    Rng rng(options.seed);
    serve::Client builder;  // unconnected: used only for build_request
    std::vector<WorkItem> items;
    items.reserve(static_cast<std::size_t>(options.requests));
    for (int i = 0; i < options.requests; ++i) {
        // 60% design points, 25% mapping searches, 10% step sims, 5%
        // stats probes.
        const std::int64_t dice = rng.uniform_int(0, 19);
        WorkItem item;
        FlatJsonFields params;
        if (dice < 12) {
            item.type = "eval_design_point";
        } else if (dice < 17) {
            item.type = "eval_mapping";
        } else if (dice < 19) {
            item.type = "sim_step";
            params["runs"] = "1";
            params["step_s"] = "0.05";
        } else {
            item.type = "server_stats";
        }
        if (item.type != "server_stats") {
            params["model"] = kModels[rng.uniform_int(0, 2)];
            params["objective"] = kObjectives[rng.uniform_int(0, 2)];
            params["solar_cm2"] =
                format_double_17g(kSolar[rng.uniform_int(0, 4)]);
            params["capacitance_f"] =
                format_double_17g(kCap[rng.uniform_int(0, 2)]);
        }
        builder.set_next_id(static_cast<std::uint64_t>(i) + 1);
        item.payload = builder.build_request(item.type, params);
        items.push_back(std::move(item));
    }
    return items;
}

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

int
main(int argc, char** argv)
{
    LoadOptions options;
    if (const std::optional<int> code = parse_args(argc, argv, options))
        return *code;

    bench::begin_report(
        "serve_load",
        "closed-loop load test of the chrysalis-serve-v1 daemon", true,
        "serve_load");
    bench::print_banner(
        "serve_load",
        "closed-loop load test of the chrysalis-serve-v1 daemon");

    // Target server: external (--port) or in-process.
    std::unique_ptr<serve::Server> own_server;
    int port = options.port;
    if (port == 0) {
        serve::ServerOptions server_options;
        server_options.host = options.host;
        server_options.threads = options.threads;
        own_server = std::make_unique<serve::Server>(server_options);
        own_server->start();
        port = own_server->port();
        std::printf("in-process server on %s:%d (%d threads)\n",
                    options.host.c_str(), port, options.threads);
    } else {
        std::printf("targeting external server %s:%d\n",
                    options.host.c_str(), port);
    }

    const std::vector<WorkItem> workload = build_workload(options);
    const std::size_t total = workload.size();
    std::vector<std::string> replies(total);
    std::vector<double> latencies(total, 0.0);
    std::atomic<std::size_t> cursor{0};
    std::atomic<int> transport_failures{0};

    // Closed loop: each client thread owns one connection and pulls the
    // next unsent request until the shared cursor runs out.
    runtime::ThreadPool clients(options.clients);
    obs::SpanTimer wall("bench/serve_load");
    clients.parallel_for(
        static_cast<std::size_t>(options.clients), [&](std::size_t) {
            serve::Client client;
            if (!client.connect(options.host, port, 20.0)) {
                transport_failures.fetch_add(1);
                return;
            }
            while (true) {
                const std::size_t i = cursor.fetch_add(1);
                if (i >= total)
                    break;
                obs::SpanTimer timer("bench/request");
                std::string reply;
                if (!client.send_frame(workload[i].payload) ||
                    !client.recv_frame(reply)) {
                    transport_failures.fetch_add(1);
                    return;
                }
                latencies[i] = timer.elapsed_s();
                replies[i] = std::move(reply);
            }
        });
    const double wall_s = wall.elapsed_s();

    std::size_t completed = 0;
    std::size_t error_replies = 0;
    for (const std::string& reply : replies) {
        if (reply.empty())
            continue;
        ++completed;
        if (reply.find("\"ok\":0") != std::string::npos)
            ++error_replies;
    }

    // Cache-hit rate straight from the server.
    double cache_hit_rate = 0.0;
    std::uint64_t cache_hits = 0;
    {
        serve::Client probe;
        serve::Response stats;
        if (probe.connect(options.host, port, 120.0) &&
            probe.call("server_stats", {}, stats) && stats.ok) {
            json_get_double(stats.fields, "cache_hit_rate",
                            cache_hit_rate);
            json_get_uint64(stats.fields, "cache_hits", cache_hits);
        }
    }

    std::vector<double> sorted;
    sorted.reserve(completed);
    for (std::size_t i = 0; i < total; ++i) {
        if (!replies[i].empty())
            sorted.push_back(latencies[i]);
    }
    std::sort(sorted.begin(), sorted.end());
    const double p50 = percentile(sorted, 0.50);
    const double p95 = percentile(sorted, 0.95);
    const double p99 = percentile(sorted, 0.99);
    const double throughput =
        wall_s > 0.0 ? static_cast<double>(completed) / wall_s : 0.0;

    std::printf("%zu/%zu requests completed in %.3f s "
                "(%.1f req/s, %zu error replies)\n",
                completed, total, wall_s, throughput, error_replies);
    std::printf("latency p50 %.6f s  p95 %.6f s  p99 %.6f s\n", p50, p95,
                p99);
    std::printf("cache hit rate %.3f (%llu hits)\n", cache_hit_rate,
                static_cast<unsigned long long>(cache_hits));

    // Determinism gate: replay every eval request serially against a
    // fresh single-threaded server; identical request bytes must yield
    // identical reply bytes. server_stats replies report live state and
    // are exempt by design.
    std::size_t mismatches = 0;
    if (options.verify) {
        serve::ServerOptions reference_options;
        reference_options.host = "127.0.0.1";
        reference_options.threads = 1;
        serve::Server reference(reference_options);
        reference.start();
        serve::Client client;
        if (!client.connect("127.0.0.1", reference.port(), 120.0))
            fatal("cannot connect to the reference server");
        for (std::size_t i = 0; i < total; ++i) {
            if (replies[i].empty() ||
                workload[i].type == "server_stats")
                continue;
            std::string reply;
            if (!client.send_frame(workload[i].payload) ||
                !client.recv_frame(reply))
                fatal("reference server dropped a request");
            if (reply != replies[i]) {
                if (++mismatches <= 3)
                    std::fprintf(stderr,
                                 "MISMATCH on id %zu:\n  loaded:    "
                                 "%s\n  reference: %s\n",
                                 i + 1, replies[i].c_str(),
                                 reply.c_str());
            }
        }
        reference.stop();
        std::printf("determinism check: %zu mismatches\n", mismatches);
    }

    if (own_server != nullptr)
        own_server->stop();

    bench::headline("requests_completed", static_cast<double>(completed));
    bench::headline("throughput_rps", throughput);
    bench::headline("latency_p50_s", p50);
    bench::headline("latency_p95_s", p95);
    bench::headline("latency_p99_s", p99);
    bench::headline("cache_hit_rate", cache_hit_rate);
    bench::headline("error_replies", static_cast<double>(error_replies));
    bench::headline("dropped_connections",
                    static_cast<double>(transport_failures.load()));
    bench::headline("determinism_mismatches",
                    static_cast<double>(mismatches));
    // The gates: every request completed, no transport failures, and
    // byte-identical replies versus the single-threaded reference.
    const bool pass = completed == total &&
                      transport_failures.load() == 0 && mismatches == 0;
    std::printf("%s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
