#include "serve/daemon.hpp"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "common/logging.hpp"
#include "common/string_utils.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"

namespace chrysalis::serve {
namespace {

// Self-pipe written by the signal handler; the daemon's main thread
// blocks in poll() on the read end. Signal-handler-safe by design
// (write() is async-signal-safe; everything else happens outside the
// handler).
int g_signal_pipe[2] = {-1, -1};

extern "C" void
handle_shutdown_signal(int)
{
    const char byte = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(g_signal_pipe[1], &byte, 1);
}

/// Prints the serve front-end's flag reference to \p out: stdout for
/// --help, stderr on a usage error.
void
serve_usage(std::FILE* out, const char* argv0)
{
    std::fprintf(
        out,
        "usage: %s [--host addr] [--port n] [--threads n]\n"
        "          [--worker-id id]\n"
        "          [--cache-capacity n] [--max-connections n]\n"
        "          [--max-inflight n] [--queue-depth n] [--batch-max n]\n"
        "          [--read-timeout s] [--idle-timeout s]\n"
        "          [--max-write-buffer bytes]\n"
        "          [--drain-timeout s] [--metrics-out file]\n"
        "          [--trace-out file]\n"
        "Serves chrysalis-serve-v1 evaluation requests until SIGINT or\n"
        "SIGTERM, then drains in-flight work and exits.\n"
        "--metrics-out/--trace-out record metrics / a Chrome trace for\n"
        "the daemon's lifetime and write them at drain.\n"
        "--read-timeout closes connections that leave a frame half-sent\n"
        "(slow-loris defense, 0 disables); --idle-timeout reaps fully\n"
        "quiet connections (0, the default, keeps them); slow consumers\n"
        "are disconnected once --max-write-buffer reply bytes queue.\n",
        argv0);
}

/// Prints the call front-end's flag reference to \p out, as
/// serve_usage() does.
void
call_usage(std::FILE* out, const char* argv0)
{
    std::fprintf(
        out,
        "usage: %s [--host addr] --port n --type\n"
        "          eval_design_point|eval_mapping|sim_step"
        "|server_stats|health\n"
        "          [--timeout s] [--<field> value ...]\n"
        "Sends one request and prints the raw reply payload. Any flag\n"
        "not listed above becomes a request field, e.g. --model har\n"
        "--solar_cm2 8 --objective lat. Exits 1 on a transport\n"
        "failure or an \"ok\":0 reply.\n",
        argv0);
}

}  // namespace

int
run_serve_cli(int argc, char** argv, int first)
{
    ServeCliOptions options;
    for (int i = first; i < argc; ++i) {
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
        if (arg == "--help" || arg == "-h") {
            serve_usage(stdout, argv[0]);
            return 0;
        } else if (arg == "--host") {
            options.server.host = next();
        } else if (arg == "--port") {
            options.server.port = parse_int_flag(arg, next());
        } else if (arg == "--threads") {
            options.server.threads = parse_int_flag(arg, next());
        } else if (arg == "--worker-id") {
            options.server.worker_id = next();
        } else if (arg == "--cache-capacity") {
            options.server.cache_capacity = parse_uint64_flag(arg, next());
        } else if (arg == "--max-connections") {
            options.server.max_connections = parse_int_flag(arg, next());
        } else if (arg == "--max-inflight") {
            options.server.max_inflight = parse_int_flag(arg, next());
        } else if (arg == "--queue-depth") {
            options.server.queue_depth = parse_int_flag(arg, next());
        } else if (arg == "--batch-max") {
            options.server.batch_max = parse_int_flag(arg, next());
        } else if (arg == "--read-timeout") {
            options.server.read_timeout_s =
                parse_double_flag(arg, next());
        } else if (arg == "--idle-timeout") {
            options.server.idle_timeout_s =
                parse_double_flag(arg, next());
        } else if (arg == "--max-write-buffer") {
            options.server.max_write_buffer_bytes =
                parse_uint64_flag(arg, next());
        } else if (arg == "--drain-timeout") {
            options.server.drain_timeout_s =
                parse_double_flag(arg, next());
        } else if (arg == "--metrics-out") {
            options.metrics_out = next();
        } else if (arg == "--trace-out") {
            options.trace_out = next();
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            serve_usage(stderr, argv[0]);
            return 2;
        }
    }

    // Sinks attach only when their report is requested: before the
    // server starts, detached (quiescent) after it drains.
    obs::MetricsRegistry registry;
    obs::TraceSession trace;
    if (!options.metrics_out.empty())
        obs::attach_metrics(&registry);
    if (!options.trace_out.empty())
        obs::attach_trace(&trace);

    if (::pipe(g_signal_pipe) != 0)
        fatal("serve: pipe(): ", errno_text(errno));
    struct sigaction action{};
    action.sa_handler = handle_shutdown_signal;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);

    Server server(options.server);
    server.start();
    std::printf("chrysalis_served listening on %s:%d\n",
                options.server.host.c_str(), server.port());
    std::fflush(stdout);

    pollfd waiter{g_signal_pipe[0], POLLIN, 0};
    while (::poll(&waiter, 1, -1) < 0 && errno == EINTR) {
    }

    std::printf("chrysalis_served draining...\n");
    std::fflush(stdout);
    server.stop();

    const ServerStatsSnapshot stats = server.stats();
    std::printf("chrysalis_served drained: %llu requests "
                "(%llu errors, %llu overloaded) over %llu connections, "
                "cache %llu/%llu hits\n",
                static_cast<unsigned long long>(stats.requests_total),
                static_cast<unsigned long long>(stats.errors_total),
                static_cast<unsigned long long>(
                    stats.overload_rejections),
                static_cast<unsigned long long>(
                    stats.connections_total),
                static_cast<unsigned long long>(stats.cache.hits),
                static_cast<unsigned long long>(stats.cache.hits +
                                                stats.cache.misses));
    std::fflush(stdout);

    obs::attach_trace(nullptr);
    obs::attach_metrics(nullptr);
    if (!options.trace_out.empty())
        trace.write_chrome_trace_file(options.trace_out);
    if (!options.metrics_out.empty())
        registry.write_json_file(options.metrics_out);

    ::close(g_signal_pipe[0]);
    ::close(g_signal_pipe[1]);
    g_signal_pipe[0] = g_signal_pipe[1] = -1;
    return 0;
}

int
run_call_cli(int argc, char** argv, int first)
{
    std::string host = "127.0.0.1";
    int port = 0;
    std::string type;
    double timeout_s = 30.0;
    FlatJsonFields params;
    for (int i = first; i < argc; ++i) {
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
        if (arg == "--help" || arg == "-h") {
            call_usage(stdout, argv[0]);
            return 0;
        } else if (arg == "--host") {
            host = next();
        } else if (arg == "--port") {
            port = parse_int_flag(arg, next());
        } else if (arg == "--type") {
            type = next();
        } else if (arg == "--timeout") {
            timeout_s = parse_double_flag(arg, next());
        } else if (arg.rfind("--", 0) == 0 && arg.size() > 2) {
            params[arg.substr(2)] = next();
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            call_usage(stderr, argv[0]);
            return 2;
        }
    }
    if (port <= 0)
        fatal("--port is required (the server prints it on startup)");
    if (type.empty())
        fatal("--type is required (eval_design_point|eval_mapping|"
              "sim_step|server_stats|health)");

    Client client;
    if (!client.connect(host, port, timeout_s))
        fatal("cannot connect to ", host, ":", port);
    Response response;
    if (!client.call(type, params, response))
        fatal("request failed talking to ", host, ":", port);
    std::printf("%s\n", response.raw.c_str());
    if (response.ok && type == "server_stats") {
        // Human summary after the raw payload (scripts read line 1);
        // the '#' prefix keeps it unambiguous. Quantiles are histogram
        // bucket upper edges, hence the "<=".
        std::uint64_t count = 0;
        double p50_s = 0.0;
        double p95_s = 0.0;
        double p99_s = 0.0;
        if (json_get_uint64(response.fields, "latency_count", count) &&
            json_get_double(response.fields, "latency_p50_s", p50_s) &&
            json_get_double(response.fields, "latency_p95_s", p95_s) &&
            json_get_double(response.fields, "latency_p99_s", p99_s)) {
            std::printf("# latency: %llu requests, p50<=%gs p95<=%gs "
                        "p99<=%gs\n",
                        static_cast<unsigned long long>(count), p50_s,
                        p95_s, p99_s);
        }
    }
    return response.ok ? 0 : 1;
}

}  // namespace chrysalis::serve
