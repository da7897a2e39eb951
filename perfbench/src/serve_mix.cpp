/// \file
/// serve_mix: a closed loop against an in-process serve::Server with
/// kComputeThreads eval threads, driven by 2 blocking connections that
/// each send their next request only after the previous reply arrived.
///
/// The mix is chrysalis_bench_load's: 60% eval_design_point, 25%
/// eval_mapping, 10% sim_step, 5% server_stats. Eval requests are drawn
/// from a fixed universe built from bench_load's parameter pools with
/// one axis widened: the panel size runs over the design space's whole
/// 1-30 cm^2 range at 0.25 cm^2 instead of bench_load's five sizes, so
/// the universe (9,477 requests) outgrows the server's 4,096-entry
/// response memo. Popularity is Zipf-skewed with an assumed exponent
/// (RunConfig::zipf_exponent, set with --zipf); the seed picks which
/// requests are popular and the order they arrive in.
///
/// One pass is one block of kRequestsPerPass requests against a freshly
/// started server (cold memo), so every pass does the same work. The op
/// is one request; its output is the reply body minus `id` and the
/// `timing_*` fields, checked against the universe's golden digests.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/flat_json.hpp"
#include "common/string_utils.hpp"
#include "dnn/model_zoo.hpp"
#include "obs/trace.hpp"
#include "profile.hpp"
#include "search/mapping_search.hpp"
#include "serve/client.hpp"
#include "serve/handlers.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace dnn = chrysalis::dnn;
namespace obs = chrysalis::obs;
namespace search = chrysalis::search;
namespace serve = chrysalis::serve;

constexpr std::size_t kRequestsPerPass = 12000;
constexpr int kConnections = 2;

const char* const kTypes[] = {"eval_design_point", "eval_mapping",
                              "sim_step", "server_stats"};
constexpr std::size_t kStatsType = 3;

// chrysalis_bench_load's pools.
const char* const kModels[] = {"kws", "har", "simple_conv"};
const char* const kObjectives[] = {"latsp", "lat", "sp"};
const double kCapacitance[] = {50e-6, 100e-6, 200e-6};

// The widened axis. bench_load draws its panel size from 4-12 cm^2 in
// 2 cm^2 steps. Here it spans the design space's range (1-30 cm^2) and
// the step is bench_load's halved until one pass of bench_load's own
// uniform traffic touches more distinct requests than the memo holds:
// 2 -> 1 -> 0.5 -> 0.25 cm^2.
constexpr double kSolarMin = 1.0;
constexpr double kSolarStep = 0.25;
constexpr std::size_t kSolarSizes = 117;  // 1, 1.25, ..., 30 cm^2

constexpr std::size_t kKeysPerType =
    std::size(kModels) * std::size(kObjectives) * kSolarSizes *
    std::size(kCapacitance);
constexpr std::size_t kUniverse = 3 * kKeysPerType;

/// One request of the stream: its type and, for eval types, its index
/// in the universe (kUniverse for server_stats).
struct Request {
    std::size_t type = 0;
    std::size_t key = kUniverse;
};

/// Parameters of universe request \p key (without the type).
chrysalis::FlatJsonFields
universe_params(std::size_t key)
{
    std::size_t rest = key % kKeysPerType;
    const std::size_t cap = rest % std::size(kCapacitance);
    rest /= std::size(kCapacitance);
    const std::size_t solar = rest % kSolarSizes;
    rest /= kSolarSizes;
    const std::size_t objective = rest % std::size(kObjectives);
    const std::size_t model = rest / std::size(kObjectives);
    chrysalis::FlatJsonFields params;
    params["model"] = kModels[model];
    params["objective"] = kObjectives[objective];
    params["solar_cm2"] = chrysalis::format_double_17g(
        kSolarMin + kSolarStep * static_cast<double>(solar));
    params["capacitance_f"] = chrysalis::format_double_17g(kCapacitance[cap]);
    if (key / kKeysPerType == 2) {  // sim_step
        params["runs"] = "1";
        params["step_s"] = "0.05";
    }
    return params;
}

std::vector<Request>
generate_stream(std::uint64_t seed, double zipf_exponent)
{
    SplitMix rng(seed);
    // Per eval type, a seeded permutation decides which requests are
    // popular; ranks are drawn from a Zipf law over the permutation.
    std::vector<std::vector<std::size_t>> popular(3);
    for (auto& order : popular) {
        order.resize(kKeysPerType);
        std::iota(order.begin(), order.end(), std::size_t{0});
        for (std::size_t i = order.size() - 1; i > 0; --i)
            std::swap(order[i], order[rng.below(i + 1)]);
    }
    std::vector<double> cdf(kKeysPerType);
    double total = 0.0;
    for (std::size_t rank = 0; rank < kKeysPerType; ++rank) {
        total += 1.0 / std::pow(static_cast<double>(rank + 1), zipf_exponent);
        cdf[rank] = total;
    }
    for (auto& value : cdf)
        value /= total;

    std::vector<Request> stream(kRequestsPerPass);
    for (auto& request : stream) {
        const double dice = rng.uniform();
        request.type = dice < 0.60 ? 0 : dice < 0.85 ? 1 : dice < 0.95 ? 2
                                                                      : 3;
        if (request.type == kStatsType)
            continue;
        const auto rank = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), rng.uniform()) -
            cdf.begin());
        request.key = request.type * kKeysPerType +
                      popular[request.type][std::min(rank, kKeysPerType - 1)];
    }
    return stream;
}

/// Wire payloads of the stream; request i carries id i+1 and, in a
/// traced run, a trace context.
std::vector<std::string>
build_payloads(const std::vector<Request>& stream, bool traced)
{
    serve::Client encoder;  // unconnected: used only for build_request
    std::vector<std::string> payloads;
    payloads.reserve(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        chrysalis::FlatJsonFields params;
        if (stream[i].type != kStatsType)
            params = universe_params(stream[i].key);
        if (traced) {
            obs::TraceContext context;
            context.trace_id = i + 1;
            params["trace"] = obs::format_trace_field(context);
        }
        encoder.set_next_id(i + 1);
        payloads.push_back(encoder.build_request(kTypes[stream[i].type],
                                                 params));
    }
    return payloads;
}

/// The response body a handler produced: the reply minus its `v`/`id`
/// prefix, the trailing '}' and any spliced `timing_*` fields. Empty
/// when the reply does not carry id \p expected_id.
std::string
reply_body(const std::string& reply, std::uint64_t expected_id)
{
    const std::string prefix = std::string("{\"v\":\"") +
                               serve::kProtocolVersion + "\",\"id\":" +
                               std::to_string(expected_id) + ",";
    if (reply.size() <= prefix.size() ||
        reply.compare(0, prefix.size(), prefix) != 0 || reply.back() != '}')
        return {};
    std::size_t end = reply.find(",\"timing_queue_s\":", prefix.size());
    if (end == std::string::npos)
        end = reply.size() - 1;
    return reply.substr(prefix.size(), end - prefix.size());
}

/// Value of numeric field \p name in \p reply, 0 when absent.
double
reply_number(const std::string& reply, const char* name)
{
    const std::string key = std::string("\"") + name + "\":";
    const std::size_t at = reply.find(key);
    return at == std::string::npos
               ? 0.0
               : std::strtod(reply.c_str() + at + key.size(), nullptr);
}

std::string
golden_path(const RunConfig& config)
{
    return config.golden_dir + "/serve_mix_universe.txt";
}

/// The 1-thread reference body of universe request \p key, straight from
/// the handler (no socket, no memo).
std::string
reference_body(std::size_t key)
{
    serve::Client encoder;  // unconnected: used only for build_request
    chrysalis::FlatJsonFields fields;
    chrysalis::scan_flat_json(
        encoder.build_request(kTypes[key / kKeysPerType],
                              universe_params(key)),
        fields);
    return serve::handle_request_body(fields, nullptr, {});
}

/// A started server with its connections opened and warmed up.
struct Session {
    std::unique_ptr<serve::Server> server;
    std::vector<serve::Client> clients;
    serve::ServerStatsSnapshot before;

    void
    open()
    {
        serve::ServerOptions options;
        options.threads = kComputeThreads;
        options.worker_id = "perfbench";
        server = std::make_unique<serve::Server>(options);
        server->start();
        clients.clear();
        for (int c = 0; c < kConnections; ++c) {
            serve::Client client;
            if (!client.connect("127.0.0.1", server->port()))
                throw std::runtime_error("serve_mix: connect failed");
            // Warm-up: a capacitance outside the universe keeps this
            // key out of the timed stream.
            chrysalis::FlatJsonFields params;
            params["model"] = "kws";
            params["solar_cm2"] = std::to_string(2 + c);
            params["capacitance_f"] = "0.001";
            serve::Response response;
            if (!client.call("eval_design_point", params, response) ||
                !response.ok)
                throw std::runtime_error("serve_mix: warm-up failed");
            clients.push_back(std::move(client));
        }
        before = server->stats();
    }

    void
    close()
    {
        for (auto& client : clients)
            client.close();
        clients.clear();
        if (server)
            server->stop();
        server.reset();
    }
};

struct PassOutput {
    std::vector<std::string> replies;  ///< empty = lost
    std::vector<double> rtt_s;
    serve::ServerStatsSnapshot before;
    serve::ServerStatsSnapshot after;
};

/// The timed closed loop: both connections pull the next request index
/// from a shared counter until the block is done.
void
closed_loop(Session& session, const std::vector<std::string>& payloads,
            PassOutput& output)
{
    output.replies.assign(payloads.size(), std::string());
    output.rtt_s.assign(payloads.size(), 0.0);
    std::atomic<std::size_t> next{0};
    const auto drive = [&](serve::Client& client) {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= payloads.size())
                return;
            OBS_SPAN("bench/request");
            const double start_s = monotonic_s();
            if (!client.send_frame(payloads[i]) ||
                !client.recv_frame(output.replies[i]))
                output.replies[i].clear();
            output.rtt_s[i] = monotonic_s() - start_s;
        }
    };
    std::vector<std::thread> threads;
    for (auto& client : session.clients)
        threads.emplace_back(drive, std::ref(client));
    for (auto& thread : threads)
        thread.join();
}

std::string
dump_inputs(std::uint64_t seed)
{
    std::ostringstream out;
    for (const auto& payload : build_payloads(
             generate_stream(seed, kDefaultZipfExponent), false))
        out << payload << '\n';
    return out.str();
}

void
record_golden(const RunConfig& config)
{
    std::vector<std::uint64_t> digests;
    digests.reserve(kUniverse);
    for (std::size_t key = 0; key < kUniverse; ++key)
        digests.push_back(digest(reference_body(key)));
    write_golden(golden_path(config),
                 "serve_mix: digest of the reply body (minus id and "
                 "timing) of each universe request, recorded at 1 thread",
                 digests);
}

double
micros(double seconds)
{
    return seconds * 1e6;
}

void
add_layer_metrics(const TraceCapture& capture, double wall_s,
                  const PassOutput& output, RunResult& result)
{
    const auto events = capture.events();
    add_shared_layer_metrics(capture, events, "serve/eval", wall_s, result);
    add_profile_notes(events, result);
    const auto& before = output.before;
    const auto& after = output.after;
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(a - b);
    };
    const double requests = delta(after.requests_total, before.requests_total);
    const double batches = delta(after.batches, before.batches);
    const double hits = delta(after.cache.hits, before.cache.hits);
    const double lookups = hits + delta(after.cache.misses, before.cache.misses);
    auto& layer = result.layer;
    layer["serve.requests"] = requests;
    layer["serve.error_replies"] =
        delta(after.errors_total, before.errors_total);
    layer["serve.memo.lookups"] = lookups;
    layer["serve.memo.hit_rate"] = lookups > 0 ? hits / lookups : 0.0;
    layer["serve.memo.evictions"] =
        delta(after.cache.evictions, before.cache.evictions);
    layer["serve.batches"] = batches;
    layer["serve.batch_size_mean"] = batches > 0 ? requests / batches : 0.0;

    std::vector<double> queue, decode, eval, encode, transport;
    for (std::size_t i = 0; i < output.replies.size(); ++i) {
        const std::string& reply = output.replies[i];
        if (reply.empty())
            continue;
        const double q = reply_number(reply, "timing_queue_s");
        const double d = reply_number(reply, "timing_decode_s");
        const double e = reply_number(reply, "timing_eval_s");
        const double n = reply_number(reply, "timing_encode_s");
        queue.push_back(micros(q));
        decode.push_back(micros(d));
        eval.push_back(micros(e));
        encode.push_back(micros(n));
        transport.push_back(micros(output.rtt_s[i] - q - d - e - n));
    }
    layer["serve.queue_wait_us_p50"] = median(queue);
    layer["serve.decode_us_p50"] = median(decode);
    layer["serve.eval_us_p50"] = median(eval);
    layer["serve.encode_us_p50"] = median(encode);
    layer["serve.transport_us_p50"] = median(transport);

    const auto models = [] {
        std::vector<dnn::Model> list;
        for (const char* name : kModels)
            list.push_back(dnn::make_model(name));
        return list;
    }();
    std::vector<ProbeTarget> targets;
    for (const auto& model : models) {
        ProbeTarget target;
        target.model = &model;
        target.hardware = search::DesignSpace::existing_aut().defaults;
        target.max_candidates_per_dim =
            search::MappingSearchOptions{}.max_candidates_per_dim;
        targets.push_back(target);
    }
    layer["dataflow.analyze_layer_ns"] = 1e9 * analyze_layer_probe_s(targets);
}

void
run(const RunConfig& config, RunResult& result)
{
    // Generating the stream and its payloads is load-generator work:
    // timed separately so it stays out of setup_s.
    const Stopwatch loadgen;
    const std::vector<Request> stream =
        generate_stream(config.seed, config.zipf_exponent);
    const std::vector<std::string> plain = build_payloads(stream, false);
    const std::vector<std::string> traced =
        config.trace ? build_payloads(stream, true)
                     : std::vector<std::string>{};
    result.loadgen_s = loadgen.elapsed_s();
    result.op_name = "request";
    result.ops_per_pass = stream.size();

    Session session;
    session.open();
    if (config.setup_only) {
        result.timed_start_mono_s = monotonic_s();
        session.close();
        return;
    }

    std::vector<std::uint64_t> reference;
    std::vector<bool> referenced;  // empty until the first check
    std::uint64_t stats_replies = 0;
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_lookups = 0;
    std::uint64_t memo_evictions = 0;
    std::uint64_t untraced_passes = 0;
    PassOutput output;
    run_passes(config, result, [&](TraceCapture* capture) {
        if (!session.server)
            session.open();  // after run_passes attached any capture
        const auto& block = capture != nullptr ? traced : plain;
        PassTiming timing;
        timing.start_mono_s = monotonic_s();
        const double cpu_before = process_cpu_s();
        closed_loop(session, block, output);
        timing.wall_s = monotonic_s() - timing.start_mono_s;
        timing.cpu_s = process_cpu_s() - cpu_before;
        output.before = session.before;
        output.after = session.server->stats();
        session.close();
        if (capture == nullptr) {
            result.pass_latency_p50_s.push_back(median(output.rtt_s));
            result.pass_latency_p99_s.push_back(
                percentile(output.rtt_s, 0.99));
            const auto& before = output.before.cache;
            const auto& after = output.after.cache;
            memo_hits += after.hits - before.hits;
            memo_lookups += after.hits - before.hits + after.misses -
                            before.misses;
            memo_evictions += after.evictions - before.evictions;
            ++untraced_passes;
        } else if (result.layer.empty()) {
            capture->detach();
            add_layer_metrics(*capture, timing.wall_s, output, result);
        }

        // Check every reply against its reference, untimed. The golden
        // file is read after the first pass so it stays out of setup_s.
        if (referenced.empty()) {
            const bool have_golden =
                read_golden(golden_path(config), reference);
            if (!have_golden) {
                result.notes.push_back(
                    "no golden universe digests: checked against 1-thread "
                    "handler replies");
                reference.assign(kUniverse, 0);
            }
            referenced.assign(kUniverse, have_golden);
        }
        for (std::size_t i = 0; i < block.size(); ++i) {
            ++result.attempted;
            const std::string body = reply_body(output.replies[i], i + 1);
            if (body.rfind("\"ok\":1,", 0) != 0) {
                ++result.failed;  // lost, misaddressed or error reply
                continue;
            }
            const Request& request = stream[i];
            if (request.type == kStatsType) {
                ++stats_replies;  // live state: checked for shape only
                if (body.find("\"type\":\"server_stats\"") ==
                    std::string::npos)
                    ++result.failed;
                continue;
            }
            if (request.key >= reference.size()) {
                ++result.failed;
                continue;
            }
            if (!referenced[request.key]) {
                reference[request.key] = digest(reference_body(request.key));
                referenced[request.key] = true;
            }
            if (digest(body) != reference[request.key])
                ++result.failed;
        }
        return timing;
    });

    std::ostringstream line;
    line << "serve memo at Zipf(" << fmt17(config.zipf_exponent)
         << "): hit share "
         << fmt17(memo_lookups > 0 ? static_cast<double>(memo_hits) /
                                         static_cast<double>(memo_lookups)
                                   : 0.0)
         << " of " << memo_lookups << " lookups, "
         << (untraced_passes > 0 ? memo_evictions / untraced_passes : 0)
         << " evictions per pass (untraced passes); " << stats_replies
         << " server_stats replies checked for shape only";
    result.notes.push_back(line.str());
}

}  // namespace

const Workload kServeMix = {"serve_mix", dump_inputs, record_golden, run};

}  // namespace perfbench
