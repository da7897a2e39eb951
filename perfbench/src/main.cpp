/// \file
/// chrysalis_perfbench: runs one workload of the repository benchmark and
/// prints its measurements. perfbench/run.py is the entry point; it adds
/// the process-launch part of setup_s and formats the report.
///
/// Usage:
///   chrysalis_perfbench --workload NAME [--seed N] [--seconds S]
///                       [--trace 0|1] [--setup-only] [--dump-inputs]
///                       [--record-golden] [--golden-dir DIR]
///                       [--out-dir DIR] [--zipf S]
///
/// --zipf sets serve_mix's key-popularity exponent (default
/// kDefaultZipfExponent), for measuring how much its results depend on
/// that assumption.
///
/// Output: report lines, then one JSON line with the raw measurements.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

const Workload*
find_workload(const std::string& name)
{
    for (const Workload* workload : {&kFig10, &kCampaignTableIv, &kServeMix}) {
        if (name == workload->name)
            return workload;
    }
    return nullptr;
}

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: chrysalis_perfbench --workload fig10|campaign_tableiv|"
                 "serve_mix\n"
                 "         [--seed N] [--seconds S] [--trace 0|1]\n"
                 "         [--setup-only] [--dump-inputs] [--record-golden]\n"
                 "         [--golden-dir DIR] [--out-dir DIR] [--zipf S]\n");
}

bool
parse_args(int argc, char** argv, RunConfig& config)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            config.workload = value();
        else if (arg == "--seed")
            config.seed = std::stoull(value());
        else if (arg == "--seconds")
            config.seconds = std::stod(value());
        else if (arg == "--trace")
            config.trace = std::stoi(value()) != 0;
        else if (arg == "--setup-only")
            config.setup_only = true;
        else if (arg == "--dump-inputs")
            config.dump_inputs = true;
        else if (arg == "--record-golden")
            config.record_golden = true;
        else if (arg == "--golden-dir")
            config.golden_dir = value();
        else if (arg == "--out-dir")
            config.out_dir = value();
        else if (arg == "--zipf")
            config.zipf_exponent = std::stod(value());
        else
            return false;
    }
    return find_workload(config.workload) != nullptr && config.seconds > 0.0;
}

/// "[a,b,...]" of \p values.
std::string
json_list(const std::vector<double>& values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out += ',';
        out += fmt17(values[i]);
    }
    return out + "]";
}

void
print_result(const RunConfig& config, const RunResult& result,
             double calibration)
{
    std::string metrics;
    const auto add = [&](const std::string& name, double value) {
        metrics += (metrics.empty() ? "\"" : ",\"") + name +
                   "\":" + fmt17(value);
    };
    if (config.trace) {
        std::map<std::string, double> layer = result.layer;
        layer["obs.trace_overhead_s"] =
            median(result.traced_wall_s) - median(result.pass_wall_s);
        for (const auto& [name, value] : layer)
            add(name, value);
    } else {
        const double wall = median(result.pass_wall_s);
        add("wall_s", wall);
        add("throughput_per_s",
            wall > 0.0 ? static_cast<double>(result.ops_per_pass) / wall
                       : 0.0);
        if (result.pass_latency_p50_s.empty()) {
            // The DSE workloads' ops cluster by network, so a percentile
            // over them jumps between clusters; their latency is that of
            // one pass, and a run has too few passes for a p99 with ten
            // samples beyond it, so both read the median pass.
            add("latency_p50_ms", 1e3 * wall);
            add("latency_p99_ms", 1e3 * wall);
        } else {
            // A pass's tail is set by how often the host stalls a vCPU,
            // and that share drifts between runs, so the median over
            // passes jumps; the lower quartile reports the tail of the
            // quieter passes. See perfbench/README.md.
            add("latency_p50_ms", 1e3 * median(result.pass_latency_p50_s));
            add("latency_p99_ms",
                1e3 * percentile(result.pass_latency_p99_s, 0.25));
        }
        add("cpu_s", median(result.pass_cpu_s));
        add("peak_rss_mb", result.peak_rss_mb);
    }
    for (const auto& note : result.notes)
        std::printf("%s\n", note.c_str());
    std::printf("{\"op\":\"%s\",\"ops_per_pass\":%llu,\"pass_wall_s\":%s,"
                "\"traced_passes\":%zu,\"timed_start_mono_s\":%s,"
                "\"loadgen_s\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"calibration_s\":%s,\"metrics\":{%s}}\n",
                result.op_name.c_str(),
                static_cast<unsigned long long>(result.ops_per_pass),
                json_list(result.pass_wall_s).c_str(),
                result.traced_wall_s.size(),
                fmt17(result.timed_start_mono_s).c_str(),
                fmt17(result.loadgen_s).c_str(),
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                fmt17(calibration).c_str(), metrics.c_str());
}

}  // namespace

}  // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    RunConfig config;
    try {
        if (!parse_args(argc, argv, config)) {
            usage();
            return 2;
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "chrysalis_perfbench: %s\n", error.what());
        usage();
        return 2;
    }
    const Workload& workload = *find_workload(config.workload);
    try {
        if (config.dump_inputs) {
            std::cout << workload.dump_inputs(config.seed);
            return 0;
        }
        std::filesystem::create_directories(config.out_dir);
        if (config.record_golden) {
            workload.record_golden(config);
            return 0;
        }
        // Before the workload starts any thread, so all of them inherit it.
        const std::string cpus = confine_to_last_cpus(kComputeThreads);
        RunResult result;
        if (!cpus.empty())
            result.notes.push_back("confined to CPUs " + cpus);
        workload.run(config, result);
        if (config.setup_only) {
            std::printf("{\"timed_start_mono_s\":%s,\"loadgen_s\":%s}\n",
                        fmt17(result.timed_start_mono_s).c_str(),
                        fmt17(result.loadgen_s).c_str());
            return 0;
        }
        std::vector<double> calibration;
        for (int i = 0; i < 3; ++i)
            calibration.push_back(calibration_s());
        print_result(config, result, median(calibration));
    } catch (const std::exception& error) {
        std::fprintf(stderr, "chrysalis_perfbench: %s\n", error.what());
        return 1;
    }
    return 0;
}
