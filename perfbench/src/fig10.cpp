/// \file
/// fig10: regenerates Figure 10 at the quick budget — 4 Table-V networks
/// x {TPU, Eyeriss} x 3 objectives x 7 methods = 168 explorations, run
/// one after another exactly as bench_fig10_swap_design does (the
/// CHRYSALIS run of each cell is portfolio-seeded with the feasible
/// ablation results), each on a kComputeThreads-thread evaluation pool.
///
/// One pass is one regeneration of the figure. The op is one
/// exploration; its output is the best design and score.

#include <cstdio>
#include <sstream>

#include "core/chrysalis.hpp"
#include "dnn/model_zoo.hpp"
#include "hw/accelerator.hpp"
#include "obs/trace.hpp"
#include "profile.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = chrysalis::core;
namespace dnn = chrysalis::dnn;
namespace hw = chrysalis::hw;
namespace search = chrysalis::search;

/// Quick-budget knobs of bench_fig10_swap_design.
constexpr int kPopulation = 24;
constexpr int kGenerations = 16;
constexpr std::size_t kMappingCandidates = 5;
constexpr std::size_t kMemoCapacity = 4096;

const search::Objective kObjectives[] = {
    {search::ObjectiveKind::kLatency, /*sp_limit=*/20.0, 0.0},
    {search::ObjectiveKind::kSolarPanel, 0.0, /*lat_limit=*/10.0},
    {search::ObjectiveKind::kLatSp, 0.0, 0.0},
};
const hw::AcceleratorArch kArchs[] = {hw::AcceleratorArch::kTpu,
                                      hw::AcceleratorArch::kEyeriss};
constexpr std::size_t kMethods = 7;  // search::all_baselines()

struct Op {
    std::size_t network = 0;  ///< index into dnn::table5_workloads()
    hw::AcceleratorArch arch = hw::AcceleratorArch::kTpu;
    std::size_t objective = 0;
    search::BaselineKind method = search::BaselineKind::kFull;
    std::uint64_t ga_seed = 0;
};

/// Cells in bench_fig10_swap_design order (network, arch, objective),
/// GA seed = seed + cell number (1-based), methods in Table-VI order
/// with CHRYSALIS last.
std::vector<Op>
generate_ops(std::uint64_t seed)
{
    std::vector<Op> ops;
    std::uint64_t cell_seed = seed;
    for (std::size_t net = 0; net < dnn::table5_workloads().size(); ++net) {
        for (const auto arch : kArchs) {
            for (std::size_t objective = 0; objective < 3; ++objective) {
                ++cell_seed;
                for (const auto method : search::all_baselines())
                    ops.push_back({net, arch, objective, method, cell_seed});
            }
        }
    }
    return ops;
}

struct Inputs {
    std::vector<dnn::Model> models;
    std::vector<Op> ops;
};

Inputs
build_inputs(std::uint64_t seed)
{
    Inputs inputs;
    for (const auto& name : dnn::table5_workloads())
        inputs.models.push_back(dnn::make_model(name));
    inputs.ops = generate_ops(seed);
    return inputs;
}

search::ExplorerOptions
explorer_options(std::uint64_t ga_seed, int threads)
{
    search::ExplorerOptions options;
    options.outer.population = kPopulation;
    options.outer.generations = kGenerations;
    options.outer.seed = ga_seed;
    options.outer.threads = threads;
    options.inner.max_candidates_per_dim = kMappingCandidates;
    options.cache_capacity = kMemoCapacity;
    return options;
}

/// The op's output: best design and score, every double round-tripped.
std::string
solution_text(const core::AuTSolution& solution)
{
    const auto& hardware = solution.hardware;
    std::ostringstream text;
    text << "feasible=" << solution.feasible
         << " score=" << fmt17(solution.score)
         << " latency_s=" << fmt17(solution.mean_latency_s)
         << " lat_sp=" << fmt17(solution.lat_sp)
         << " family=" << static_cast<int>(hardware.family)
         << " solar_cm2=" << fmt17(hardware.solar_cm2)
         << " capacitance_f=" << fmt17(hardware.capacitance_f)
         << " arch=" << hw::to_string(hardware.arch)
         << " n_pe=" << hardware.n_pe << " cache_bytes=" << hardware.cache_bytes
         << " failure=" << chrysalis::fault::to_string(solution.failure.code);
    return text.str();
}

/// One regeneration of the figure; returns every op's output text.
std::vector<std::string>
regenerate(const Inputs& inputs, int threads)
{
    std::vector<std::string> outputs(inputs.ops.size());
    for (std::size_t cell = 0; cell < inputs.ops.size(); cell += kMethods) {
        std::vector<search::HwCandidate> portfolio;
        for (std::size_t i = cell; i < cell + kMethods; ++i) {
            const Op& op = inputs.ops[i];
            search::DesignSpace space = search::apply_baseline(
                search::DesignSpace::future_aut(), op.method);
            space.search_arch = false;
            space.defaults.arch = op.arch;
            const bool is_full = op.method == search::BaselineKind::kFull;
            const core::Chrysalis tool(
                {inputs.models[op.network], space,
                 kObjectives[op.objective],
                 explorer_options(op.ga_seed, threads)});
            core::AuTSolution solution;
            {
                OBS_SPAN("bench/explore");
                solution = tool.generate(
                    is_full ? portfolio
                            : std::vector<search::HwCandidate>{});
            }
            if (!is_full && solution.feasible)
                portfolio.push_back(solution.hardware);
            outputs[i] = solution_text(solution);
        }
    }
    return outputs;
}

std::string
golden_path(const RunConfig& config, std::uint64_t seed)
{
    return config.golden_dir + "/fig10_seed" + std::to_string(seed) + ".txt";
}

std::string
dump_inputs(std::uint64_t seed)
{
    std::ostringstream out;
    const auto ops = generate_ops(seed);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        out << i << " cell=" << i / kMethods + 1
            << " network=" << dnn::table5_workloads()[op.network]
            << " arch=" << hw::to_string(op.arch)
            << " objective="
            << search::to_string(kObjectives[op.objective].kind)
            << " method=" << search::to_string(op.method)
            << " ga_seed=" << op.ga_seed << '\n';
    }
    return out.str();
}

void
record_golden(const RunConfig& config)
{
    const Inputs inputs = build_inputs(config.seed);
    const auto outputs = regenerate(inputs, 1);
    for (std::size_t i = 0; i < outputs.size(); ++i)
        std::printf("%zu %s\n", i, outputs[i].c_str());
    write_golden(golden_path(config, config.seed),
                 "fig10 seed " + std::to_string(config.seed) +
                     ": digest of each exploration's best design and "
                     "score, recorded at 1 thread",
                 digests(outputs));
}

void
add_layer_metrics(const Inputs& inputs, const TraceCapture& capture,
                  double wall_s, RunResult& result)
{
    const auto events = capture.events();
    add_shared_layer_metrics(capture, events, "search/inner", wall_s,
                             result);
    add_profile_notes(events, result);
    std::vector<ProbeTarget> targets;
    for (const auto& model : inputs.models) {
        for (const auto arch : kArchs) {
            ProbeTarget target;
            target.model = &model;
            target.hardware = search::DesignSpace::future_aut().defaults;
            target.hardware.arch = arch;
            target.max_candidates_per_dim = kMappingCandidates;
            targets.push_back(target);
        }
    }
    result.layer["dataflow.analyze_layer_ns"] =
        1e9 * analyze_layer_probe_s(targets);
}

void
run(const RunConfig& config, RunResult& result)
{
    const Inputs inputs = build_inputs(config.seed);
    result.op_name = "exploration";
    result.ops_per_pass = inputs.ops.size();
    if (config.setup_only) {
        result.timed_start_mono_s = monotonic_s();
        return;
    }

    std::vector<std::vector<std::uint64_t>> pass_digests;
    run_passes(config, result, [&](TraceCapture* capture) {
        PassTiming timing;
        timing.start_mono_s = monotonic_s();
        const double cpu_before = process_cpu_s();
        const auto outputs = regenerate(inputs, kComputeThreads);
        timing.wall_s = monotonic_s() - timing.start_mono_s;
        timing.cpu_s = process_cpu_s() - cpu_before;
        pass_digests.push_back(digests(outputs));
        if (capture != nullptr && result.layer.empty()) {
            capture->detach();
            add_layer_metrics(inputs, *capture, timing.wall_s, result);
        }
        return timing;
    });

    std::vector<std::uint64_t> reference;
    if (!read_golden(golden_path(config, config.seed), reference)) {
        result.notes.push_back(
            "NOT golden-checked: no golden digests for seed " +
            std::to_string(config.seed) +
            "; the reference is a 1-thread regeneration by this same "
            "build, so only outputs that depend on the thread count can "
            "fail");
        reference = digests(regenerate(inputs, 1));
    }
    for (const auto& pass : pass_digests) {
        result.attempted += pass.size();
        result.failed += count_mismatches(pass, reference);
    }
}

}  // namespace

const Workload kFig10 = {"fig10", dump_inputs, record_golden, run};

}  // namespace perfbench
