/// \file
/// campaign_tableiv: core::run_campaign over CampaignSpec cases of the
/// four Table-IV networks on the existing-AuT (MSP430) space. Cases are
/// interleaved network by network, objectives cycle per network as
/// CampaignSpec does, cases fan out on kComputeThreads campaign threads
/// with each case's GA serial, and a deterministic journal is written to
/// a file in the output directory.
///
/// One pass is one campaign. The op is one case; its output is the
/// case's deterministic CSV row.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>

#include "core/campaign.hpp"
#include "core/campaign_spec.hpp"
#include "dnn/model_zoo.hpp"
#include "obs/trace.hpp"
#include "profile.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = chrysalis::core;
namespace dnn = chrysalis::dnn;
namespace search = chrysalis::search;

constexpr int kCasesPerNetwork = 48;

struct Inputs {
    std::vector<dnn::Model> models;
    std::vector<core::CampaignCase> cases;
    search::ExplorerOptions options;
    std::unique_ptr<chrysalis::fault::FaultInjector> faults;  // stays null
};

core::CampaignSpec
network_spec(const std::string& network, std::uint64_t seed)
{
    core::CampaignSpec spec;
    spec.model = network;
    spec.space = "existing";
    spec.cases = kCasesPerNetwork;
    spec.seed = seed;
    return spec;
}

std::unique_ptr<Inputs>
build_inputs(std::uint64_t seed)
{
    auto inputs = std::make_unique<Inputs>();
    const auto& networks = dnn::table4_workloads();
    std::vector<std::vector<core::CampaignCase>> per_network;
    for (const auto& network : networks) {
        inputs->models.push_back(dnn::make_model(network));
        per_network.push_back(core::build_campaign_cases(
            network_spec(network, seed), inputs->models.back()));
    }
    for (int i = 0; i < kCasesPerNetwork; ++i) {
        for (auto& cases : per_network)
            inputs->cases.push_back(cases[static_cast<std::size_t>(i)]);
    }
    inputs->options = core::build_explorer_options(
        network_spec(networks.front(), seed), inputs->faults);
    inputs->options.outer.threads = 1;  // the GA inside a case is serial
    return inputs;
}

struct PassOutput {
    std::vector<std::string> rows;  ///< deterministic CSV row per case
    std::vector<bool> crashed;      ///< per case
};

/// What a measured pass keeps until the check: a digest per case.
struct PassDigests {
    std::vector<std::uint64_t> rows;
    std::vector<bool> crashed;
};

core::CampaignResult
run_campaign_pass(const Inputs& inputs, int threads,
                  const std::string& journal_path)
{
    core::CampaignOptions options;
    options.threads = threads;
    options.journal_path = journal_path;
    options.deterministic_journal = true;
    options.progress_interval_s = 1e9;
    OBS_SPAN("bench/run_campaign");
    return core::run_campaign(inputs.cases, inputs.options, options);
}

PassOutput
pass_output(const core::CampaignResult& result)
{
    PassOutput output;
    std::ostringstream csv;
    result.write_csv(csv, core::CsvColumns::kDeterministic);
    std::istringstream lines(csv.str());
    std::string line;
    std::getline(lines, line);  // header
    while (std::getline(lines, line))
        output.rows.push_back(line);
    for (const auto& entry : result.entries) {
        output.crashed.push_back(entry.solution.failure.code ==
                                 chrysalis::fault::FailureCode::kCrashed);
    }
    return output;
}

std::string
golden_path(const RunConfig& config, std::uint64_t seed)
{
    return config.golden_dir + "/campaign_tableiv_seed" +
           std::to_string(seed) + ".txt";
}

std::string
journal_path(const RunConfig& config)
{
    return config.out_dir + "/campaign_journal.jsonl";
}

std::string
dump_inputs(std::uint64_t seed)
{
    const auto inputs = build_inputs(seed);
    std::ostringstream out;
    out << "base_seed=" << inputs->options.outer.seed
        << " population=" << inputs->options.outer.population
        << " generations=" << inputs->options.outer.generations << '\n';
    for (std::size_t i = 0; i < inputs->cases.size(); ++i) {
        const auto& c = inputs->cases[i];
        out << i << " label=" << c.label << " model=" << c.model.name()
            << " objective=" << chrysalis::search::to_string(c.objective.kind)
            << " sp_limit=" << fmt17(c.objective.sp_limit_cm2)
            << " lat_limit=" << fmt17(c.objective.lat_limit_s) << '\n';
    }
    return out.str();
}

void
record_golden(const RunConfig& config)
{
    const auto inputs = build_inputs(config.seed);
    std::filesystem::remove(journal_path(config));
    const PassOutput output =
        pass_output(run_campaign_pass(*inputs, 1, journal_path(config)));
    for (const auto& row : output.rows)
        std::printf("%s\n", row.c_str());
    write_golden(golden_path(config, config.seed),
                 "campaign_tableiv seed " + std::to_string(config.seed) +
                     ": digest of each case's deterministic CSV row, "
                     "recorded at 1 thread",
                 digests(output.rows));
}

void
add_layer_metrics(const Inputs& inputs, const TraceCapture& capture,
                  double wall_s, const std::string& journal,
                  RunResult& result)
{
    const auto events = capture.events();
    add_shared_layer_metrics(capture, events, "case:*", wall_s, result);
    add_profile_notes(events, result);
    auto& layer = result.layer;
    layer["core.campaign.cases"] =
        static_cast<double>(capture.counter("campaign/cases_evaluated"));
    layer["core.campaign.retries"] =
        static_cast<double>(capture.counter("campaign/case_retries"));
    layer["core.campaign.crashed"] =
        static_cast<double>(capture.counter("campaign/cases_crashed"));
    layer["core.journal.bytes"] =
        static_cast<double>(std::filesystem::file_size(journal));
    std::vector<ProbeTarget> targets;
    for (const auto& model : inputs.models) {
        ProbeTarget target;
        target.model = &model;
        target.hardware = search::DesignSpace::existing_aut().defaults;
        target.max_candidates_per_dim =
            inputs.options.inner.max_candidates_per_dim;
        targets.push_back(target);
    }
    layer["dataflow.analyze_layer_ns"] = 1e9 * analyze_layer_probe_s(targets);
}

void
run(const RunConfig& config, RunResult& result)
{
    const auto inputs = build_inputs(config.seed);
    const std::string journal = journal_path(config);
    std::filesystem::remove(journal);
    result.op_name = "case";
    result.ops_per_pass = inputs->cases.size();
    if (config.setup_only) {
        result.timed_start_mono_s = monotonic_s();
        return;
    }

    std::vector<PassDigests> outputs;
    run_passes(config, result, [&](TraceCapture* capture) {
        std::filesystem::remove(journal);
        PassTiming timing;
        timing.start_mono_s = monotonic_s();
        const double cpu_before = process_cpu_s();
        const core::CampaignResult campaign =
            run_campaign_pass(*inputs, kComputeThreads, journal);
        timing.wall_s = monotonic_s() - timing.start_mono_s;
        timing.cpu_s = process_cpu_s() - cpu_before;
        PassOutput output = pass_output(campaign);
        outputs.push_back({digests(output.rows), std::move(output.crashed)});
        if (capture != nullptr && result.layer.empty()) {
            capture->detach();
            add_layer_metrics(*inputs, *capture, timing.wall_s, journal,
                              result);
        }
        return timing;
    });

    std::vector<std::uint64_t> reference;
    if (!read_golden(golden_path(config, config.seed), reference)) {
        result.notes.push_back(
            "NOT golden-checked: no golden digests for seed " +
            std::to_string(config.seed) +
            "; the reference is a 1-thread campaign of this same build, "
            "so only outputs that depend on the thread count can fail");
        std::filesystem::remove(journal);
        reference =
            digests(pass_output(run_campaign_pass(*inputs, 1, journal)).rows);
    }
    for (const auto& output : outputs) {
        result.attempted += output.rows.size();
        for (std::size_t i = 0; i < output.rows.size(); ++i) {
            if (i >= reference.size() || output.rows[i] != reference[i] ||
                output.crashed[i])
                ++result.failed;
        }
    }
}

}  // namespace

const Workload kCampaignTableIv = {"campaign_tableiv", dump_inputs,
                                   record_golden, run};

}  // namespace perfbench
