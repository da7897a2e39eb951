/// \file
/// Micro-benchmarks (google-benchmark) for the framework's hot paths:
/// per-layer cost analysis, whole-model analysis, the analytic evaluator,
/// the SW-level mapping search (whole, and ranking a prebuilt grid),
/// simulator stepping, and a full GA generation. These quantify the
/// analytic-vs-step-simulation ablation called out in DESIGN.md. Each
/// case's real time per iteration becomes a `<case>_ns` headline of the
/// run report.

#include <benchmark/benchmark.h>

#include "common/bench_util.hpp"
#include "core/chrysalis.hpp"
#include "dnn/model_zoo.hpp"
#include "hw/accelerator.hpp"
#include "hw/msp430_lea.hpp"
#include "search/mapping_search.hpp"
#include "sim/analytic_evaluator.hpp"
#include "sim/intermittent_simulator.hpp"

namespace {

using namespace chrysalis;

void
BM_AnalyzeLayer(benchmark::State& state)
{
    const auto layer = dnn::make_conv2d("c", 64, 128, 28, 28, 3, 1, 1);
    const hw::Msp430Lea mcu;
    const auto params = mcu.cost_params();
    dataflow::LayerMapping mapping;
    mapping.tiles_k = 4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dataflow::analyze_layer(layer, mapping, params));
    }
}
BENCHMARK(BM_AnalyzeLayer);

void
BM_AnalyzeModelVgg16(benchmark::State& state)
{
    const auto model = dnn::make_vgg16();
    hw::ReconfigurableAccelerator::Config config;
    const hw::ReconfigurableAccelerator accel(config);
    const auto params = accel.cost_params();
    for (auto _ : state) {
        benchmark::DoNotOptimize(dataflow::analyze_model_untiled(
            model, dataflow::Dataflow::kRowStationary, params));
    }
}
BENCHMARK(BM_AnalyzeModelVgg16);

void
BM_AnalyticEvaluate(benchmark::State& state)
{
    const auto model = dnn::make_cifar10_cnn();
    const hw::Msp430Lea mcu;
    const auto cost = dataflow::analyze_model_untiled(
        model, dataflow::Dataflow::kWeightStationary, mcu.cost_params());
    sim::EnergyEnv env;
    env.p_eh_w = 16e-3;
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::analytic_evaluate(cost, env));
}
BENCHMARK(BM_AnalyticEvaluate);

void
BM_StepSimulatorKws(benchmark::State& state)
{
    const auto model = dnn::make_kws_mlp();
    const hw::Msp430Lea mcu;
    std::vector<dataflow::LayerMapping> mappings(model.layer_count());
    for (std::size_t i = 0; i < mappings.size(); ++i) {
        mappings[i].tiles_k = 4;
        mappings[i].clamp_to(model.layer(i));
    }
    const auto cost =
        dataflow::analyze_model(model, mappings, mcu.cost_params());
    sim::SimConfig config;
    config.step_s = 0.01;
    for (auto _ : state) {
        energy::Capacitor::Config cap;
        cap.capacitance_f = 470e-6;
        cap.initial_voltage_v = 3.5;
        energy::EnergyController controller(
            std::make_unique<energy::SolarPanel>(
                8.0, std::make_shared<energy::ConstantSolarEnvironment>(
                         2e-3, "bm")),
            energy::Capacitor(cap),
            energy::PowerManagementIc{
                energy::PowerManagementIc::Config{}});
        benchmark::DoNotOptimize(
            sim::simulate_inference(cost, controller, config));
    }
}
BENCHMARK(BM_StepSimulatorKws);

void
BM_MappingSearchCifar(benchmark::State& state)
{
    const auto model = dnn::make_cifar10_cnn();
    const hw::Msp430Lea mcu;
    sim::EnergyEnv env;
    env.p_eh_w = 16e-3;
    search::MappingSearchOptions options;
    options.max_candidates_per_dim =
        static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            search::search_mappings(model, mcu, {env}, options));
    }
}
BENCHMARK(BM_MappingSearchCifar)->Arg(4)->Arg(6)->Arg(8);

void
BM_MappingGridSearchCifar(benchmark::State& state)
{
    // The ranking half of BM_MappingSearchCifar: the grid is analyzed
    // once, as a fixed-hardware explorer does, and each iteration ranks
    // it against one environment.
    const auto model = dnn::make_cifar10_cnn();
    const search::MappingGrid grid(model, hw::Msp430Lea(),
                                   static_cast<std::size_t>(state.range(0)));
    sim::EnergyEnv env;
    env.p_eh_w = 16e-3;
    const std::vector<sim::EnergyEnv> envs = {env};
    for (auto _ : state)
        benchmark::DoNotOptimize(grid.rank(envs));
}
BENCHMARK(BM_MappingGridSearchCifar)->Arg(4)->Arg(6)->Arg(8);

void
BM_ExplorerGeneration(benchmark::State& state)
{
    // One full outer-GA evaluation batch on the quickstart scenario.
    core::ChrysalisInputs inputs{
        dnn::make_simple_conv(),
        search::DesignSpace::existing_aut(),
        search::Objective{search::ObjectiveKind::kLatSp, 0.0, 0.0},
        search::ExplorerOptions{},
    };
    inputs.options.outer.population = 8;
    inputs.options.outer.generations = 2;
    inputs.options.inner.max_candidates_per_dim = 4;
    const core::Chrysalis tool(std::move(inputs));
    for (auto _ : state)
        benchmark::DoNotOptimize(tool.generate());
}
BENCHMARK(BM_ExplorerGeneration);

void
BM_EnergyControllerStep(benchmark::State& state)
{
    energy::Capacitor::Config cap;
    cap.capacitance_f = 470e-6;
    cap.initial_voltage_v = 3.0;
    energy::EnergyController controller(
        std::make_unique<energy::SolarPanel>(
            8.0, std::make_shared<energy::ConstantSolarEnvironment>(
                     2e-3, "bm")),
        energy::Capacitor(cap),
        energy::PowerManagementIc{energy::PowerManagementIc::Config{}});
    double t = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(controller.step(t, 0.01, 3e-3));
        t += 0.01;
    }
}
BENCHMARK(BM_EnergyControllerStep);

/// Passes every run on to the default display reporter (so the console
/// flags still apply) and records each case's real time per iteration as
/// a `<case>_ns` headline, e.g. `BM_MappingSearchCifar/6_ns`. With
/// repetitions, the median stands for the case.
class HeadlineReporter : public benchmark::BenchmarkReporter
{
  public:
    bool
    ReportContext(const Context& context) override
    {
        return display_->ReportContext(context);
    }

    void
    ReportRuns(const std::vector<Run>& runs) override
    {
        for (const Run& run : runs) {
            const bool stands_for_case =
                run.run_type == Run::RT_Aggregate
                    ? run.aggregate_name == "median"
                    : run.repetitions <= 1;
            if (run.error_occurred || !stands_for_case)
                continue;
            std::string name = run.run_name.function_name;
            if (!run.run_name.args.empty())
                name += "/" + run.run_name.args;
            bench::headline(name + "_ns",
                            run.GetAdjustedRealTime() * 1e9 /
                                benchmark::GetTimeUnitMultiplier(
                                    run.time_unit));
        }
        display_->ReportRuns(runs);
    }

    void
    Finalize() override
    {
        display_->Finalize();
    }

  private:
    /// Owned by the library.
    benchmark::BenchmarkReporter* display_ =
        benchmark::CreateDefaultDisplayReporter();
};

}  // namespace

int
main(int argc, char** argv)
{
    // attach_metrics=false: these loops measure the no-sink fast path of
    // the instrumented hot code; attaching the registry would fold the
    // publish cost into every timing.
    chrysalis::bench::begin_report(
        "MicroPerf", "google-benchmark micro-benchmarks of the hot paths",
        /*attach_metrics=*/false);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    HeadlineReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return 0;
}
