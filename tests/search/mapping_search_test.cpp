/// \file
/// Tests for the SW-level (inner) mapping search.

#include "search/mapping_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "dataflow/tiling.hpp"
#include "dnn/model_zoo.hpp"
#include "hw/accelerator.hpp"
#include "hw/msp430_lea.hpp"
#include "mapping_result_matchers.hpp"
#include "obs/metrics.hpp"

namespace chrysalis::search {
namespace {

using matchers::expect_same_result;

sim::EnergyEnv
make_env(double p_eh_w, double cap_f = 470e-6)
{
    sim::EnergyEnv env;
    env.p_eh_w = p_eh_w;
    env.capacitor.capacitance_f = cap_f;
    return env;
}

TEST(MappingSearchTest, FindsFeasibleMappingForKws)
{
    const auto model = dnn::make_kws_mlp();
    const hw::Msp430Lea mcu;
    const auto result = search_mappings(model, mcu, {make_env(16e-3)},
                                        MappingSearchOptions{});
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(result.mappings.size(), model.layer_count());
    EXPECT_TRUE(result.cost.feasible);
    EXPECT_GT(result.evaluations, 0);
}

TEST(MappingSearchTest, WeakerEnvironmentForcesMoreTiles)
{
    const auto model = dnn::make_cifar10_cnn();
    const hw::Msp430Lea mcu;
    const MappingSearchOptions options;
    const auto rich = search_mappings(model, mcu,
                                      {make_env(40e-3, 100e-6)}, options);
    const auto poor = search_mappings(model, mcu,
                                      {make_env(2e-3, 100e-6)}, options);
    ASSERT_TRUE(rich.feasible);
    ASSERT_TRUE(poor.feasible);
    // §III-B3: "in the case of low environmental energy each layer of the
    // network will be divided into a larger number of tiles."
    EXPECT_GE(poor.cost.n_tile, rich.cost.n_tile);
}

TEST(MappingSearchTest, FeasibilityMustHoldInAllEnvironments)
{
    const auto model = dnn::make_cifar10_cnn();
    const hw::Msp430Lea mcu;
    const MappingSearchOptions options;
    // The darker environment binds: searching with both must produce a
    // plan whose worst tile fits the darker cycle budget.
    const auto both = search_mappings(
        model, mcu, {make_env(40e-3, 100e-6), make_env(2e-3, 100e-6)},
        options);
    ASSERT_TRUE(both.feasible);
    const sim::EnergyEnv dark = make_env(2e-3, 100e-6);
    const double budget =
        sim::cycle_budget(dark, both.cost.max_tile_time_s());
    EXPECT_LE(both.cost.max_tile_energy_j(), budget * (1.0 + 1e-9));
}

TEST(MappingSearchTest, ImpossibleEnvironmentReportsViolation)
{
    const auto model = dnn::make_cifar10_cnn();
    const hw::Msp430Lea mcu;
    // Leakage-dominated: 10 mF at 0.05 mW harvest can never run.
    const auto result = search_mappings(
        model, mcu, {make_env(0.05e-3, 10e-3)}, MappingSearchOptions{});
    EXPECT_FALSE(result.feasible);
    EXPECT_GT(result.violation_j, 0.0);
}

TEST(MappingSearchTest, RestrictsToSupportedDataflows)
{
    const auto model = dnn::make_kws_mlp();
    const hw::Msp430Lea mcu;  // supports WS and OS only
    const auto result = search_mappings(model, mcu, {make_env(16e-3)},
                                        MappingSearchOptions{});
    for (const auto& mapping : result.mappings) {
        EXPECT_TRUE(mapping.dataflow ==
                        dataflow::Dataflow::kWeightStationary ||
                    mapping.dataflow ==
                        dataflow::Dataflow::kOutputStationary);
    }
}

TEST(MappingSearchTest, AcceleratorSearchUsesTaxonomyChoice)
{
    const auto model = dnn::make_alexnet();
    hw::ReconfigurableAccelerator::Config config;
    config.arch = hw::AcceleratorArch::kEyeriss;
    config.n_pe = 64;
    config.cache_bytes_per_pe = 512;
    const hw::ReconfigurableAccelerator accel(config);
    const auto result = search_mappings(
        model, accel, {make_env(40e-3, 1e-3)}, MappingSearchOptions{});
    EXPECT_EQ(result.mappings.size(), model.layer_count());
    EXPECT_GT(result.evaluations, 100);
}

TEST(MappingSearchTest, TableIvWorkloadsFitMspFram)
{
    const hw::Msp430Lea mcu;
    for (const auto& name : dnn::table4_workloads()) {
        const auto model = dnn::make_model(name);
        const auto result = search_mappings(
            model, mcu, {make_env(16e-3)}, MappingSearchOptions{});
        EXPECT_TRUE(result.feasible) << name << ": "
                                     << result.failure.message();
    }
}

TEST(MappingSearchTest, OversizedModelFailsFramCapacity)
{
    // AlexNet's 61M weights cannot fit the MSP430's 256 KiB FRAM.
    const hw::Msp430Lea mcu;
    const auto model = dnn::make_alexnet();
    const auto result = search_mappings(model, mcu, {make_env(16e-3)},
                                        MappingSearchOptions{});
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.failure.code,
              fault::FailureCode::kNvmCapacityExceeded);
}

TEST(MappingSearchTest, AcceleratorNvmIsUnlimited)
{
    hw::ReconfigurableAccelerator::Config config;
    const hw::ReconfigurableAccelerator accel(config);
    EXPECT_EQ(accel.nvm_capacity_bytes(), 0);  // provisioned externally
}

// --- Oracle: the exhaustive search without its shortcuts ----------------
//
// Every candidate of every layer is ranked, with no shape reuse, and
// every candidate rebuilds the Eq. 8 budget of every environment through
// sim::cycle_budget. search_mappings must match it bit for bit.

namespace oracle {

double
layer_violation(const dataflow::LayerCost& cost,
                const std::vector<sim::EnergyEnv>& envs)
{
    if (!cost.feasible)
        return std::numeric_limits<double>::infinity();
    double worst = 0.0;
    for (const auto& env : envs) {
        if (sim::effective_power(env) <= 0.0)
            return std::numeric_limits<double>::infinity();
        const double budget = sim::cycle_budget(env, cost.tile_time_s());
        worst = std::max(worst, cost.tile_energy_j() - budget);
    }
    return std::max(0.0, worst);
}

struct ScoredMapping {
    dataflow::LayerMapping mapping;
    dataflow::LayerCost cost;
    double violation = std::numeric_limits<double>::infinity();

    bool
    better_than(const ScoredMapping& other) const
    {
        if ((violation == 0.0) != (other.violation == 0.0))
            return violation == 0.0;
        if (violation != other.violation)
            return violation < other.violation;
        const double mine = cost.total_energy_j();
        const double theirs = other.cost.total_energy_j();
        if (mine != theirs)
            return mine < theirs;
        return cost.n_tile < other.cost.n_tile;
    }
};

ScoredMapping
search_layer(const dnn::Layer& layer,
             const std::vector<dataflow::Dataflow>& dataflows,
             const dataflow::CostParams& params,
             const std::vector<sim::EnergyEnv>& envs,
             std::size_t max_candidates_per_dim, std::int64_t& evaluations)
{
    ScoredMapping best;
    bool first = true;
    for (const auto& mapping : dataflow::enumerate_mappings(
             layer, dataflows, max_candidates_per_dim)) {
        ScoredMapping scored;
        scored.mapping = mapping;
        scored.cost = dataflow::analyze_layer(layer, mapping, params);
        scored.violation = layer_violation(scored.cost, envs);
        ++evaluations;
        if (first || scored.better_than(best)) {
            best = scored;
            first = false;
        }
    }
    return best;
}

MappingSearchResult
search_mappings(const dnn::Model& model,
                const hw::InferenceHardware& hardware,
                const std::vector<sim::EnergyEnv>& envs,
                std::size_t max_candidates_per_dim)
{
    const dataflow::CostParams params = hardware.cost_params();
    const auto dataflows = hardware.supported_dataflows();
    MappingSearchResult result;
    result.feasible = true;
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
        const ScoredMapping best =
            search_layer(model.layer(i), dataflows, params, envs,
                         max_candidates_per_dim, result.evaluations);
        if (best.violation > 0.0) {
            result.feasible = false;
            result.violation_j += std::isfinite(best.violation)
                ? best.violation
                : 1e6;
            if (!result.failure) {
                result.failure = fault::make_failure(
                    fault::FailureCode::kTileExceedsCycle,
                    "layer " + std::to_string(i) +
                        ": no mapping satisfies Eq. 8 in every "
                        "environment");
            }
        }
        result.mappings.push_back(best.mapping);
    }
    result.cost = dataflow::analyze_model(model, result.mappings, params);
    const std::int64_t capacity = hardware.nvm_capacity_bytes();
    if (capacity > 0) {
        std::int64_t peak_ckpt = 0;
        for (const auto& layer : result.cost.layers)
            peak_ckpt = std::max(peak_ckpt, layer.ckpt_bytes);
        const std::int64_t footprint = model.total_weight_bytes() +
                                       model.peak_activation_bytes() +
                                       peak_ckpt;
        if (footprint > capacity) {
            result.feasible = false;
            result.failure = fault::make_failure(
                fault::FailureCode::kNvmCapacityExceeded,
                "model footprint " + std::to_string(footprint) +
                    " B exceeds NVM capacity " + std::to_string(capacity) +
                    " B");
        }
    }
    return result;
}

}  // namespace oracle

/// A model of near-repeats: layers equal in every field but one the cost
/// model reads, mixed with exact repeats under other names. No zoo model
/// has such pairs, so only this one tells a too-loose shape key apart.
dnn::Model
near_repeat_model()
{
    dnn::Model model("near_repeats", {16, 32, 32});
    const dnn::Layer conv = dnn::make_conv2d("conv", 16, 16, 32, 32, 3, 1, 1);
    model.add_layer(conv);
    dnn::Layer variant = conv;
    variant.name = "conv_again";
    model.add_layer(variant);
    variant = conv;
    variant.kind = dnn::LayerKind::kDepthwise;
    model.add_layer(variant);
    variant = conv;
    variant.stride = 2;
    model.add_layer(variant);
    // A 3-row or 3-column input clamps every tile's input halo, which
    // moves the best tiling.
    variant = conv;
    variant.in_h = 3;
    model.add_layer(variant);
    variant = conv;
    variant.in_w = 3;
    model.add_layer(variant);
    model.add_layer(dnn::make_depthwise("dw", 16, 34, 34, 3, 1, 0));
    model.add_layer(dnn::make_pool("pool", 16, 34, 34, 3, 1));
    variant = conv;
    variant.name = "conv_last";
    model.add_layer(variant);
    return model;
}

/// Every model dnn::make_model knows, plus the near-repeats.
std::vector<dnn::Model>
oracle_models()
{
    std::vector<dnn::Model> models;
    for (const char* name :
         {"simple_conv", "cifar10", "har", "kws", "mnist", "cnn_b", "cnn_s",
          "fc", "alexnet", "vgg16", "resnet18", "bert", "mobilenet_tiny"}) {
        models.push_back(dnn::make_model(name));
    }
    models.push_back(near_repeat_model());
    return models;
}

/// MSP430, plus TPU and Eyeriss at the corners and middle of the PE and
/// cache ranges.
std::vector<std::unique_ptr<hw::InferenceHardware>>
oracle_hardware()
{
    std::vector<std::unique_ptr<hw::InferenceHardware>> hardware;
    hardware.push_back(std::make_unique<hw::Msp430Lea>());
    for (const auto arch :
         {hw::AcceleratorArch::kTpu, hw::AcceleratorArch::kEyeriss}) {
        for (const auto& [n_pe, cache] :
             {std::pair<std::int64_t, std::int64_t>{1, 128},
              {64, 512},
              {168, 2048}}) {
            hw::ReconfigurableAccelerator::Config config;
            config.arch = arch;
            config.n_pe = n_pe;
            config.cache_bytes_per_pe = cache;
            hardware.push_back(
                std::make_unique<hw::ReconfigurableAccelerator>(config));
        }
    }
    return hardware;
}

/// Runs every oracle model on every oracle hardware against \p envs at
/// two grid widths; \returns how many searches hit an Eq. 8 failure.
int
check_against_oracle(const std::vector<sim::EnergyEnv>& envs)
{
    int eq8_failures = 0;
    const auto hardware = oracle_hardware();
    for (const auto& model : oracle_models()) {
        for (const auto& target : hardware) {
            for (const std::size_t width : {5, 6}) {
                SCOPED_TRACE(model.name() + " on " + target->name() +
                             " at " + std::to_string(width) + " per dim");
                MappingSearchOptions options;
                options.max_candidates_per_dim = width;
                const auto got =
                    search_mappings(model, *target, envs, options);
                expect_same_result(got, oracle::search_mappings(
                                            model, *target, envs, width));
                if (got.failure.code ==
                    fault::FailureCode::kTileExceedsCycle) {
                    ++eq8_failures;
                }
            }
        }
    }
    return eq8_failures;
}

TEST(MappingSearchOracleTest, MatchesPerLayerLoopInBrightAndDarkPairs)
{
    // Panel sizes across the design space's range under the brighter and
    // darker presets (2 and 0.5 mW/cm^2).
    for (const auto& [cm2, cap_f] : {std::pair{3.0, 100e-6},
                                     {8.0, 1e-3},
                                     {30.0, 10e-3}}) {
        SCOPED_TRACE(std::to_string(cm2) + " cm^2");
        check_against_oracle(
            {make_env(cm2 * 2.0e-3, cap_f), make_env(cm2 * 0.5e-3, cap_f)});
    }
}

TEST(MappingSearchOracleTest, MatchesPerLayerLoopWhenLeakageDominates)
{
    const sim::EnergyEnv leaky = make_env(0.05e-3, 10e-3);
    ASSERT_LE(sim::effective_power(leaky), 0.0);
    check_against_oracle({leaky});
    // The check stops at the leaky environment, whichever side it is on.
    check_against_oracle({make_env(16e-3, 10e-3), leaky});
    check_against_oracle({leaky, make_env(16e-3, 10e-3)});
}

TEST(MappingSearchOracleTest, MatchesPerLayerLoopWhenATileCannotFit)
{
    // A 1 uF capacitor stores a few uJ per cycle: some layers have no
    // mapping that satisfies Eq. 8.
    const int failures = check_against_oracle(
        {make_env(2e-3, 1e-6), make_env(0.5e-3, 1e-6)});
    EXPECT_GT(failures, 0);
}

TEST(MappingGridOracleTest, OneGridRanksEveryEnvironmentSetExactly)
{
    // The env sets of the three oracle tests above, in one sequence, with
    // the leakage-dominated and 1 uF sets between ordinary ones: a grid
    // that kept anything from an earlier ranking (the Eq. 8 budgets, a
    // leakage verdict) would carry it into the next set.
    const sim::EnergyEnv leaky = make_env(0.05e-3, 10e-3);
    ASSERT_LE(sim::effective_power(leaky), 0.0);
    const std::vector<std::vector<sim::EnergyEnv>> env_sets = {
        {make_env(3.0 * 2.0e-3, 100e-6), make_env(3.0 * 0.5e-3, 100e-6)},
        {leaky},
        {make_env(8.0 * 2.0e-3, 1e-3), make_env(8.0 * 0.5e-3, 1e-3)},
        {make_env(16e-3, 10e-3), leaky},
        {make_env(2e-3, 1e-6), make_env(0.5e-3, 1e-6)},
        {leaky, make_env(16e-3, 10e-3)},
        {make_env(30.0 * 2.0e-3, 10e-3), make_env(30.0 * 0.5e-3, 10e-3)},
    };
    int eq8_failures = 0;
    const auto hardware = oracle_hardware();
    for (const auto& model : oracle_models()) {
        for (const auto& target : hardware) {
            for (const std::size_t width : {5, 6}) {
                SCOPED_TRACE(model.name() + " on " + target->name() +
                             " at " + std::to_string(width) + " per dim");
                const MappingGrid grid(model, *target, width);
                for (std::size_t e = 0; e < env_sets.size(); ++e) {
                    SCOPED_TRACE("env set " + std::to_string(e));
                    const auto got = grid.rank(env_sets[e]);
                    expect_same_result(
                        got, oracle::search_mappings(model, *target,
                                                     env_sets[e], width));
                    if (got.failure.code ==
                        fault::FailureCode::kTileExceedsCycle) {
                        ++eq8_failures;
                    }
                }
            }
        }
    }
    EXPECT_GT(eq8_failures, 0);
}

TEST(MappingGridDeathTest, RankingWithoutEnvironmentsIsFatal)
{
    const MappingGrid grid(dnn::make_kws_mlp(), hw::Msp430Lea(), 6);
    EXPECT_EXIT(grid.rank({}), ::testing::ExitedWithCode(1), "environment");
}

TEST(MappingSearchTest, RepeatedShapesAreAnalyzedOnce)
{
    // BERT has 41 layers but only 6 distinct shapes, and at 5 candidates
    // per dim each has a grid of 100 Eyeriss mappings.
    const auto model = dnn::make_model("bert");
    hw::ReconfigurableAccelerator::Config config;
    config.arch = hw::AcceleratorArch::kEyeriss;
    config.n_pe = 64;
    config.cache_bytes_per_pe = 512;
    const hw::ReconfigurableAccelerator accel(config);
    MappingSearchOptions options;
    options.max_candidates_per_dim = 5;

    obs::MetricsRegistry registry;
    MappingSearchResult result;
    {
        obs::ScopedMetrics scope(registry);
        result = search_mappings(
            model, accel, {make_env(16e-3, 1e-3), make_env(4e-3, 1e-3)},
            options);
    }
    EXPECT_EQ(result.evaluations, 4100);
    EXPECT_EQ(registry.counter("search/inner/evaluations").value(), 4100u);
    EXPECT_EQ(registry.counter("search/inner/analyses").value(), 600u);
    // Of those 600, the candidates the energy floor ruled out without a
    // hardware pass.
    EXPECT_EQ(registry.counter("search/inner/bounded").value(), 469u);
}

TEST(MappingSearchDeathTest, EmptyEnvironmentsAreFatal)
{
    const auto model = dnn::make_kws_mlp();
    const hw::Msp430Lea mcu;
    EXPECT_EXIT(
        search_mappings(model, mcu, {}, MappingSearchOptions{}),
        ::testing::ExitedWithCode(1), "environment");
}

}  // namespace
}  // namespace chrysalis::search
