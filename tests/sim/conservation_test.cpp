/// \file
/// Energy-conservation and bookkeeping properties of the full
/// energy-subsystem + simulator stack: nothing in the ledger may exceed
/// what was harvested (plus initial storage), and the simulator's
/// load-side accounting must be consistent with the controller's
/// delivered energy.

#include <sstream>
#include <tuple>

#include <gtest/gtest.h>

#include "dnn/model_zoo.hpp"
#include "hw/msp430_lea.hpp"
#include "sim/intermittent_simulator.hpp"

namespace chrysalis::sim {
namespace {

using ConservationParam =
    std::tuple<double /*panel cm2*/, double /*cap F*/, double /*r_exc*/>;

class ConservationTest
    : public ::testing::TestWithParam<ConservationParam>
{
};

TEST_P(ConservationTest, LedgerNeverCreatesEnergy)
{
    const auto& [panel_cm2, cap_f, r_exc] = GetParam();
    const auto model = dnn::make_kws_mlp();
    const hw::Msp430Lea mcu;
    std::vector<dataflow::LayerMapping> mappings(model.layer_count());
    for (std::size_t i = 0; i < mappings.size(); ++i) {
        mappings[i].tiles_k = 4;
        mappings[i].clamp_to(model.layer(i));
    }
    const auto cost =
        dataflow::analyze_model(model, mappings, mcu.cost_params());

    energy::Capacitor::Config cap_config;
    cap_config.capacitance_f = cap_f;
    cap_config.initial_voltage_v = 3.5;
    energy::EnergyController controller(
        energy::SolarPanel(
            panel_cm2,
            std::make_shared<energy::ConstantSolarEnvironment>(2e-3,
                                                               "cons")),
        energy::Capacitor(cap_config),
        energy::PowerManagementIc{energy::PowerManagementIc::Config{}});
    const double initial_energy =
        controller.capacitor().stored_energy();

    SimConfig config;
    config.step_s = 0.02;
    config.exception_rate = r_exc;
    config.seed = 99;
    const SimResult result =
        simulate_inference(cost, controller, config);
    if (!result.completed)
        GTEST_SKIP() << result.failure.message();

    const auto& ledger = result.ledger;
    // Everything that left the system is bounded by what entered it.
    const double inflow = ledger.harvested_j + initial_energy;
    const double outflow = ledger.delivered_j + ledger.leaked_j +
                           ledger.quiescent_j + ledger.wasted_j;
    EXPECT_LE(outflow, inflow * (1.0 + 1e-6))
        << "outflow " << outflow << " exceeds inflow " << inflow;

    // Delivered energy covers the load-side accounting (body energy;
    // brown-out checkpoint saves use the reserve margin and restores are
    // part of delivered).
    EXPECT_GE(ledger.delivered_j * (1.0 + 1e-6) + initial_energy,
              result.e_infer_j + result.e_nvm_j + result.e_static_j);

    // Non-negativity of every ledger entry.
    EXPECT_GE(ledger.harvested_j, 0.0);
    EXPECT_GE(ledger.stored_j, 0.0);
    EXPECT_GE(ledger.wasted_j, 0.0);
    EXPECT_GE(ledger.leaked_j, 0.0);
    EXPECT_GE(ledger.delivered_j, 0.0);
    EXPECT_GE(ledger.quiescent_j, 0.0);
}

TEST_P(ConservationTest, ActiveTimeBoundedByLatency)
{
    const auto& [panel_cm2, cap_f, r_exc] = GetParam();
    const auto model = dnn::make_har_cnn();
    const hw::Msp430Lea mcu;
    std::vector<dataflow::LayerMapping> mappings(model.layer_count());
    for (std::size_t i = 0; i < mappings.size(); ++i) {
        mappings[i].tiles_k = 4;
        mappings[i].clamp_to(model.layer(i));
    }
    const auto cost =
        dataflow::analyze_model(model, mappings, mcu.cost_params());

    energy::Capacitor::Config cap_config;
    cap_config.capacitance_f = cap_f;
    cap_config.initial_voltage_v = 3.5;
    energy::EnergyController controller(
        energy::SolarPanel(
            panel_cm2,
            std::make_shared<energy::ConstantSolarEnvironment>(2e-3,
                                                               "cons")),
        energy::Capacitor(cap_config),
        energy::PowerManagementIc{energy::PowerManagementIc::Config{}});

    SimConfig config;
    config.step_s = 0.02;
    config.exception_rate = r_exc;
    const SimResult result =
        simulate_inference(cost, controller, config);
    if (!result.completed)
        GTEST_SKIP() << result.failure.message();
    EXPECT_LE(result.active_time_s, result.latency_s * (1.0 + 1e-9));
    EXPECT_GE(result.tiles_executed, result.tiles_total);
    EXPECT_GE(result.energy_cycles, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConservationTest,
    ::testing::Values(ConservationParam{20.0, 470e-6, 0.0},
                      ConservationParam{20.0, 47e-6, 0.0},
                      ConservationParam{3.0, 470e-6, 0.0},
                      ConservationParam{3.0, 100e-6, 0.3},
                      ConservationParam{8.0, 1e-3, 0.1},
                      ConservationParam{1.5, 220e-6, 0.05}),
    [](const ::testing::TestParamInfo<ConservationParam>& param_info) {
        std::ostringstream name;
        name << "p" << static_cast<int>(std::get<0>(param_info.param) * 10)
             << "_c" << static_cast<int>(std::get<1>(param_info.param) * 1e6)
             << "_r" << static_cast<int>(std::get<2>(param_info.param) * 100);
        return name.str();
    });

}  // namespace
}  // namespace chrysalis::sim
