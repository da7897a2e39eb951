/// \file
/// Tests for the capacitor model (Eq. 2 leakage, E = 1/2 C V^2 storage,
/// temperature-dependent leakage).

#include "energy/capacitor.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/units.hpp"

namespace chrysalis::energy {
namespace {

using chrysalis::units::kMicroFarad;

Capacitor::Config
base_config()
{
    Capacitor::Config config;
    config.capacitance_f = 100 * kMicroFarad;
    config.rated_voltage_v = 5.0;
    config.k_cap = 0.01;
    return config;
}

TEST(CapacitorTest, StartsAtInitialVoltage)
{
    auto config = base_config();
    config.initial_voltage_v = 3.0;
    Capacitor cap(config);
    EXPECT_DOUBLE_EQ(cap.voltage(), 3.0);
    EXPECT_NEAR(cap.stored_energy(), 0.5 * 100e-6 * 9.0, 1e-12);
}

TEST(CapacitorTest, ChargeRaisesVoltageBySquareRootLaw)
{
    Capacitor cap(base_config());
    cap.charge(0.5 * 100e-6 * 4.0);  // energy for 2 V
    EXPECT_NEAR(cap.voltage(), 2.0, 1e-9);
}

TEST(CapacitorTest, ChargeClipsAtRatedVoltage)
{
    Capacitor cap(base_config());
    const double absorbed = cap.charge(1.0);  // way beyond capacity
    EXPECT_NEAR(cap.voltage(), 5.0, 1e-9);
    EXPECT_NEAR(absorbed, 0.5 * 100e-6 * 25.0, 1e-9);
}

TEST(CapacitorTest, DischargeReturnsWhatItCanDeliver)
{
    auto config = base_config();
    config.initial_voltage_v = 2.0;
    Capacitor cap(config);
    const double stored = cap.stored_energy();
    const double delivered = cap.discharge(stored * 2.0);
    EXPECT_NEAR(delivered, stored, 1e-12);
    EXPECT_NEAR(cap.voltage(), 0.0, 1e-9);
}

TEST(CapacitorTest, ChargeDischargeRoundTrip)
{
    Capacitor cap(base_config());
    cap.charge(100e-6);
    const double stored = cap.stored_energy();
    EXPECT_NEAR(cap.discharge(stored), stored, 1e-15);
    EXPECT_NEAR(cap.stored_energy(), 0.0, 1e-15);
}

TEST(CapacitorTest, LeakageCurrentFollowsEq2)
{
    auto config = base_config();
    config.initial_voltage_v = 4.0;
    Capacitor cap(config);
    // I_R = k_cap * C * U (Eq. 2)
    EXPECT_NEAR(cap.leakage_current(), 0.01 * 100e-6 * 4.0, 1e-15);
    EXPECT_NEAR(cap.leakage_power(), 0.01 * 100e-6 * 16.0, 1e-15);
}

class CapacitorLeakageScalingTest
    : public ::testing::TestWithParam<double>
{
};

TEST_P(CapacitorLeakageScalingTest, LeakageGrowsWithCapacitance)
{
    auto config = base_config();
    config.initial_voltage_v = 3.5;
    Capacitor small(config);
    config.capacitance_f = GetParam();
    Capacitor large(config);
    if (GetParam() > 100e-6) {
        EXPECT_GT(large.leakage_power(), small.leakage_power());
    }
}

INSTANTIATE_TEST_SUITE_P(TableIvRange, CapacitorLeakageScalingTest,
                         ::testing::Values(1e-6, 10e-6, 100e-6, 1e-3,
                                           10e-3));

TEST(CapacitorTest, ApplyLeakageDrainsEnergy)
{
    auto config = base_config();
    config.initial_voltage_v = 4.0;
    Capacitor cap(config);
    const double before = cap.stored_energy();
    const double lost = cap.apply_leakage(1.0);
    EXPECT_GT(lost, 0.0);
    EXPECT_NEAR(cap.stored_energy(), before - lost, 1e-15);
}

TEST(CapacitorTest, LeakageNeverDrivesVoltageNegative)
{
    auto config = base_config();
    config.initial_voltage_v = 0.01;
    config.k_cap = 10.0;  // extreme leakage
    Capacitor cap(config);
    cap.apply_leakage(1000.0);
    EXPECT_GE(cap.voltage(), 0.0);
}

TEST(CapacitorTest, ZeroLeakageCoefficient)
{
    auto config = base_config();
    config.k_cap = 0.0;
    config.initial_voltage_v = 3.0;
    Capacitor cap(config);
    EXPECT_DOUBLE_EQ(cap.apply_leakage(100.0), 0.0);
    EXPECT_DOUBLE_EQ(cap.voltage(), 3.0);
}

TEST(CapacitorTest, EnergyBetweenThresholds)
{
    Capacitor cap(base_config());
    // 1/2 * 100uF * (3.5^2 - 2.2^2)
    EXPECT_NEAR(cap.energy_between(2.2, 3.5),
                0.5 * 100e-6 * (3.5 * 3.5 - 2.2 * 2.2), 1e-12);
    EXPECT_DOUBLE_EQ(cap.energy_between(2.0, 2.0), 0.0);
}

TEST(CapacitorTest, SetVoltageWithinRange)
{
    Capacitor cap(base_config());
    cap.set_voltage(4.2);
    EXPECT_DOUBLE_EQ(cap.voltage(), 4.2);
}

TEST(CapacitorDeathTest, RejectsBadConfigs)
{
    auto config = base_config();
    config.capacitance_f = 0.0;
    EXPECT_EXIT(Capacitor{config}, ::testing::ExitedWithCode(1),
                "capacitance");

    config = base_config();
    config.initial_voltage_v = 6.0;
    EXPECT_EXIT(Capacitor{config}, ::testing::ExitedWithCode(1),
                "initial voltage");

    config = base_config();
    config.k_cap = -0.1;
    EXPECT_EXIT(Capacitor{config}, ::testing::ExitedWithCode(1), "leakage");
}

TEST(CapacitorDeathTest, SetVoltageOutOfRange)
{
    Capacitor cap(base_config());
    EXPECT_EXIT(cap.set_voltage(5.5), ::testing::ExitedWithCode(1),
                "outside");
}

TEST(CapacitorDeathTest, NegativeEnergyPanics)
{
    Capacitor cap(base_config());
    EXPECT_DEATH(cap.charge(-1.0), "negative");
    EXPECT_DEATH(cap.discharge(-1.0), "negative");
    EXPECT_DEATH(cap.apply_leakage(-1.0), "negative");
}

TEST(CapacitorTemperatureTest, ReferenceTemperatureIsNeutral)
{
    Capacitor::Config config;
    config.initial_voltage_v = 3.0;
    const Capacitor cap(config);
    EXPECT_DOUBLE_EQ(cap.effective_k_cap(), config.k_cap);
}

TEST(CapacitorTemperatureTest, LeakageDoublesPerStep)
{
    Capacitor::Config config;
    config.initial_voltage_v = 3.0;
    config.temperature_c = 45.0;  // two doubling steps above 25 C
    const Capacitor hot(config);
    config.temperature_c = 25.0;
    const Capacitor ref(config);
    EXPECT_NEAR(hot.leakage_current(), 4.0 * ref.leakage_current(),
                1e-15);
}

TEST(CapacitorTemperatureTest, ColdReducesLeakage)
{
    Capacitor::Config config;
    config.initial_voltage_v = 3.0;
    config.temperature_c = 5.0;
    const Capacitor cold(config);
    EXPECT_NEAR(cold.effective_k_cap(), config.k_cap / 4.0, 1e-12);
}

TEST(CapacitorTemperatureTest, SetTemperatureUpdatesLeakage)
{
    Capacitor::Config config;
    config.initial_voltage_v = 3.0;
    Capacitor cap(config);
    const double before = cap.leakage_current();
    cap.set_temperature(35.0);
    EXPECT_NEAR(cap.leakage_current(), 2.0 * before, 1e-15);
}

TEST(CapacitorTemperatureDeathTest, RejectsBelowAbsoluteZero)
{
    Capacitor cap{Capacitor::Config{}};
    EXPECT_EXIT(cap.set_temperature(-300.0),
                ::testing::ExitedWithCode(1), "absolute zero");
}

}  // namespace
}  // namespace chrysalis::energy
