/// \file
/// Tests for the solar panel (Eq. 1: P_eh = A_eh * k_eh).

#include "energy/harvester.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace chrysalis::energy {
namespace {

std::shared_ptr<const SolarEnvironment>
constant_env(double k_eh)
{
    return std::make_shared<ConstantSolarEnvironment>(k_eh, "const");
}

TEST(SolarPanelTest, PowerIsAreaTimesCoefficient)
{
    SolarPanel panel(8.0, constant_env(2e-3));
    EXPECT_DOUBLE_EQ(panel.power(0.0), 16e-3);  // Eq. 1
    EXPECT_DOUBLE_EQ(panel.area_cm2(), 8.0);
}

class SolarPanelScalingTest : public ::testing::TestWithParam<double>
{
};

TEST_P(SolarPanelScalingTest, PowerScalesLinearlyWithArea)
{
    const double area = GetParam();
    SolarPanel unit(1.0, constant_env(1.7e-3));
    SolarPanel panel(area, constant_env(1.7e-3));
    EXPECT_NEAR(panel.power(0.0), area * unit.power(0.0), 1e-15);
}

INSTANTIATE_TEST_SUITE_P(TableIvRange, SolarPanelScalingTest,
                         ::testing::Values(1.0, 2.5, 8.0, 15.0, 30.0));

TEST(SolarPanelTest, TracksEnvironmentOverTime)
{
    // Default diurnal day: dark until 6 h, peak 2 mW/cm^2 at noon.
    auto env = std::make_shared<DiurnalSolarEnvironment>(
        DiurnalSolarEnvironment::Config{});
    SolarPanel panel(5.0, env);
    EXPECT_DOUBLE_EQ(panel.power(0.0), 0.0);
    EXPECT_NEAR(panel.power(9.0 * 3600.0), 5.0 * 2e-3 * std::sqrt(0.5),
                1e-15);
    EXPECT_DOUBLE_EQ(panel.power(12.0 * 3600.0), 5.0 * 2e-3);
}

TEST(SolarPanelTest, NameMentionsEnvironment)
{
    SolarPanel panel(1.0, constant_env(1e-3));
    EXPECT_NE(panel.name().find("solar-panel"), std::string::npos);
    EXPECT_NE(panel.name().find("const"), std::string::npos);
}

TEST(SolarPanelDeathTest, RejectsNonPositiveArea)
{
    EXPECT_EXIT(SolarPanel(0.0, constant_env(1e-3)),
                ::testing::ExitedWithCode(1), "area");
}

TEST(SolarPanelDeathTest, RejectsNullEnvironment)
{
    EXPECT_EXIT(SolarPanel(1.0, nullptr), ::testing::ExitedWithCode(1),
                "environment");
}

}  // namespace
}  // namespace chrysalis::energy
