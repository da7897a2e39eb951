/// \file
/// Tests for design spaces, candidate encoding and Table VI baselines.

#include "search/design_space.hpp"

#include <gtest/gtest.h>

namespace chrysalis::search {
namespace {

TEST(DesignSpaceTest, ExistingAutMatchesTableIv)
{
    const DesignSpace space = DesignSpace::existing_aut();
    EXPECT_EQ(space.family, HardwareFamily::kMsp430);
    EXPECT_DOUBLE_EQ(space.solar_min_cm2, 1.0);
    EXPECT_DOUBLE_EQ(space.solar_max_cm2, 30.0);
    EXPECT_DOUBLE_EQ(space.cap_min_f, 1e-6);
    EXPECT_DOUBLE_EQ(space.cap_max_f, 10e-3);
    EXPECT_TRUE(space.search_solar);
    EXPECT_TRUE(space.search_capacitor);
    EXPECT_EQ(space.searchable_knob_count(), 2);
}

TEST(DesignSpaceTest, FutureAutMatchesTableV)
{
    const DesignSpace space = DesignSpace::future_aut();
    EXPECT_EQ(space.family, HardwareFamily::kAccelerator);
    EXPECT_EQ(space.pe_min, 1);
    EXPECT_EQ(space.pe_max, 168);
    EXPECT_EQ(space.cache_min_bytes, 128);
    EXPECT_EQ(space.cache_max_bytes, 2048);
    EXPECT_EQ(space.searchable_knob_count(), 5);
}

TEST(DesignSpaceTest, ClampEnforcesRanges)
{
    const DesignSpace space = DesignSpace::future_aut();
    HwCandidate candidate;
    candidate.solar_cm2 = 100.0;
    candidate.capacitance_f = 1.0;
    candidate.n_pe = 1000;
    candidate.cache_bytes = 10;
    const HwCandidate clamped = space.clamp(candidate);
    EXPECT_DOUBLE_EQ(clamped.solar_cm2, 30.0);
    EXPECT_DOUBLE_EQ(clamped.capacitance_f, 10e-3);
    EXPECT_EQ(clamped.n_pe, 168);
    EXPECT_EQ(clamped.cache_bytes, 128);
}

TEST(DesignSpaceTest, FrozenKnobsSnapToDefaults)
{
    DesignSpace space = DesignSpace::future_aut();
    space = apply_baseline(space, BaselineKind::kWoEa);
    HwCandidate candidate;
    candidate.solar_cm2 = 25.0;
    candidate.capacitance_f = 5e-3;
    const HwCandidate clamped = space.clamp(candidate);
    EXPECT_DOUBLE_EQ(clamped.solar_cm2, space.defaults.solar_cm2);
    EXPECT_DOUBLE_EQ(clamped.capacitance_f,
                     space.defaults.capacitance_f);
}

TEST(DesignSpaceTest, Msp430CandidateIsSinglePe)
{
    const DesignSpace space = DesignSpace::existing_aut();
    HwCandidate candidate;
    candidate.n_pe = 77;
    const HwCandidate clamped = space.clamp(candidate);
    EXPECT_EQ(clamped.n_pe, 1);
    EXPECT_EQ(clamped.family, HardwareFamily::kMsp430);
}

TEST(DesignSpaceTest, FixesHardwareOnlyWhenEveryIaKnobIsFrozen)
{
    EXPECT_TRUE(DesignSpace::existing_aut().fixes_hardware());
    EXPECT_FALSE(DesignSpace::future_aut().fixes_hardware());
    for (const BaselineKind kind : all_baselines()) {
        SCOPED_TRACE(to_string(kind));
        EXPECT_EQ(apply_baseline(DesignSpace::future_aut(), kind)
                      .fixes_hardware(),
                  kind == BaselineKind::kWoIa);
        // Freezing energy knobs never unfixes the MSP430.
        EXPECT_TRUE(apply_baseline(DesignSpace::existing_aut(), kind)
                        .fixes_hardware());
    }
}

TEST(HwCandidateTest, BuildsMspHardware)
{
    HwCandidate candidate;
    candidate.family = HardwareFamily::kMsp430;
    const auto hardware = candidate.build_hardware();
    EXPECT_EQ(hardware->name(), "msp430fr5994");
}

TEST(HwCandidateTest, BuildsAcceleratorHardware)
{
    HwCandidate candidate;
    candidate.family = HardwareFamily::kAccelerator;
    candidate.arch = hw::AcceleratorArch::kTpu;
    candidate.n_pe = 42;
    candidate.cache_bytes = 256;
    const auto hardware = candidate.build_hardware();
    EXPECT_EQ(hardware->name(), "tpu");
    EXPECT_EQ(hardware->cost_params().n_pe, 42);
    EXPECT_EQ(hardware->cost_params().vm_bytes_per_pe, 256);
}

TEST(HwCandidateTest, DescribeIsInformative)
{
    HwCandidate candidate;
    candidate.family = HardwareFamily::kAccelerator;
    candidate.solar_cm2 = 8.0;
    candidate.n_pe = 64;
    const std::string text = candidate.describe();
    EXPECT_NE(text.find("sp=8.0cm2"), std::string::npos);
    EXPECT_NE(text.find("pe=64"), std::string::npos);
}

TEST(BaselineTest, LabelsMatchTableVi)
{
    EXPECT_EQ(to_string(BaselineKind::kFull), "CHRYSALIS");
    EXPECT_EQ(to_string(BaselineKind::kWoCap), "wo/Cap");
    EXPECT_EQ(to_string(BaselineKind::kWoSp), "wo/SP");
    EXPECT_EQ(to_string(BaselineKind::kWoEa), "wo/EA");
    EXPECT_EQ(to_string(BaselineKind::kWoPe), "wo/PE");
    EXPECT_EQ(to_string(BaselineKind::kWoCache), "wo/Cache");
    EXPECT_EQ(to_string(BaselineKind::kWoIa), "wo/IA");
    EXPECT_EQ(all_baselines().size(), 7u);
    EXPECT_EQ(all_baselines().back(), BaselineKind::kFull);
}

class BaselineFreezeTest : public ::testing::TestWithParam<BaselineKind>
{
};

TEST_P(BaselineFreezeTest, FreezesTheRightKnobs)
{
    const DesignSpace space =
        apply_baseline(DesignSpace::future_aut(), GetParam());
    switch (GetParam()) {
      case BaselineKind::kFull:
        EXPECT_EQ(space.searchable_knob_count(), 5);
        break;
      case BaselineKind::kWoCap:
        EXPECT_FALSE(space.search_capacitor);
        EXPECT_TRUE(space.search_solar);
        EXPECT_EQ(space.searchable_knob_count(), 4);
        break;
      case BaselineKind::kWoSp:
        EXPECT_FALSE(space.search_solar);
        EXPECT_TRUE(space.search_capacitor);
        break;
      case BaselineKind::kWoEa:
        EXPECT_FALSE(space.search_solar);
        EXPECT_FALSE(space.search_capacitor);
        EXPECT_EQ(space.searchable_knob_count(), 3);
        break;
      case BaselineKind::kWoPe:
        EXPECT_FALSE(space.search_pe);
        EXPECT_TRUE(space.search_cache);
        break;
      case BaselineKind::kWoCache:
        EXPECT_FALSE(space.search_cache);
        EXPECT_TRUE(space.search_pe);
        break;
      case BaselineKind::kWoIa:
        EXPECT_FALSE(space.search_pe);
        EXPECT_FALSE(space.search_cache);
        EXPECT_FALSE(space.search_arch);
        EXPECT_EQ(space.searchable_knob_count(), 2);
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineFreezeTest,
                         ::testing::ValuesIn(all_baselines()),
                         [](const auto& param_info) {
                             std::string name =
                                 to_string(param_info.param);
                             for (char& c : name) {
                                 if (c == '/')
                                     c = '_';
                             }
                             return name;
                         });

}  // namespace
}  // namespace chrysalis::search
