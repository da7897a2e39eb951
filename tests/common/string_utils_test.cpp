/// \file
/// Tests for string formatting helpers and the command-line flag
/// parsers.

#include "common/string_utils.hpp"

#include <gtest/gtest.h>

namespace chrysalis {
namespace {

TEST(FormatFixedTest, Rounding)
{
    EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
    EXPECT_EQ(format_fixed(3.145, 2), "3.15");
    EXPECT_EQ(format_fixed(-1.0, 0), "-1");
}

TEST(FormatSiTest, PrefixSelection)
{
    EXPECT_EQ(format_si(3.2e-3, "J"), "3.200 mJ");
    EXPECT_EQ(format_si(1.5, "W", 1), "1.5 W");
    EXPECT_EQ(format_si(2.5e6, "B", 1), "2.5 MB");
    EXPECT_EQ(format_si(4.2e-6, "F", 1), "4.2 uF");
    EXPECT_EQ(format_si(7e-10, "J", 1), "700.0 pJ");
}

TEST(FormatSiTest, ZeroAndNegative)
{
    EXPECT_EQ(format_si(0.0, "J", 1), "0.0 J");
    EXPECT_EQ(format_si(-2.0e-3, "A", 1), "-2.0 mA");
}

TEST(FormatSiTest, TinyValuesUseSmallestPrefix)
{
    EXPECT_EQ(format_si(5e-13, "J", 1), "0.5 pJ");
}

TEST(FormatPercentTest, Basics)
{
    EXPECT_EQ(format_percent(0.564), "56.4%");
    EXPECT_EQ(format_percent(1.0, 0), "100%");
    EXPECT_EQ(format_percent(0.005, 1), "0.5%");
}

TEST(SplitTest, Basic)
{
    EXPECT_EQ(split("a,b,c", ','),
              (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, EmptyFields)
{
    EXPECT_EQ(split(",a,,b,", ','),
              (std::vector<std::string>{"", "a", "", "b", ""}));
}

TEST(SplitTest, NoDelimiter)
{
    EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(TrimTest, Whitespace)
{
    EXPECT_EQ(trim("  hello  "), "hello");
    EXPECT_EQ(trim("\t\nworld\r "), "world");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("nospace"), "nospace");
}

TEST(PadTest, RightPadding)
{
    EXPECT_EQ(pad_right("ab", 5), "ab   ");
    EXPECT_EQ(pad_right("abcdef", 3), "abc");
}

TEST(PadTest, LeftPadding)
{
    EXPECT_EQ(pad_left("42", 5), "   42");
    EXPECT_EQ(pad_left("123456", 3), "123456");
}

TEST(ToLowerTest, MixedCase)
{
    EXPECT_EQ(to_lower("TPU"), "tpu");
    EXPECT_EQ(to_lower("EyeRiss-V1"), "eyeriss-v1");
}

TEST(SplitFlagTest, InlineValueForm)
{
    std::string value;
    bool has_inline = true;
    EXPECT_EQ(split_flag("--seed", value, has_inline), "--seed");
    EXPECT_FALSE(has_inline);
    EXPECT_EQ(split_flag("--seed=7", value, has_inline), "--seed");
    EXPECT_TRUE(has_inline);
    EXPECT_EQ(value, "7");
    EXPECT_EQ(split_flag("--model=a=b", value, has_inline), "--model");
    EXPECT_EQ(value, "a=b");
    EXPECT_EQ(split_flag("-x=1", value, has_inline), "-x=1");
    EXPECT_FALSE(has_inline);
}

TEST(ParseFlagTest, AcceptsWholeValuesInRange)
{
    EXPECT_EQ(parse_int_flag("--n", "-12"), -12);
    EXPECT_EQ(parse_int_flag("--n", "2147483647"), 2147483647);
    EXPECT_EQ(parse_uint64_flag("--seed", "18446744073709551615"),
              18446744073709551615ULL);
    EXPECT_EQ(parse_uint64_flag("--seed", "0"), 0u);
    EXPECT_EQ(parse_double_flag("--p", "0.25"), 0.25);
    EXPECT_EQ(parse_double_flag("--p", "-1e-3"), -1e-3);
}

TEST(ParseFlagDeathTest, RejectsJunkAndTrailingGarbage)
{
    EXPECT_EXIT(parse_int_flag("--population", "abc"),
                ::testing::ExitedWithCode(1), "--population");
    EXPECT_EXIT(parse_int_flag("--population", "8x"),
                ::testing::ExitedWithCode(1), "--population");
    EXPECT_EXIT(parse_int_flag("--population", ""),
                ::testing::ExitedWithCode(1), "--population");
    EXPECT_EXIT(parse_uint64_flag("--seed", "5 "),
                ::testing::ExitedWithCode(1), "--seed");
    EXPECT_EXIT(parse_double_flag("--bright", "2e-3W"),
                ::testing::ExitedWithCode(1), "--bright");
    EXPECT_EXIT(parse_double_flag("--bright", "."),
                ::testing::ExitedWithCode(1), "--bright");
}

TEST(ParseFlagDeathTest, RejectsOutOfRangeValues)
{
    // 4294971606 is 4310 modulo 2^32: a cast would turn it into a port.
    EXPECT_EXIT(parse_int_flag("--port", "4294971606"),
                ::testing::ExitedWithCode(1), "--port");
    EXPECT_EXIT(parse_int_flag("--port", "-2147483649"),
                ::testing::ExitedWithCode(1), "--port");
    EXPECT_EXIT(parse_uint64_flag("--seed", "18446744073709551616"),
                ::testing::ExitedWithCode(1), "--seed");
    EXPECT_EXIT(parse_double_flag("--dark", "1e999"),
                ::testing::ExitedWithCode(1), "--dark");
}

TEST(ParseFlagDeathTest, UnsignedFormRejectsASign)
{
    EXPECT_EXIT(parse_uint64_flag("--cache-capacity", "-1"),
                ::testing::ExitedWithCode(1), "--cache-capacity");
    EXPECT_EXIT(parse_uint64_flag("--cache-capacity", "+1"),
                ::testing::ExitedWithCode(1), "--cache-capacity");
    EXPECT_EXIT(parse_uint64_flag("--seed", " 1"),
                ::testing::ExitedWithCode(1), "--seed");
}

}  // namespace
}  // namespace chrysalis
