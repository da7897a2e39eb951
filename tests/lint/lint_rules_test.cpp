// In-process tests for the chrysalis_lint rule engine: every rule gets
// a positive (fires), a negative (stays quiet), and a suppression case.
// The end-to-end CLI behaviour is covered by lint_golden_test.cpp.
#include "lint_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace {

using chrysalis::lint::Violation;
using chrysalis::lint::scan_source;

std::vector<std::string> rule_ids(const std::vector<Violation>& violations)
{
    std::vector<std::string> ids;
    ids.reserve(violations.size());
    for (const Violation& v : violations) {
        ids.push_back(v.rule);
    }
    return ids;
}

bool has_rule(const std::vector<Violation>& violations, const std::string& rule)
{
    const std::vector<std::string> ids = rule_ids(violations);
    return std::find(ids.begin(), ids.end(), rule) != ids.end();
}

TEST(LintRules, RegistryListsEveryRuleOnce)
{
    const auto& rules = chrysalis::lint::rules();
    ASSERT_FALSE(rules.empty());
    std::vector<std::string> ids;
    for (const auto& rule : rules) {
        EXPECT_EQ(rule.id.rfind("chrysalis-", 0), 0U) << rule.id;
        EXPECT_FALSE(rule.summary.empty()) << rule.id;
        ids.push_back(rule.id);
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
        << "duplicate rule id in registry";
}

TEST(LintRules, RandFiresOnLibcRandomness)
{
    const auto violations = scan_source(
        "src/core/x.cpp",
        "#include <cstdlib>\n"
        "void f() { srand(7); }\n"
        "int g() { return rand(); }\n");
    EXPECT_EQ(violations.size(), 2U);
    EXPECT_TRUE(has_rule(violations, "chrysalis-rand"));
}

TEST(LintRules, RandIgnoresStringsCommentsAndIdentifiers)
{
    const auto violations = scan_source(
        "src/core/x.cpp",
        "// rand() in a comment\n"
        "const char* s = \"rand()\";\n"
        "int operand(int brand);\n");
    EXPECT_TRUE(violations.empty()) << violations.front().message;
}

TEST(LintRules, ClockAllowedOnlyUnderObs)
{
    const std::string code =
        "#include <chrono>\n"
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_TRUE(has_rule(scan_source("src/core/x.cpp", code),
                         "chrysalis-clock"));
    EXPECT_FALSE(has_rule(scan_source("src/obs/x.cpp", code),
                          "chrysalis-clock"));
}

TEST(LintRules, SystemClockBannedEvenInObs)
{
    const auto violations = scan_source(
        "src/obs/x.cpp",
        "auto t = std::chrono::system_clock::now();\n");
    EXPECT_TRUE(has_rule(violations, "chrysalis-clock"));
}

TEST(LintRules, GetenvAllowlistIsExact)
{
    const std::string code = "const char* v = std::getenv(\"X\");\n";
    EXPECT_TRUE(has_rule(scan_source("src/core/x.cpp", code),
                         "chrysalis-getenv"));
    EXPECT_FALSE(has_rule(scan_source("src/common/logging.cpp", code),
                          "chrysalis-getenv"));
    EXPECT_FALSE(has_rule(scan_source("bench/common/bench_util.cpp", code),
                          "chrysalis-getenv"));
}

TEST(LintRules, UnorderedIterationFlagsRangeForAndBegin)
{
    const auto violations = scan_source(
        "src/core/x.cpp",
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> scores;\n"
        "void f() {\n"
        "  for (const auto& kv : scores) { (void)kv; }\n"
        "  auto it = scores.begin();\n"
        "  (void)it;\n"
        "}\n");
    EXPECT_EQ(violations.size(), 2U);
    EXPECT_TRUE(has_rule(violations, "chrysalis-unordered-iter"));
}

TEST(LintRules, UnorderedLookupIsClean)
{
    const auto violations = scan_source(
        "src/core/x.cpp",
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> scores;\n"
        "bool f() { return scores.find(3) != scores.end(); }\n");
    EXPECT_FALSE(has_rule(violations, "chrysalis-unordered-iter"));
}

TEST(LintRules, FloatFormatScopedToReportPaths)
{
    const std::string code =
        "#include <cstdio>\n"
        "void f(double x) { std::printf(\"%.6f\", x); }\n";
    EXPECT_TRUE(has_rule(scan_source("src/core/campaign_journal.cpp", code),
                         "chrysalis-float-format"));
    // Every document's doubles pass through the writer and the handlers.
    EXPECT_TRUE(has_rule(scan_source("src/common/flat_json.cpp", code),
                         "chrysalis-float-format"));
    EXPECT_TRUE(has_rule(scan_source("src/serve/handlers.cpp", code),
                         "chrysalis-float-format"));
    // Outside the journal/report surfaces the rule does not apply.
    EXPECT_FALSE(has_rule(scan_source("src/energy/harvester.cpp", code),
                          "chrysalis-float-format"));
    // The helper's own home is exempt: it is where %.17g must live.
    EXPECT_FALSE(
        has_rule(scan_source("src/common/string_utils.cpp", code),
                 "chrysalis-float-format"));
}

TEST(LintRules, IntegerFormatsAreFineInReportPaths)
{
    const auto violations = scan_source(
        "src/core/campaign_journal.cpp",
        "#include <cstdio>\n"
        "void f(int n) { std::printf(\"%d %08x\", n, n); }\n");
    EXPECT_FALSE(has_rule(violations, "chrysalis-float-format"));
}

TEST(LintRules, UnitSuffixFlagsNonSiDoubles)
{
    const auto violations = scan_source(
        "src/energy/x.hpp",
        "#ifndef CHRYSALIS_ENERGY_X_HPP\n"
        "#define CHRYSALIS_ENERGY_X_HPP\n"
        "struct P { double latency_ms = 0.0; double latency_s = 0.0; };\n"
        "double charge(double cap_f, float budget_mj);\n"
        "#endif  // CHRYSALIS_ENERGY_X_HPP\n");
    EXPECT_EQ(violations.size(), 2U);
    EXPECT_TRUE(has_rule(violations, "chrysalis-unit-suffix"));
}

TEST(LintRules, HeaderGuardDerivedFromPath)
{
    const std::string good =
        "#ifndef CHRYSALIS_CORE_X_HPP\n"
        "#define CHRYSALIS_CORE_X_HPP\n"
        "#endif  // CHRYSALIS_CORE_X_HPP\n";
    EXPECT_TRUE(scan_source("src/core/x.hpp", good).empty());

    const std::string wrong =
        "#ifndef WRONG_GUARD_HPP\n"
        "#define WRONG_GUARD_HPP\n"
        "#endif\n";
    EXPECT_TRUE(has_rule(scan_source("src/core/x.hpp", wrong),
                         "chrysalis-header-guard"));

    EXPECT_TRUE(has_rule(scan_source("src/core/x.hpp", "#pragma once\n"),
                         "chrysalis-header-guard"));

    // Guards outside src/ keep their full path (tools/, bench/, tests/).
    const std::string tool_guard =
        "#ifndef CHRYSALIS_TOOLS_LINT_Y_HPP\n"
        "#define CHRYSALIS_TOOLS_LINT_Y_HPP\n"
        "#endif  // CHRYSALIS_TOOLS_LINT_Y_HPP\n";
    EXPECT_TRUE(scan_source("tools/lint/y.hpp", tool_guard).empty());
}

TEST(LintRules, IncludeRuleBansCCompatAndScopesTime)
{
    EXPECT_TRUE(has_rule(
        scan_source("src/core/x.cpp", "#include <stdio.h>\n"),
        "chrysalis-include"));
    EXPECT_TRUE(has_rule(scan_source("src/core/x.cpp", "#include <ctime>\n"),
                         "chrysalis-include"));
    EXPECT_FALSE(has_rule(scan_source("src/obs/x.cpp", "#include <time.h>\n"),
                          "chrysalis-include"));
    EXPECT_TRUE(has_rule(scan_source("src/core/x.cpp", "#include <random>\n"),
                         "chrysalis-include"));
    EXPECT_FALSE(
        has_rule(scan_source("src/common/rng.hpp",
                             "#ifndef CHRYSALIS_COMMON_RNG_HPP\n"
                             "#define CHRYSALIS_COMMON_RNG_HPP\n"
                             "#include <random>\n"
                             "#endif  // CHRYSALIS_COMMON_RNG_HPP\n"),
                 "chrysalis-include"));
}

TEST(LintRules, NetworkHeadersScopedToServe)
{
    EXPECT_TRUE(has_rule(
        scan_source("src/core/x.cpp", "#include <sys/socket.h>\n"),
        "chrysalis-include"));
    EXPECT_TRUE(has_rule(scan_source("src/hw/x.cpp", "#include <unistd.h>\n"),
                         "chrysalis-include"));
    EXPECT_TRUE(has_rule(scan_source("bench/x.cpp", "#include <poll.h>\n"),
                         "chrysalis-include"));
    EXPECT_FALSE(has_rule(scan_source("src/serve/server.cpp",
                                      "#include <sys/socket.h>\n"
                                      "#include <netinet/in.h>\n"
                                      "#include <poll.h>\n"
                                      "#include <unistd.h>\n"),
                          "chrysalis-include"));
}

TEST(LintRules, IostreamBannedInHeadersOnly)
{
    const std::string header =
        "#ifndef CHRYSALIS_CORE_X_HPP\n"
        "#define CHRYSALIS_CORE_X_HPP\n"
        "#include <iostream>\n"
        "#endif  // CHRYSALIS_CORE_X_HPP\n";
    EXPECT_TRUE(has_rule(scan_source("src/core/x.hpp", header),
                         "chrysalis-include"));
    EXPECT_FALSE(has_rule(scan_source("src/core/x.cpp",
                                      "#include <iostream>\n"),
                          "chrysalis-include"));
}

TEST(LintRules, WellFormedNolintSuppresses)
{
    const auto violations = scan_source(
        "src/core/x.cpp",
        "const char* v = std::getenv(\"X\");"
        "  // NOLINT(chrysalis-getenv): test fixture\n");
    EXPECT_TRUE(violations.empty());
}

TEST(LintRules, NolintNextlineTargetsFollowingLine)
{
    const auto violations = scan_source(
        "src/core/x.cpp",
        "// NOLINTNEXTLINE(chrysalis-getenv): test fixture\n"
        "const char* v = std::getenv(\"X\");\n");
    EXPECT_TRUE(violations.empty());
}

TEST(LintRules, NolintWrongRuleDoesNotSuppress)
{
    const auto violations = scan_source(
        "src/core/x.cpp",
        "const char* v = std::getenv(\"X\");"
        "  // NOLINT(chrysalis-clock): wrong rule\n");
    EXPECT_TRUE(has_rule(violations, "chrysalis-getenv"));
}

TEST(LintRules, MalformedNolintIsItselfAViolation)
{
    EXPECT_TRUE(has_rule(scan_source("src/core/x.cpp",
                                     "int x = 0;  // NOLINT(): empty\n"),
                         "chrysalis-nolint"));
    EXPECT_TRUE(has_rule(
        scan_source("src/core/x.cpp",
                    "int x = 0;  // NOLINT(chrysalis-rand) no colon\n"),
        "chrysalis-nolint"));
    EXPECT_TRUE(has_rule(
        scan_source("src/core/x.cpp",
                    "int x = 0;  // NOLINT(chrysalis-bogus): unknown\n"),
        "chrysalis-nolint"));
}

TEST(LintRules, BareNolintWordIsInertProse)
{
    const auto violations = scan_source(
        "src/core/x.cpp",
        "// Comments may mention NOLINT without being a directive.\n"
        "int x = 0;\n");
    EXPECT_TRUE(violations.empty());
}

TEST(LintRules, ViolationsSortedByLineThenRule)
{
    const auto violations = scan_source(
        "src/core/x.cpp",
        "#include <stdio.h>\n"
        "#include <stdlib.h>\n"
        "int f() { return rand(); }\n");
    ASSERT_EQ(violations.size(), 3U);
    EXPECT_EQ(violations[0].line, 1);
    EXPECT_EQ(violations[1].line, 2);
    EXPECT_EQ(violations[2].line, 3);
    EXPECT_EQ(violations[2].rule, "chrysalis-rand");
}

TEST(LintBaseline, KeyOmitsLineNumber)
{
    Violation v;
    v.file = "src/core/x.cpp";
    v.line = 42;
    v.rule = "chrysalis-rand";
    v.source = "int r = rand();";
    const std::string key = chrysalis::lint::baseline_key(v);
    EXPECT_EQ(key, "src/core/x.cpp|chrysalis-rand|int r = rand();");
    v.line = 99;  // moving the site must not invalidate the baseline
    EXPECT_EQ(chrysalis::lint::baseline_key(v), key);
}

TEST(LintBaseline, EachEntryAbsorbsOneViolation)
{
    Violation v;
    v.file = "src/core/x.cpp";
    v.rule = "chrysalis-rand";
    v.source = "int r = rand();";
    v.line = 10;
    Violation w = v;
    w.line = 20;

    const std::string key = chrysalis::lint::baseline_key(v);
    // One baseline entry, two identical sites: one must still surface.
    auto remaining = chrysalis::lint::apply_baseline({v, w}, {key});
    EXPECT_EQ(remaining.size(), 1U);
    // Two entries absorb both.
    remaining = chrysalis::lint::apply_baseline({v, w}, {key, key});
    EXPECT_TRUE(remaining.empty());
    // Stale entries are ignored.
    remaining = chrysalis::lint::apply_baseline({v}, {key, "stale|x|y"});
    EXPECT_TRUE(remaining.empty());
}

}  // namespace
