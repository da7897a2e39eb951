// In-process tests for the include-graph layering analyzer behind
// `chrysalis_lint --graph`: layer-spec parsing, module mapping, and
// analyze_graph() on synthetic trees. The end-to-end CLI behavior
// (golden fixtures, the real tree) lives in lint_golden_test.cpp.
#include "lint_graph.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using chrysalis::lint::GraphFile;
using chrysalis::lint::GraphReport;
using chrysalis::lint::LayerSpec;
using chrysalis::lint::analyze_graph;
using chrysalis::lint::module_of;

LayerSpec parse_or_die(const std::string& text)
{
    LayerSpec spec;
    std::string error;
    EXPECT_TRUE(LayerSpec::parse(text, spec, error)) << error;
    return spec;
}

TEST(LayerSpecParse, RanksCommentsAndTop)
{
    const LayerSpec spec = parse_or_die(
        "# comment\n"
        "common = 0\n"
        "core = 2\n"
        "\n"
        "top = tools tests\n");
    ASSERT_EQ(spec.ranks.size(), 2u);
    EXPECT_EQ(spec.ranks.at("common"), 0);
    EXPECT_EQ(spec.ranks.at("core"), 2);
    EXPECT_EQ(spec.top.count("tools"), 1u);
    EXPECT_EQ(spec.top.count("tests"), 1u);
}

TEST(LayerSpecParse, RejectsMalformedInput)
{
    LayerSpec spec;
    std::string error;
    EXPECT_FALSE(LayerSpec::parse("", spec, error));
    EXPECT_FALSE(LayerSpec::parse("common zero\n", spec, error));
    EXPECT_FALSE(LayerSpec::parse("common = zero\n", spec, error));
    EXPECT_FALSE(LayerSpec::parse("common = 0\ncommon = 1\n", spec,
                                  error));
    // A module cannot be both ranked and top.
    EXPECT_FALSE(LayerSpec::parse("tools = 0\ntop = tools\n", spec,
                                  error));
    EXPECT_FALSE(error.empty());
}

TEST(LayerSpecParse, BuiltinDescribesTheRealTree)
{
    const LayerSpec& spec = LayerSpec::builtin();
    ASSERT_NE(spec.ranks.count("common"), 0u);
    EXPECT_EQ(spec.ranks.at("common"), 0);  // the foundation
    ASSERT_NE(spec.ranks.count("serve"), 0u);
    EXPECT_LT(spec.ranks.at("core"), spec.ranks.at("serve"));
    for (const auto& [module, rank] : spec.ranks)
        EXPECT_LE(rank, spec.ranks.at("serve")) << module;  // the top
    EXPECT_NE(spec.top.count("tools"), 0u);
    EXPECT_NE(spec.top.count("tests"), 0u);
}

TEST(ModuleOf, MapsSrcAndTopTrees)
{
    EXPECT_EQ(module_of("src/common/logging.hpp"), "common");
    EXPECT_EQ(module_of("src/serve/server.cpp"), "serve");
    EXPECT_EQ(module_of("tools/lint/lint_core.cpp"), "tools");
    EXPECT_EQ(module_of("bench/common/bench_util.cpp"), "bench");
    EXPECT_EQ(module_of("tests/runtime/thread_pool_test.cpp"), "tests");
}

TEST(AnalyzeGraph, CleanTreeHasNoViolations)
{
    const LayerSpec spec =
        parse_or_die("common = 0\ncore = 1\ntop = tools\n");
    const std::vector<GraphFile> files = {
        {"src/common/base.hpp", "#ifndef B\n#define B\n#endif\n"},
        {"src/core/engine.hpp", "#include \"common/base.hpp\"\n"},
        {"src/core/main.cpp", "#include \"core/engine.hpp\"\n"},
    };
    const GraphReport report = analyze_graph(files, spec);
    EXPECT_TRUE(report.violations.empty());
}

TEST(AnalyzeGraph, FlagsUpwardEdge)
{
    const LayerSpec spec =
        parse_or_die("common = 0\ncore = 1\ntop = tools\n");
    const std::vector<GraphFile> files = {
        {"src/common/util.hpp", "#include \"core/engine.hpp\"\n"},
        {"src/core/engine.hpp", "int engine();\n"},
        {"src/core/main.cpp",
         "#include \"common/util.hpp\"\n#include \"core/engine.hpp\"\n"},
    };
    const GraphReport report = analyze_graph(files, spec);
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].rule, "chrysalis-layering");
    EXPECT_EQ(report.violations[0].file, "src/common/util.hpp");
    EXPECT_EQ(report.violations[0].line, 1);
}

TEST(AnalyzeGraph, FlagsSameLayerCrossModuleEdge)
{
    // Two distinct modules on the same rank may not include each other:
    // edges must point strictly down.
    const LayerSpec spec =
        parse_or_die("fault = 1\nruntime = 1\ntop = tools\n");
    const std::vector<GraphFile> files = {
        {"src/fault/injector.hpp",
         "#include \"runtime/stable_hash.hpp\"\n"},
        {"src/runtime/stable_hash.hpp", "int hash();\n"},
        {"src/fault/main.cpp", "#include \"fault/injector.hpp\"\n"},
    };
    const GraphReport report = analyze_graph(files, spec);
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].rule, "chrysalis-layering");
}

TEST(AnalyzeGraph, TopMayIncludeAnythingButIsNeverIncluded)
{
    const LayerSpec spec =
        parse_or_die("common = 0\ncore = 1\ntop = tools\n");
    const std::vector<GraphFile> files = {
        {"src/core/engine.hpp", "#include \"tools/shared.hpp\"\n"},
        {"tools/shared.hpp", "int shared();\n"},
        {"tools/main.cpp",
         "#include \"src/core/engine.hpp\"\n"
         "#include \"tools/shared.hpp\"\n"},
        {"src/core/main.cpp", "#include \"core/engine.hpp\"\n"},
    };
    const GraphReport report = analyze_graph(files, spec);
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].rule, "chrysalis-layering");
    EXPECT_EQ(report.violations[0].file, "src/core/engine.hpp");
}

TEST(AnalyzeGraph, ReportsCycleOnce)
{
    const LayerSpec spec = parse_or_die("core = 0\ntop = tools\n");
    const std::vector<GraphFile> files = {
        {"src/core/alpha.hpp", "#include \"core/beta.hpp\"\n"},
        {"src/core/beta.hpp", "#include \"core/alpha.hpp\"\n"},
        {"src/core/main.cpp", "#include \"core/alpha.hpp\"\n"},
    };
    const GraphReport report = analyze_graph(files, spec);
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].rule, "chrysalis-include-cycle");
    EXPECT_NE(report.violations[0].message.find(
                  "src/core/alpha.hpp -> src/core/beta.hpp -> "
                  "src/core/alpha.hpp"),
              std::string::npos)
        << report.violations[0].message;
}

TEST(AnalyzeGraph, FlagsOrphanHeader)
{
    const LayerSpec spec = parse_or_die("core = 0\ntop = tools\n");
    const std::vector<GraphFile> files = {
        {"src/core/used.hpp", "int used();\n"},
        {"src/core/dead.hpp", "int dead();\n"},
        {"src/core/main.cpp", "#include \"core/used.hpp\"\n"},
    };
    const GraphReport report = analyze_graph(files, spec);
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].rule, "chrysalis-orphan-header");
    EXPECT_EQ(report.violations[0].file, "src/core/dead.hpp");
}

TEST(AnalyzeGraph, UnknownModuleIsAViolation)
{
    const LayerSpec spec = parse_or_die("common = 0\ntop = tools\n");
    const std::vector<GraphFile> files = {
        {"src/rogue/new_code.cpp", "#include \"common/base.hpp\"\n"},
        {"src/common/base.hpp", "int base();\n"},
        {"src/common/main.cpp", "#include \"common/base.hpp\"\n"},
    };
    const GraphReport report = analyze_graph(files, spec);
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].rule, "chrysalis-layering");
    EXPECT_NE(report.violations[0].message.find("layering spec"),
              std::string::npos);
}

TEST(AnalyzeGraph, DotNamesModulesAndEdges)
{
    const LayerSpec spec =
        parse_or_die("common = 0\ncore = 1\ntop = tools\n");
    const std::vector<GraphFile> files = {
        {"src/common/base.hpp", "int base();\n"},
        {"src/core/engine.hpp", "#include \"common/base.hpp\"\n"},
        {"src/core/main.cpp", "#include \"core/engine.hpp\"\n"},
    };
    const GraphReport report = analyze_graph(files, spec);
    EXPECT_NE(report.dot.find("digraph"), std::string::npos);
    EXPECT_NE(report.dot.find("\"core\" -> \"common\""),
              std::string::npos)
        << report.dot;
    // Deterministic output: same input, same bytes.
    EXPECT_EQ(report.dot, analyze_graph(files, spec).dot);
}

TEST(AnalyzeGraph, RealTreeSpecAcceptsRealEdges)
{
    // A miniature copy of real-tree edges must be clean under the
    // compiled-in spec (the full-tree check runs as the lint.graph
    // ctest and in lint_golden_test.cpp).
    const std::vector<GraphFile> files = {
        {"src/common/logging.hpp", ""},
        {"src/obs/metrics.hpp", "#include \"common/logging.hpp\"\n"},
        {"src/runtime/thread_pool.hpp",
         "#include \"common/mutex.hpp\"\n"},
        {"src/common/mutex.hpp", ""},
        {"src/serve/server.cpp",
         "#include \"runtime/thread_pool.hpp\"\n"
         "#include \"obs/metrics.hpp\"\n"},
        {"tests/runtime/thread_pool_test.cpp",
         "#include \"runtime/thread_pool.hpp\"\n"},
    };
    const GraphReport report =
        analyze_graph(files, LayerSpec::builtin());
    for (const auto& violation : report.violations)
        ADD_FAILURE() << violation.file << ": " << violation.message;
}

}  // namespace
