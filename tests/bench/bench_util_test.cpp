/// \file
/// The bench binaries' environment knobs: Budget::from_env() reads
/// CHRYSALIS_BENCH_THREADS and CHRYSALIS_BENCH_CACHE with the CLIs'
/// checked parsers, so junk, a trailing suffix or a negative value stops
/// the binary before any work, naming the variable. The run report is
/// written on a normal exit only.

#include "common/bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace chrysalis::bench {
namespace {

/// Reads the budget with \p name set to \p value. Death tests run it in
/// a child process, so the variable never leaks into other tests.
void
from_env_with(const char* name, const char* value)
{
    ::setenv(name, value, 1);
    Budget::from_env();
}

TEST(BenchBudgetDeathTest, MalformedThreadCountIsFatal)
{
    for (const char* value : {"abc", "2x", "-1", ""}) {
        EXPECT_EXIT(from_env_with("CHRYSALIS_BENCH_THREADS", value),
                    ::testing::ExitedWithCode(1), "CHRYSALIS_BENCH_THREADS")
            << '"' << value << '"';
    }
}

TEST(BenchBudgetDeathTest, MalformedCacheCapacityIsFatal)
{
    for (const char* value : {"abc", "64k", "-1", ""}) {
        EXPECT_EXIT(from_env_with("CHRYSALIS_BENCH_CACHE", value),
                    ::testing::ExitedWithCode(1), "CHRYSALIS_BENCH_CACHE")
            << '"' << value << '"';
    }
}

TEST(BenchBudgetTest, WellFormedKnobsAreRead)
{
    ::setenv("CHRYSALIS_BENCH_THREADS", "3", 1);
    ::setenv("CHRYSALIS_BENCH_CACHE", "0", 1);
    const Budget budget = Budget::from_env();
    ::unsetenv("CHRYSALIS_BENCH_THREADS");
    ::unsetenv("CHRYSALIS_BENCH_CACHE");
    EXPECT_EQ(budget.threads, 3);
    EXPECT_EQ(budget.cache_capacity, 0u);
}

/// The whole file at \p path ("" when it cannot be read).
std::string
read_file(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(BenchReportDeathTest, FatalExitKeepsThePriorReport)
{
    const std::string path = ::testing::TempDir() + "bench_report_fatal.json";
    const std::string prior = "{\"headline\":{\"kept\":1}}\n";
    std::ofstream(path) << prior;
    EXPECT_EXIT(
        {
            ::setenv("CHRYSALIS_BENCH_METRICS_OUT", path.c_str(), 1);
            begin_report("Report", "dies on a malformed knob");
            headline("lost", 2.0);
            from_env_with("CHRYSALIS_BENCH_THREADS", "abc");
        },
        ::testing::ExitedWithCode(1), "CHRYSALIS_BENCH_THREADS");
    EXPECT_EQ(read_file(path), prior);
    std::remove(path.c_str());
}

TEST(BenchReportDeathTest, NormalExitWritesTheHeadline)
{
    const std::string path = ::testing::TempDir() + "bench_report_ok.json";
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            ::setenv("CHRYSALIS_BENCH_METRICS_OUT", path.c_str(), 1);
            begin_report("Report", "exits 0");
            headline("answer", 42.0);
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
    const std::string report = read_file(path);
    EXPECT_NE(report.find("\"experiment\":\"Report\""), std::string::npos)
        << report;
    EXPECT_NE(report.find("\"headline\":{\"answer\":42}"),
              std::string::npos)
        << report;
    std::remove(path.c_str());
}

}  // namespace
}  // namespace chrysalis::bench
