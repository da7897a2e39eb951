/// \file
/// The bench binaries' environment knobs: Budget::from_env() reads
/// CHRYSALIS_BENCH_THREADS and CHRYSALIS_BENCH_CACHE with the CLIs'
/// checked parsers, so junk, a trailing suffix or a negative value stops
/// the binary before any work, naming the variable.

#include "common/bench_util.hpp"

#include <cstdlib>

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

}  // namespace
}  // namespace chrysalis::bench
