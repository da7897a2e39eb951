/// \file
/// Tests for the ProgressReporter heartbeat: rate limiting, the final
/// summary line, crash/restore annotations and the kInform level
/// gating (silent at the default kWarn threshold).

#include "obs/progress.hpp"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hpp"

namespace chrysalis::obs {
namespace {

/// Captures kInform heartbeat lines through the logging sink; restores
/// the previous level/sink on destruction.
class ProgressTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        saved_level_ = log_level();
        set_log_level(LogLevel::kInform);
        set_log_sink([this](LogLevel level, std::string_view message) {
            records_.emplace_back(level, std::string(message));
        });
    }

    void TearDown() override
    {
        set_log_sink({});
        set_log_level(saved_level_);
    }

    std::vector<std::pair<LogLevel, std::string>> records_;

  private:
    LogLevel saved_level_;
};

ProgressReporter::Options
every_event()
{
    ProgressReporter::Options options;
    options.min_interval_s = 0.0;
    return options;
}

TEST_F(ProgressTest, EmitsHeartbeatPerEventAtZeroInterval)
{
    ProgressReporter progress("unit-test", 3, every_event());
    progress.advance();
    progress.advance();
    progress.advance();  // last item: its line is finish()'s job
    progress.finish();
    EXPECT_EQ(progress.reports_emitted(), 3u);  // 2 heartbeats + summary
    ASSERT_EQ(records_.size(), 3u);
    for (const auto& record : records_) {
        EXPECT_EQ(record.first, LogLevel::kInform);
        EXPECT_NE(record.second.find("unit-test"), std::string::npos);
    }
    EXPECT_NE(records_[0].second.find("1/3"), std::string::npos)
        << records_[0].second;
    EXPECT_NE(records_.back().second.find("3/3"), std::string::npos)
        << records_.back().second;
}

TEST_F(ProgressTest, RateLimitSuppressesIntermediateLines)
{
    ProgressReporter::Options slow;
    slow.min_interval_s = 3600.0;  // nothing but the summary can pass
    ProgressReporter progress("quiet", 100, slow);
    for (int i = 0; i < 100; ++i)
        progress.advance();
    EXPECT_EQ(progress.reports_emitted(), 0u);
    progress.finish();
    EXPECT_EQ(progress.reports_emitted(), 1u);  // final line always lands
    ASSERT_EQ(records_.size(), 1u);
    EXPECT_NE(records_[0].second.find("100/100"), std::string::npos);
}

TEST_F(ProgressTest, FinishIsIdempotent)
{
    ProgressReporter progress("once", 1, every_event());
    progress.advance();
    progress.finish();
    progress.finish();
    progress.finish();
    EXPECT_EQ(progress.reports_emitted(), 1u);  // exactly one summary
}

TEST_F(ProgressTest, AnnotatesCrashesAndRestores)
{
    ProgressReporter progress("flaky", 4, every_event());
    progress.advance();
    progress.note_crash();
    progress.advance();
    progress.note_restored();
    progress.advance();
    progress.advance();
    progress.finish();
    const std::string& summary = records_.back().second;
    EXPECT_NE(summary.find("crash"), std::string::npos) << summary;
    EXPECT_NE(summary.find("restored"), std::string::npos) << summary;
}

TEST_F(ProgressTest, CleanRunSummaryOmitsFailureAnnotations)
{
    ProgressReporter progress("clean", 2, every_event());
    progress.advance();
    progress.advance();
    progress.finish();
    const std::string& summary = records_.back().second;
    EXPECT_EQ(summary.find("crash"), std::string::npos) << summary;
}

TEST(ProgressLevelTest, SilentAtDefaultWarnThreshold)
{
    const LogLevel saved = log_level();
    set_log_level(LogLevel::kWarn);
    std::vector<std::string> records;
    set_log_sink([&](LogLevel, std::string_view message) {
        records.emplace_back(message);
    });
    ProgressReporter::Options options;
    options.min_interval_s = 0.0;
    ProgressReporter progress("hidden", 2, options);
    progress.advance();
    progress.advance();
    progress.finish();
    set_log_sink({});
    set_log_level(saved);
    EXPECT_TRUE(records.empty());
}

}  // namespace
}  // namespace chrysalis::obs
