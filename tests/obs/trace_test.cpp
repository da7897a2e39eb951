/// \file
/// Tests for tracing spans: inertness without a session, nesting depth,
/// multi-thread merge, Chrome trace-event JSON shape, monotonic-timed
/// spans (add_span) and the SpanTimer dual role (always times, records
/// only when attached).

#include "obs/trace.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace chrysalis::obs {
namespace {

TEST(ScopedSpanTest, InertWithoutSession)
{
    ASSERT_EQ(trace(), nullptr);
    {
        OBS_SPAN("unattached");
        OBS_SPAN("also unattached");
    }
    // Nothing to observe directly — the contract is simply "no crash,
    // no state"; a session attached later must not see these spans.
    TraceSession session;
    ScopedTrace scope(session);
    EXPECT_TRUE(session.merged().empty());
}

TEST(ScopedSpanTest, RecordsNestingDepth)
{
    TraceSession session;
    {
        ScopedTrace scope(session);
        OBS_SPAN("root");
        {
            OBS_SPAN("child");
            { OBS_SPAN("grandchild"); }
        }
        OBS_SPAN("sibling");  // same depth as "child"
    }
    const std::vector<TraceEvent> events = session.merged();
    ASSERT_EQ(events.size(), 4u);
    std::uint32_t root_depth = 0, child_depth = 0, grandchild_depth = 0;
    for (const TraceEvent& event : events) {
        if (event.name == "root")
            root_depth = event.depth;
        else if (event.name == "child" || event.name == "sibling")
            child_depth = event.depth;
        else if (event.name == "grandchild")
            grandchild_depth = event.depth;
        EXPECT_GE(event.duration_us, 0.0) << event.name;
        EXPECT_GE(event.start_us, 0.0) << event.name;
    }
    EXPECT_EQ(root_depth, 0u);
    EXPECT_EQ(child_depth, 1u);
    EXPECT_EQ(grandchild_depth, 2u);
}

TEST(ScopedSpanTest, SpanOpenAcrossDetachDoesNotLeakIntoNextSession)
{
    // A span that outlives its session must not record into a session
    // attached afterwards (the session-id check).
    TraceSession first;
    attach_trace(&first);
    auto* orphan = new ScopedSpan("orphan");
    attach_trace(nullptr);

    TraceSession second;
    attach_trace(&second);
    delete orphan;  // closes after its session detached
    attach_trace(nullptr);
    EXPECT_TRUE(second.merged().empty());
    EXPECT_TRUE(first.merged().empty());
}

TEST(TraceSessionTest, MergesEventsFromMultipleThreads)
{
    TraceSession session;
    constexpr int kThreads = 4;
    constexpr int kSpans = 25;
    {
        ScopedTrace scope(session);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([] {
                for (int i = 0; i < kSpans; ++i) {
                    OBS_SPAN("worker");
                }
            });
        }
        for (auto& thread : threads)
            thread.join();
    }
    const std::vector<TraceEvent> events = session.merged();
    ASSERT_EQ(events.size(),
              static_cast<std::size_t>(kThreads) * kSpans);
    // Distinct session-local tids, and stable (tid, start) order.
    std::vector<std::uint32_t> tids;
    for (const TraceEvent& event : events)
        tids.push_back(event.tid);
    std::vector<std::uint32_t> unique_tids = tids;
    std::sort(unique_tids.begin(), unique_tids.end());
    unique_tids.erase(
        std::unique(unique_tids.begin(), unique_tids.end()),
        unique_tids.end());
    EXPECT_EQ(unique_tids.size(), static_cast<std::size_t>(kThreads));
    EXPECT_TRUE(std::is_sorted(tids.begin(), tids.end()));
}

TEST(TraceSessionTest, ChromeTraceJsonShape)
{
    TraceSession session;
    {
        ScopedTrace scope(session);
        OBS_SPAN("outer \"quoted\"");
        OBS_SPAN("inner");
        OBS_SPAN("control\x01" "byte");
    }
    std::ostringstream os;
    session.write_chrome_trace(os);
    const std::string json = os.str();
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\"", 0), 0u) << json;
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\":"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":"), std::string::npos);
    // The quote in the span name must be escaped, and a control byte
    // written as a JSON escape.
    EXPECT_NE(json.find("outer \\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("control\\u0001byte"), std::string::npos) << json;
}

TEST(TraceSessionTest, DestructorDetachesItself)
{
    {
        auto session = std::make_unique<TraceSession>();
        attach_trace(session.get());
        EXPECT_EQ(trace(), session.get());
    }  // destroyed while attached
    EXPECT_EQ(trace(), nullptr);
    // Spans after the session died must be inert, not a use-after-free.
    OBS_SPAN("after death");
}

TEST(TraceSessionTest, AddSpanLandsOnTheSessionTimeline)
{
    TraceSession session;
    {
        ScopedTrace scope(session);
        TraceContext context;
        context.trace_id = 0x42;
        ScopedTraceContext scoped_context(context);
        OBS_SPAN("outer");
        // A stage timed with monotonic readings taken inside "outer"
        // must map inside it: both epochs are fixed clock points.
        session.add_span("stage", monotonic_seconds(), 0.0, 1);
    }
    const std::vector<TraceEvent> events = session.merged();
    ASSERT_EQ(events.size(), 2u);
    const bool outer_first = events[0].name == "outer";
    const TraceEvent& outer = events[outer_first ? 0 : 1];
    const TraceEvent& stage = events[outer_first ? 1 : 0];
    ASSERT_EQ(stage.name, "stage");
    // Tolerances absorb double rounding of two equal clock readings.
    EXPECT_GE(stage.start_us, outer.start_us - 1e-3);
    EXPECT_LE(stage.start_us, outer.start_us + outer.duration_us + 1e-3);
    EXPECT_EQ(stage.depth, 1u);
    // Like any recorded span it inherits the thread's trace context.
    EXPECT_EQ(stage.trace_id, 0x42u);
}

TEST(SpanTimerTest, TimesWithoutSession)
{
    ASSERT_EQ(trace(), nullptr);
    SpanTimer timer("untracked");
    volatile double sink = 0.0;
    for (int i = 0; i < 10000; ++i)
        sink = sink + 1.0;
    EXPECT_GE(timer.elapsed_s(), 0.0);
}

TEST(SpanTimerTest, RecordsWhenSessionAttached)
{
    TraceSession session;
    {
        ScopedTrace scope(session);
        SpanTimer timer("timed scope");
        EXPECT_GE(timer.elapsed_s(), 0.0);
    }
    const std::vector<TraceEvent> events = session.merged();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "timed scope");
}

}  // namespace
}  // namespace chrysalis::obs
