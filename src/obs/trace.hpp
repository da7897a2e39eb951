/// \file
/// Scoped tracing spans with Chrome trace-event export.
///
/// `OBS_SPAN("ga/generation")` opens a span that records hierarchical
/// wall time onto a per-thread buffer of the attached `TraceSession`;
/// `TraceSession::write_chrome_trace()` merges every thread's buffer
/// (thread-safe) into a `chrome://tracing` / Perfetto-loadable JSON
/// file. With no session attached a span is two relaxed atomic loads —
/// no clock read, no allocation — so leaving the macros in hot-ish
/// paths (one span per GA generation, per inner mapping search, per
/// campaign case) costs nothing in production runs.
///
/// Concurrency contract: spans may open and close on any thread while a
/// session is attached. Attaching, detaching, flushing and destroying a
/// session must happen while no instrumented code is running
/// concurrently (attach before spawning work, flush after joining) —
/// the same quiescence rule as `obs::attach_metrics`.

#ifndef CHRYSALIS_OBS_TRACE_HPP
#define CHRYSALIS_OBS_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace chrysalis::obs {

/// One completed span ("X" complete event in the Chrome trace format).
struct TraceEvent {
    std::string name;
    std::uint32_t tid = 0;    ///< session-local thread id (registration
                              ///< order, not an OS tid)
    std::uint32_t depth = 0;  ///< nesting depth on its thread (0 = root)
    // Chrome's trace-event JSON schema mandates microsecond timestamps;
    // keeping these fields in the emitted unit avoids a lossy convert
    // at every span record.
    // NOLINTNEXTLINE(chrysalis-unit-suffix): Chrome trace spec uses us
    double start_us = 0.0;    ///< relative to the session epoch
    // NOLINTNEXTLINE(chrysalis-unit-suffix): Chrome trace spec uses us
    double duration_us = 0.0;
    // Request-trace attribution (default = untagged span; the Chrome
    // writer emits the extra arg only when set, so untraced runs keep
    // the plain byte layout).
    std::uint64_t trace_id = 0;  ///< request trace id; 0 = none
};

/// Request trace context carried on the wire as one flat request
/// field: `"trace":"<trace_id hex>-<parent span hex>-<01|00>"`. The
/// server parses it, installs it as the calling thread's context for
/// the request's evaluation (ScopedTraceContext) and every span
/// recorded meanwhile inherits its trace_id.
struct TraceContext {
    std::uint64_t trace_id = 0;     ///< 0 = no active trace
    std::uint64_t parent_span = 0;  ///< caller's span id; 0 = root
    bool sampled = true;            ///< false = propagate but do not record

    bool active() const { return trace_id != 0 && sampled; }
};

/// Encodes trace_id/parent_span/sampled as the wire field value.
std::string format_trace_field(const TraceContext& context);

/// Parses a wire field value; returns false (and leaves \p out
/// untouched) on malformed input.
bool parse_trace_field(std::string_view text, TraceContext& out);

/// RAII: installs \p context as the calling thread's trace context and
/// restores the previous one on destruction. Spans recorded while it
/// is live are stamped with the context's trace_id.
class ScopedTraceContext
{
  public:
    explicit ScopedTraceContext(const TraceContext& context);
    ~ScopedTraceContext();
    ScopedTraceContext(const ScopedTraceContext&) = delete;
    ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  private:
    TraceContext previous_;
};

/// Collects spans from all threads; owns the per-thread buffers.
class TraceSession
{
  public:
    TraceSession();
    ~TraceSession();  ///< detaches itself if still the current session
    TraceSession(const TraceSession&) = delete;
    TraceSession& operator=(const TraceSession&) = delete;

    /// All recorded events, merged across threads and sorted by
    /// (tid, start, depth) for a stable order. Quiescence required.
    std::vector<TraceEvent> merged() const;

    /// Writes the merged events as Chrome trace-event JSON
    /// (`{"traceEvents":[...]}`), loadable in chrome://tracing and
    /// https://ui.perfetto.dev. Quiescence required.
    void write_chrome_trace(std::ostream& out) const;

    /// write_chrome_trace to \p path; fatal() when unwritable.
    void write_chrome_trace_file(const std::string& path) const;

    /// Records a span timed with monotonic_seconds() readings rather
    /// than by a ScopedSpan — for stages measured after the fact, like
    /// the serve path's per-request decode/queue/eval/encode split.
    /// Like every recorded span it lands on the calling thread's
    /// buffer and inherits the calling thread's trace context.
    void add_span(std::string_view name, double start_mono_s,
                  double duration_s, std::uint32_t depth);

    /// Unique id of this session (monotonic across the process); lets
    /// thread-local caches detect a stale session after detach.
    std::uint64_t id() const { return id_; }

  private:
    friend class ScopedSpan;
    friend class SpanTimer;

    struct ThreadBuffer {
        Mutex mutex;  ///< append vs merge; uncontended in steady state
        std::uint32_t tid = 0;  ///< written once at registration
        std::vector<TraceEvent> events CHRYSALIS_GUARDED_BY(mutex);
    };

    /// Buffer of the calling thread, registering one on first use.
    ThreadBuffer& buffer_for_this_thread();

    void record(std::string_view name,
                std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end,
                std::uint32_t depth);

    /// Stamps the calling thread's trace context onto \p event and
    /// appends it to that thread's buffer.
    void append(TraceEvent event);

    std::uint64_t id_ = 0;
    std::chrono::steady_clock::time_point epoch_;
    mutable Mutex mutex_;  ///< guards buffers_ registration/merge
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_
        CHRYSALIS_GUARDED_BY(mutex_);
};

/// Process-global session; nullptr (the default) disables all spans.
/// Non-owning; see the quiescence contract in the file comment.
TraceSession* trace();
void attach_trace(TraceSession* session);

/// RAII attach/detach for tools and tests.
class ScopedTrace
{
  public:
    explicit ScopedTrace(TraceSession& session) { attach_trace(&session); }
    ~ScopedTrace() { attach_trace(nullptr); }
    ScopedTrace(const ScopedTrace&) = delete;
    ScopedTrace& operator=(const ScopedTrace&) = delete;
};

/// Nesting depth of the recorded spans open on the calling thread
/// (0 = none).
std::uint32_t span_depth();

/// RAII: the calling thread records its spans from \p depth for the
/// guard's lifetime, then returns to its own depth. A pool runner takes
/// the depth of the thread that issued its batch, so a task's spans nest
/// the same way whichever thread runs it.
class ScopedSpanDepth
{
  public:
    explicit ScopedSpanDepth(std::uint32_t depth);
    ~ScopedSpanDepth();
    ScopedSpanDepth(const ScopedSpanDepth&) = delete;
    ScopedSpanDepth& operator=(const ScopedSpanDepth&) = delete;

  private:
    std::uint32_t previous_;
};

/// A span over its C++ scope. Inert (no clock read) when no session is
/// attached at construction; prefer the OBS_SPAN macro at call sites.
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string_view name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    TraceSession* session_ = nullptr;  ///< nullptr = inert
    std::uint64_t session_id_ = 0;
    std::string_view name_;
    std::uint32_t depth_ = 0;
    std::chrono::steady_clock::time_point start_;
};

/// Like ScopedSpan, but always times its scope (one steady_clock read at
/// each end) and exposes the elapsed wall time, so code that *reports*
/// durations (campaign wall_time_s, explorer wall_time_s) shares one
/// timing implementation with the trace instead of hand-rolling
/// steady_clock arithmetic. Records a trace event only when a session
/// is attached.
class SpanTimer
{
  public:
    explicit SpanTimer(std::string name);
    ~SpanTimer();  ///< records the span if a session is attached
    SpanTimer(const SpanTimer&) = delete;
    SpanTimer& operator=(const SpanTimer&) = delete;

    /// Wall time since construction [s].
    double elapsed_s() const;

  private:
    std::string name_;
    std::uint32_t depth_ = 0;
    bool tracing_ = false;
    std::chrono::steady_clock::time_point start_;
};

/// Monotonic wall-clock seconds since an arbitrary process-local epoch
/// (first call). The deadline/timeout primitive for code outside
/// src/obs/ — raw clock reads are confined to this subsystem, so
/// serving-path deadline arithmetic (client reply deadlines, server
/// idle sweeps) goes through this helper. Never goes
/// backwards. The epoch is per-process: values from two processes are
/// not comparable.
double monotonic_seconds();

}  // namespace chrysalis::obs

#define CHRYSALIS_OBS_CONCAT_INNER(a, b) a##b
#define CHRYSALIS_OBS_CONCAT(a, b) CHRYSALIS_OBS_CONCAT_INNER(a, b)

/// Opens a scoped span named \p name over the rest of the enclosing
/// block. Free when no TraceSession is attached.
#define OBS_SPAN(name)                                  \
    ::chrysalis::obs::ScopedSpan CHRYSALIS_OBS_CONCAT(  \
        chrysalis_obs_span_, __LINE__)                  \
    {                                                   \
        (name)                                          \
    }

#endif  // CHRYSALIS_OBS_TRACE_HPP
