#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/flat_json.hpp"
#include "common/logging.hpp"

namespace chrysalis::obs {

namespace {

std::atomic<TraceSession*> g_trace{nullptr};
std::atomic<std::uint64_t> g_next_session_id{1};

/// Current nesting depth of *recorded* spans on this thread.
thread_local std::uint32_t t_depth = 0;

/// The calling thread's request-trace context (inactive default).
thread_local TraceContext t_context;

/// The monotonic_seconds() epoch — a fixed steady_clock point, shared
/// with TraceSession::add_span() so monotonic readings map exactly onto
/// a session's timeline.
std::chrono::steady_clock::time_point
monotonic_epoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

bool
parse_hex_u64(std::string_view text, std::uint64_t& out)
{
    if (text.empty() || text.size() > 16)
        return false;
    std::uint64_t value = 0;
    for (const char c : text) {
        int digit = 0;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return false;
        value = (value << 4) | static_cast<std::uint64_t>(digit);
    }
    out = value;
    return true;
}

void
append_hex_u64(std::string& out, std::uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    out += buffer;
}

/// Cache of this thread's buffer in the current session, keyed by the
/// session id so a detached/destroyed session can never be dereferenced
/// through a stale pointer.
struct ThreadBufferCache {
    std::uint64_t session_id = 0;
    void* buffer = nullptr;
};
thread_local ThreadBufferCache t_buffer_cache;

double
microseconds_between(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

std::string
format_trace_field(const TraceContext& context)
{
    std::string out;
    out.reserve(16 + 1 + 16 + 1 + 2);
    append_hex_u64(out, context.trace_id);
    out += '-';
    append_hex_u64(out, context.parent_span);
    out += context.sampled ? "-01" : "-00";
    return out;
}

bool
parse_trace_field(std::string_view text, TraceContext& out)
{
    const std::size_t first = text.find('-');
    if (first == std::string_view::npos)
        return false;
    const std::size_t second = text.find('-', first + 1);
    if (second == std::string_view::npos)
        return false;
    TraceContext parsed;
    if (!parse_hex_u64(text.substr(0, first), parsed.trace_id))
        return false;
    if (!parse_hex_u64(text.substr(first + 1, second - first - 1),
                       parsed.parent_span))
        return false;
    const std::string_view flags = text.substr(second + 1);
    if (flags == "01")
        parsed.sampled = true;
    else if (flags == "00")
        parsed.sampled = false;
    else
        return false;
    out = parsed;
    return true;
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& context)
    : previous_(t_context)
{
    t_context = context;
}

ScopedTraceContext::~ScopedTraceContext()
{
    t_context = previous_;
}

TraceSession::TraceSession()
    : id_(g_next_session_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now())
{}

TraceSession::~TraceSession()
{
    if (trace() == this)
        attach_trace(nullptr);
}

TraceSession::ThreadBuffer&
TraceSession::buffer_for_this_thread()
{
    if (t_buffer_cache.session_id == id_ &&
        t_buffer_cache.buffer != nullptr)
        return *static_cast<ThreadBuffer*>(t_buffer_cache.buffer);
    MutexLock lock(mutex_);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = static_cast<std::uint32_t>(buffers_.size());
    ThreadBuffer& ref = *buffer;
    buffers_.push_back(std::move(buffer));
    t_buffer_cache = {id_, &ref};
    return ref;
}

void
TraceSession::record(std::string_view name,
                     std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end,
                     std::uint32_t depth)
{
    TraceEvent event;
    event.name.assign(name.data(), name.size());
    event.depth = depth;
    event.start_us = microseconds_between(epoch_, start);
    event.duration_us = microseconds_between(start, end);
    append(std::move(event));
}

void
TraceSession::add_span(std::string_view name, double start_mono_s,
                       double duration_s, std::uint32_t depth)
{
    // Both epochs are fixed steady_clock points, so the shift onto this
    // session's timeline is exact.
    const double epoch_mono_s =
        std::chrono::duration<double>(epoch_ - monotonic_epoch()).count();
    TraceEvent event;
    event.name.assign(name.data(), name.size());
    event.depth = depth;
    event.start_us = (start_mono_s - epoch_mono_s) * 1e6;
    event.duration_us = duration_s * 1e6;
    append(std::move(event));
}

void
TraceSession::append(TraceEvent event)
{
    // Spans recorded under an active trace context inherit its
    // attribution, so existing OBS_SPAN sites tag for free.
    if (t_context.active())
        event.trace_id = t_context.trace_id;
    ThreadBuffer& buffer = buffer_for_this_thread();
    event.tid = buffer.tid;
    MutexLock lock(buffer.mutex);
    buffer.events.push_back(std::move(event));
}

std::vector<TraceEvent>
TraceSession::merged() const
{
    std::vector<TraceEvent> events;
    {
        MutexLock lock(mutex_);
        for (const auto& buffer : buffers_) {
            MutexLock buffer_lock(buffer->mutex);
            events.insert(events.end(), buffer->events.begin(),
                          buffer->events.end());
        }
    }
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.start_us != b.start_us)
                      return a.start_us < b.start_us;
                  return a.depth < b.depth;
              });
    return events;
}

namespace {

/// One event as a Chrome "X" (complete) JSON object. Chrome's `ts` and
/// `dur` are microseconds, written with three decimals.
std::string
chrome_event(const TraceEvent& event)
{
    const auto microseconds = [](double value) {
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), "%.3f", value);
        return std::string(buffer);
    };
    // Span names are code-controlled plus campaign labels; the escaping
    // writer keeps a label from tearing the file.
    std::string out = "{";
    json_append_field(out, "name", event.name);
    json_append_field(out, "cat", "chrysalis");
    json_append_field(out, "ph", "X");
    json_append_uint64(out, "pid", 0);
    json_append_uint64(out, "tid", event.tid);
    json_append_raw_field(out, "ts", microseconds(event.start_us));
    json_append_raw_field(out, "dur", microseconds(event.duration_us));
    json_append_key(out, "args");
    out += '{';
    json_append_uint64(out, "depth", event.depth);
    // Request-trace attribution only when set, so untraced runs keep
    // the plain byte layout.
    if (event.trace_id != 0) {
        std::string trace_id;
        append_hex_u64(trace_id, event.trace_id);
        json_append_field(out, "trace_id", trace_id);
    }
    out += "}}";
    return out;
}

}  // namespace

void
TraceSession::write_chrome_trace(std::ostream& out) const
{
    const std::vector<TraceEvent> events = merged();
    std::string head = "{";
    json_append_field(head, "displayTimeUnit", "ms");
    json_append_key(head, "traceEvents");
    out << head << '[';
    for (std::size_t i = 0; i < events.size(); ++i)
        out << (i == 0 ? "" : ",") << chrome_event(events[i]);
    out << "]}\n";
}

void
TraceSession::write_chrome_trace_file(const std::string& path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        fatal("TraceSession: cannot open '", path, "' for writing");
    write_chrome_trace(out);
    out.flush();
    if (!out)
        fatal("TraceSession: failed writing Chrome trace to '", path, "'");
}

TraceSession*
trace()
{
    return g_trace.load(std::memory_order_acquire);
}

void
attach_trace(TraceSession* session)
{
    g_trace.store(session, std::memory_order_release);
}

ScopedSpan::ScopedSpan(std::string_view name)
{
    TraceSession* session = trace();
    if (session == nullptr)
        return;  // inert: no clock read, no state
    session_ = session;
    session_id_ = session->id();
    name_ = name;
    depth_ = t_depth++;
    start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan()
{
    if (session_ == nullptr)
        return;
    const auto end = std::chrono::steady_clock::now();
    --t_depth;
    // Only record into a session that is still attached: a session that
    // detached mid-span may already be flushing (or gone).
    TraceSession* current = trace();
    if (current == session_ && current->id() == session_id_)
        session_->record(name_, start_, end, depth_);
}

SpanTimer::SpanTimer(std::string name) : name_(std::move(name))
{
    if (trace() != nullptr) {
        tracing_ = true;
        depth_ = t_depth++;
    }
    start_ = std::chrono::steady_clock::now();
}

SpanTimer::~SpanTimer()
{
    if (!tracing_)
        return;
    const auto end = std::chrono::steady_clock::now();
    --t_depth;
    TraceSession* current = trace();
    if (current != nullptr)
        current->record(name_, start_, end, depth_);
}

double
SpanTimer::elapsed_s() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
}

double
monotonic_seconds()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         monotonic_epoch())
        .count();
}

}  // namespace chrysalis::obs
