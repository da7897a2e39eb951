#include "common/logging.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>
#include <utility>

#include "common/mutex.hpp"

namespace chrysalis {

namespace {

/// Threshold from CHRYSALIS_LOG_LEVEL, or kWarn when the variable is
/// unset or unparsable (an unparsable value earns a one-off warning to
/// stderr — the logging threshold is not trustworthy at that point).
LogLevel
initial_log_level()
{
    // Read once, during the static initialization of g_log_level,
    // before threads exist.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("CHRYSALIS_LOG_LEVEL");
    if (env == nullptr || *env == '\0')
        return LogLevel::kWarn;
    LogLevel level = LogLevel::kWarn;
    if (!parse_log_level(env, level)) {
        std::fprintf(stderr,
                     "[chrysalis:warn] CHRYSALIS_LOG_LEVEL='%s' is not a "
                     "log level (debug|info|warn|error|silent); using "
                     "'warn'\n",
                     env);
    }
    return level;
}

std::atomic<LogLevel> g_log_level{initial_log_level()};

/// Serializes sink writes so records from parallel evaluations are
/// emitted whole (never interleaved half-lines). Also guards g_log_sink.
Mutex g_sink_mutex;
LogSink g_log_sink CHRYSALIS_GUARDED_BY(g_sink_mutex);
// empty sink => default stderr sink

const char*
level_tag(LogLevel level)
{
    switch (level) {
      case LogLevel::kDebug: return "debug";
      case LogLevel::kInform: return "info";
      case LogLevel::kWarn: return "warn";
      case LogLevel::kError: return "error";
      case LogLevel::kSilent: return "silent";
    }
    return "?";
}

/// Depth of nested FatalThrowGuards on this thread; > 0 => fatal throws.
thread_local int g_fatal_throw_depth = 0;

}  // namespace

FatalThrowGuard::FatalThrowGuard()
{
    ++g_fatal_throw_depth;
}

FatalThrowGuard::~FatalThrowGuard()
{
    --g_fatal_throw_depth;
}

bool
FatalThrowGuard::active()
{
    return g_fatal_throw_depth > 0;
}

LogLevel
log_level()
{
    return g_log_level.load(std::memory_order_relaxed);
}

void
set_log_level(LogLevel level)
{
    g_log_level.store(level, std::memory_order_relaxed);
}

bool
parse_log_level(std::string_view name, LogLevel& out)
{
    std::string lowered(name);
    for (char& c : lowered)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (lowered == "debug")
        out = LogLevel::kDebug;
    else if (lowered == "info" || lowered == "inform")
        out = LogLevel::kInform;
    else if (lowered == "warn" || lowered == "warning")
        out = LogLevel::kWarn;
    else if (lowered == "error")
        out = LogLevel::kError;
    else if (lowered == "silent" || lowered == "none" || lowered == "off")
        out = LogLevel::kSilent;
    else
        return false;
    return true;
}

void
set_log_sink(LogSink sink)
{
    MutexLock lock(g_sink_mutex);
    g_log_sink = std::move(sink);
}

void
log_message(LogLevel level, std::string_view message)
{
    if (static_cast<int>(level) < static_cast<int>(log_level()))
        return;
    MutexLock lock(g_sink_mutex);
    if (g_log_sink) {
        g_log_sink(level, message);
        return;
    }
    std::fprintf(stderr, "[chrysalis:%s] %.*s\n", level_tag(level),
                 static_cast<int>(message.size()), message.data());
}

std::string
errno_text(int errnum)
{
    // std::generic_category carries the portable errno table and,
    // unlike std::strerror, owns its storage per call.
    return std::error_code(errnum, std::generic_category()).message();
}

namespace detail {

void
fatal_exit(const std::string& message)
{
    if (FatalThrowGuard::active())
        throw FatalError(message);
    // Deliberately no mutex: fatal/panic must make it out even if the
    // crashing thread already holds the logging lock. Flush every
    // stream so buffered output (reports, partial CSV rows) is not
    // lost — and is ordered before the fatal line — when stderr is
    // redirected to a file. Then end at once: exit() would run the
    // atexit hooks (a bench's report writer would replace a good report
    // with an empty one) and the static destructors, while other threads
    // may still use those objects.
    std::fflush(stdout);
    std::fprintf(stderr, "[chrysalis:fatal] %s\n", message.c_str());
    std::fflush(nullptr);
    std::_Exit(1);
}

void
panic_abort(const std::string& message)
{
    std::fflush(stdout);
    std::fprintf(stderr, "[chrysalis:panic] %s\n", message.c_str());
    std::fflush(stderr);
    std::abort();
}

}  // namespace detail

}  // namespace chrysalis
