/// \file
/// Lightweight logging and error-reporting utilities.
///
/// Follows the gem5 convention: `fatal()` terminates on *user* error (bad
/// configuration, impossible constraint), `panic()` terminates on an
/// *internal* invariant violation (a CHRYSALIS bug), and `warn()`/`inform()`
/// emit non-terminating diagnostics.

#ifndef CHRYSALIS_COMMON_LOGGING_HPP
#define CHRYSALIS_COMMON_LOGGING_HPP

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace chrysalis {

/// Exception thrown by fatal() while a FatalThrowGuard is active on the
/// calling thread; carries the formatted fatal message.
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string& message)
        : std::runtime_error(message)
    {}
};

/// RAII guard converting fatal() on the *current thread* from a status-1
/// exit into a thrown FatalError for the guard's lifetime. Lets a supervisor
/// (e.g. core::run_campaign) isolate a misbehaving case instead of
/// taking the whole process down. Guards nest; panic() still aborts.
class FatalThrowGuard
{
  public:
    FatalThrowGuard();
    ~FatalThrowGuard();
    FatalThrowGuard(const FatalThrowGuard&) = delete;
    FatalThrowGuard& operator=(const FatalThrowGuard&) = delete;

    /// True when fatal() on this thread would throw instead of exit.
    static bool active();
};

/// Severity of a log record, ordered from chattiest to most severe.
enum class LogLevel {
    kDebug = 0,
    kInform = 1,
    kWarn = 2,
    kError = 3,
    kSilent = 4,
};

/// Returns the process-wide minimum level that will actually be printed.
/// On the first call the threshold is initialized from the
/// `CHRYSALIS_LOG_LEVEL` environment variable (see parse_log_level);
/// unset or unparsable values leave the kWarn default.
LogLevel log_level();

/// Sets the process-wide minimum level that will be printed.
void set_log_level(LogLevel level);

/// Parses a level name: "debug", "info"/"inform", "warn"/"warning",
/// "error", "silent"/"none"/"off" (case-insensitive). Returns true and
/// writes \p out on success; false (leaving \p out untouched) otherwise.
bool parse_log_level(std::string_view name, LogLevel& out);

/// A replaceable log destination. Receives fully formatted records (one
/// per call); the sink is invoked under the logging mutex, so it never
/// sees interleaved or torn records even when worker threads log
/// concurrently, and it need not be thread-safe itself.
using LogSink = std::function<void(LogLevel, std::string_view)>;

/// Replaces the process-wide sink; an empty function restores the
/// default stderr sink. Intended for tests and embedders.
void set_log_sink(LogSink sink);

/// Emits a log record to the current sink if \p level passes the global
/// threshold. Thread-safe: records from concurrent threads are emitted
/// whole, never interleaved.
void log_message(LogLevel level, std::string_view message);

/// Thread-safe strerror: the text for \p errnum (from <cerrno>) in a
/// freshly owned string. std::strerror returns a shared static buffer
/// and is unusable from the concurrent subsystems (clang-tidy
/// concurrency-mt-unsafe); every errno formatting site routes through
/// here instead.
std::string errno_text(int errnum);

namespace detail {

/// Builds a single string out of a variadic argument pack via operator<<.
template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

/// Flushes every stdio stream and ends the process with status 1,
/// running no atexit hook or static destructor — or throws FatalError
/// when a FatalThrowGuard is active on the calling thread; used by
/// fatal().
[[noreturn]] void fatal_exit(const std::string& message);

/// Terminates the process with abort(); used by panic().
[[noreturn]] void panic_abort(const std::string& message);

}  // namespace detail

/// Reports an unrecoverable *user* error (bad input/configuration) and exits.
template <typename... Args>
[[noreturn]] void
fatal(Args&&... args)
{
    detail::fatal_exit(detail::concat(std::forward<Args>(args)...));
}

/// Reports an internal invariant violation (a bug in CHRYSALIS) and aborts.
template <typename... Args>
[[noreturn]] void
panic(Args&&... args)
{
    detail::panic_abort(detail::concat(std::forward<Args>(args)...));
}

/// Emits a non-fatal warning: something may be modelled imprecisely.
template <typename... Args>
void
warn(Args&&... args)
{
    log_message(LogLevel::kWarn, detail::concat(std::forward<Args>(args)...));
}

/// Emits a status message with no connotation of incorrect behaviour.
template <typename... Args>
void
inform(Args&&... args)
{
    log_message(LogLevel::kInform, detail::concat(std::forward<Args>(args)...));
}

/// Emits a verbose diagnostic, suppressed unless the level is kDebug.
template <typename... Args>
void
debug(Args&&... args)
{
    log_message(LogLevel::kDebug, detail::concat(std::forward<Args>(args)...));
}

}  // namespace chrysalis

#endif  // CHRYSALIS_COMMON_LOGGING_HPP
