#include "lint_core.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace chrysalis::lint {

namespace {

// ---- Rule registry -------------------------------------------------------

constexpr const char* kRuleRand = "chrysalis-rand";
constexpr const char* kRuleClock = "chrysalis-clock";
constexpr const char* kRuleGetenv = "chrysalis-getenv";
constexpr const char* kRuleUnorderedIter = "chrysalis-unordered-iter";
constexpr const char* kRuleFloatFormat = "chrysalis-float-format";
constexpr const char* kRuleUnitSuffix = "chrysalis-unit-suffix";
constexpr const char* kRuleHeaderGuard = "chrysalis-header-guard";
constexpr const char* kRuleInclude = "chrysalis-include";
constexpr const char* kRuleRawLock = "chrysalis-raw-lock";
constexpr const char* kRuleNolint = "chrysalis-nolint";

// Reported by the --graph pass (lint_graph.cpp); registered here so
// --list-rules shows them and NOLINT/baseline validation accepts them.
constexpr const char* kRuleLayering = "chrysalis-layering";
constexpr const char* kRuleCycle = "chrysalis-include-cycle";
constexpr const char* kRuleOrphan = "chrysalis-orphan-header";

/// Files allowed to call getenv(): the two designated env-knob modules
/// (log level, bench report toggles). Everything else must thread
/// configuration through options structs so runs are reproducible from
/// their inputs alone.
constexpr const char* kGetenvAllowlist[] = {
    "src/common/logging.cpp",
    "bench/common/bench_util.cpp",
};

/// Monotonic clocks are an observability concern; only src/obs/ may
/// touch them directly so timing can never leak into deterministic
/// outputs unnoticed.
constexpr const char* kClockAllowedPrefix = "src/obs/";

/// Report/journal paths where raw printf float conversions are banned
/// in favour of format_double_17g() (prefix match, extension-agnostic).
constexpr const char* kReportPathPrefixes[] = {
    "src/core/campaign",      // campaign.cpp/hpp + campaign_journal.*
    "src/obs/metrics",
    "src/common/table",
    "src/common/flat_json",   // the JSON writer every document uses
    "src/serve/handlers",
    "bench/common/bench_util",
};

/// Home of the sanctioned formatting helpers; exempt from the
/// float-format rule so the helpers themselves can exist.
constexpr const char* kFormatHelperPrefix = "src/common/string_utils";

/// The annotated RAII wrappers (chrysalis::Mutex / MutexLock / CondVar)
/// are the one place allowed to call the raw lock primitives; every
/// other module must hold locks through scoped guards.
constexpr const char* kRawLockExemptPrefix = "src/common/mutex";

/// Non-SI unit suffixes on double/float declarations. The project
/// stores physical quantities in SI base units (common/units.hpp);
/// a `_ms` or `_uf` name means a convention violation waiting to
/// corrupt an energy budget by 10^3.
constexpr const char* kBannedUnitSuffixes[] = {
    "ms", "us", "ns", "uj", "mj", "kj", "mv", "kv", "uf", "mf", "nf",
    "pf", "mw", "kw", "uw", "khz", "mhz", "ghz", "ma", "ua", "mah",
    "wh", "hr", "min",
};

struct BannedHeader {
    const char* name;
    const char* message;
};

/// OS networking / raw-fd headers are the serving layer's concern;
/// confining them to src/serve/ keeps every evaluator, search and
/// simulator translation unit byte-reproducible and trivially portable
/// (no accidental socket, poll or fd dependencies in core code).
constexpr const char* kNetworkAllowedPrefix = "src/serve/";

constexpr const char* kNetworkHeaders[] = {
    "sys/socket.h", "netinet/in.h", "netinet/tcp.h", "arpa/inet.h",
    "unistd.h",     "poll.h",       "fcntl.h",       "sys/time.h",
};

constexpr BannedHeader kBannedHeaders[] = {
    {"stdio.h", "include <cstdio> instead of the C header"},
    {"stdlib.h", "include <cstdlib> instead of the C header"},
    {"string.h", "include <cstring> instead of the C header"},
    {"math.h", "include <cmath> instead of the C header"},
    {"assert.h", "include <cassert> instead of the C header"},
    {"limits.h", "include <climits> instead of the C header"},
    {"stdint.h", "include <cstdint> instead of the C header"},
    {"stddef.h", "include <cstddef> instead of the C header"},
    {"errno.h", "include <cerrno> instead of the C header"},
};

// ---- Tokenized view of one file ------------------------------------------

/// Per-file scan state: the raw lines, a "code view" with comments and
/// literal contents blanked (so rules cannot fire inside strings), the
/// comment text per line (for NOLINT parsing) and the extracted string
/// literals (for the float-format rule).
struct FileView {
    std::string path;                    ///< repo-relative
    std::vector<std::string> raw;
    std::vector<std::string> code;
    std::vector<std::string> comment;
    struct Literal {
        int line;
        std::string text;
    };
    std::vector<Literal> literals;

    bool is_header() const
    {
        return ends_with(path, ".hpp") || ends_with(path, ".h");
    }

    static bool ends_with(const std::string& text, const std::string& tail)
    {
        return text.size() >= tail.size() &&
               text.compare(text.size() - tail.size(), tail.size(), tail)
                   == 0;
    }
};

bool
starts_with(const std::string& text, const std::string& head)
{
    return text.rfind(head, 0) == 0;
}

std::string
trim_copy(const std::string& text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

/// Splits \p content into the code/comment/literal views. Handles //,
/// /*...*/, "..." and '...' with escapes, R"delim(...)delim" raw
/// strings, and C++14 digit separators (1'000 is not a char literal).
FileView
tokenize(const std::string& rel_path, const std::string& content)
{
    FileView view;
    view.path = rel_path;

    enum class State {
        kCode,
        kLineComment,
        kBlockComment,
        kString,
        kChar,
        kRawString
    };
    State state = State::kCode;

    std::string code_line;
    std::string comment_line;
    std::string raw_line;
    std::string literal;
    std::string raw_delimiter;  // for R"delim( ... )delim"
    int literal_line = 1;
    int line = 1;
    char prev_code = '\0';

    const auto flush_line = [&] {
        view.raw.push_back(raw_line);
        view.code.push_back(code_line);
        view.comment.push_back(comment_line);
        raw_line.clear();
        code_line.clear();
        comment_line.clear();
        ++line;
    };

    for (std::size_t i = 0; i < content.size(); ++i) {
        const char c = content[i];
        const char next = i + 1 < content.size() ? content[i + 1] : '\0';
        if (c != '\n')
            raw_line += c;

        switch (state) {
          case State::kCode:
            if (c == '/' && next == '/') {
                state = State::kLineComment;
                ++i;
                raw_line += next;
            } else if (c == '/' && next == '*') {
                state = State::kBlockComment;
                ++i;
                raw_line += next;
            } else if (c == '"') {
                // R"( opens a raw string when the R directly abuts the
                // quote (also covers u8R etc. since the R is adjacent).
                if (prev_code == 'R') {
                    state = State::kRawString;
                    raw_delimiter.clear();
                    std::size_t j = i + 1;
                    while (j < content.size() && content[j] != '(')
                        raw_delimiter += content[j++];
                } else {
                    state = State::kString;
                }
                literal.clear();
                literal_line = line;
                code_line += '"';
                prev_code = '"';
            } else if (c == '\'' &&
                       !(std::isalnum(
                             static_cast<unsigned char>(prev_code)) ||
                         prev_code == '_')) {
                state = State::kChar;
                code_line += '\'';
                prev_code = '\'';
            } else if (c == '\n') {
                flush_line();
                prev_code = '\0';
            } else {
                code_line += c;
                if (!std::isspace(static_cast<unsigned char>(c)))
                    prev_code = c;
            }
            break;

          case State::kLineComment:
            if (c == '\n') {
                state = State::kCode;
                flush_line();
                prev_code = '\0';
            } else {
                comment_line += c;
            }
            break;

          case State::kBlockComment:
            if (c == '*' && next == '/') {
                state = State::kCode;
                ++i;
                raw_line += next;
            } else if (c == '\n') {
                flush_line();
            } else {
                comment_line += c;
            }
            break;

          case State::kString:
            if (c == '\\' && next != '\0') {
                literal += c;
                literal += next;
                if (next != '\n')
                    raw_line += next;
                else
                    flush_line();
                ++i;
            } else if (c == '"') {
                state = State::kCode;
                code_line += '"';
                view.literals.push_back({literal_line, literal});
                prev_code = '\0';  // '"' would retrigger raw-string check
            } else if (c == '\n') {
                flush_line();  // unterminated; tolerate and resync
                state = State::kCode;
            } else {
                literal += c;
            }
            break;

          case State::kChar:
            if (c == '\\' && next != '\0') {
                raw_line += next;
                ++i;
            } else if (c == '\'') {
                state = State::kCode;
                code_line += '\'';
            } else if (c == '\n') {
                flush_line();
                state = State::kCode;
            }
            break;

          case State::kRawString: {
            const std::string close = ")" + raw_delimiter + "\"";
            if (content.compare(i, close.size(), close) == 0) {
                for (std::size_t j = 1; j < close.size(); ++j)
                    raw_line += close[j];
                i += close.size() - 1;
                state = State::kCode;
                code_line += '"';
                view.literals.push_back({literal_line, literal});
                prev_code = '\0';
            } else if (c == '\n') {
                literal += c;
                flush_line();
            } else {
                literal += c;
            }
            break;
          }
        }
    }
    if (!raw_line.empty() || !code_line.empty() || !comment_line.empty())
        flush_line();
    return view;
}

// ---- NOLINT parsing ------------------------------------------------------

/// Suppressions parsed from comments: rule id -> lines it covers.
struct Suppressions {
    std::map<int, std::set<std::string>> by_line;
    std::vector<Violation> malformed;

    bool covers(const std::string& rule, int line) const
    {
        const auto it = by_line.find(line);
        return it != by_line.end() && it->second.count(rule) > 0;
    }
};

bool
is_known_rule(const std::string& id)
{
    for (const RuleInfo& info : rules()) {
        if (info.id == id)
            return true;
    }
    return false;
}

void
add_malformed(Suppressions& out, const FileView& view, int line,
              const std::string& message)
{
    out.malformed.push_back({view.path, line, kRuleNolint, message,
                             trim_copy(view.raw[line - 1])});
}

/// Accepts NOLINT and NOLINTNEXTLINE directives: the word, a
/// parenthesised comma-separated rule list, then a ':' and a free-text
/// justification. An empty rule list, an unknown chrysalis- rule id,
/// or a missing justification is itself a violation: suppressions are
/// part of the audit trail and must say what they waive and why. A
/// bare NOLINT word without parentheses is prose, not a directive — it
/// suppresses nothing and is ignored. Directives naming only foreign
/// rules (no "chrysalis-" prefix, e.g. clang-tidy's
/// NOLINT(concurrency-mt-unsafe)) belong to another tool and pass
/// through untouched.
Suppressions
parse_suppressions(const FileView& view)
{
    Suppressions out;
    static const std::regex pattern(
        R"(NOLINT(NEXTLINE)?\(([^)]*)\)\s*(:\s*(.*))?)");
    for (std::size_t i = 0; i < view.comment.size(); ++i) {
        const std::string& comment = view.comment[i];
        if (comment.find("NOLINT") == std::string::npos)
            continue;
        const int line = static_cast<int>(i) + 1;
        std::smatch match;
        if (!std::regex_search(comment, match, pattern))
            continue;
        if (trim_copy(match[2].str()).empty()) {
            add_malformed(out, view, line,
                          "NOLINT requires an explicit rule list: "
                          "NOLINT(chrysalis-<rule>): <justification>");
            continue;
        }
        std::stringstream list(match[2].str());
        std::string rule;
        std::vector<std::string> ours;
        bool any_chrysalis = false;
        while (std::getline(list, rule, ',')) {
            rule = trim_copy(rule);
            if (rule.rfind("chrysalis-", 0) == 0) {
                any_chrysalis = true;
                ours.push_back(rule);
            }
        }
        if (!any_chrysalis)
            continue;  // clang-tidy (or other tool) directive
        if (!match[3].matched || trim_copy(match[4].str()).empty()) {
            add_malformed(out, view, line,
                          "NOLINT requires a justification after the "
                          "rule list: NOLINT(chrysalis-<rule>): <why>");
            continue;
        }
        bool ok = true;
        for (const std::string& id : ours) {
            if (!is_known_rule(id)) {
                add_malformed(out, view, line,
                              "unknown rule '" + id +
                                  "' in NOLINT (see --list-rules)");
                ok = false;
                break;
            }
        }
        if (!ok)
            continue;
        const int target = match[1].matched ? line + 1 : line;
        for (const std::string& id : ours)
            out.by_line[target].insert(id);
    }
    return out;
}

// ---- Rule helpers --------------------------------------------------------

void
add(std::vector<Violation>& out, const FileView& view, int line,
    const char* rule, std::string message)
{
    out.push_back({view.path, line, rule, std::move(message),
                   trim_copy(view.raw[line - 1])});
}

/// Runs \p pattern over every code line, reporting each match.
template <typename MessageFn>
void
match_lines(std::vector<Violation>& out, const FileView& view,
            const std::regex& pattern, const char* rule,
            MessageFn&& message)
{
    for (std::size_t i = 0; i < view.code.size(); ++i) {
        std::smatch match;
        if (std::regex_search(view.code[i], match, pattern))
            add(out, view, static_cast<int>(i) + 1, rule, message(match));
    }
}

// ---- Rules ---------------------------------------------------------------

void
check_rand(std::vector<Violation>& out, const FileView& view)
{
    static const std::regex pattern(
        R"(\b(srand|rand)\s*\(|\brandom_device\b|\brandom_shuffle\b)");
    match_lines(out, view, pattern, kRuleRand, [](const std::smatch& m) {
        return "nondeterministic randomness '" + trim_copy(m.str()) +
               "'; seed chrysalis::Rng explicitly (common/rng.hpp)";
    });
}

void
check_clock(std::vector<Violation>& out, const FileView& view)
{
    static const std::regex wall(R"(\bsystem_clock\b)");
    match_lines(out, view, wall, kRuleClock, [](const std::smatch&) {
        return std::string(
            "wall-clock time is nondeterministic; timestamps may not "
            "feed reports or seeds (use obs:: helpers for telemetry)");
    });
    if (starts_with(view.path, kClockAllowedPrefix))
        return;
    static const std::regex mono(
        R"(\b(steady_clock|high_resolution_clock)\b)");
    match_lines(out, view, mono, kRuleClock, [](const std::smatch& m) {
        std::string message = "'";
        message += m.str();
        message += "' outside src/obs/; measure time via obs::SpanTimer "
                   "/ obs::thread_cpu_seconds so timing stays in "
                   "telemetry";
        return message;
    });
}

void
check_getenv(std::vector<Violation>& out, const FileView& view)
{
    for (const char* allowed : kGetenvAllowlist) {
        if (view.path == allowed)
            return;
    }
    static const std::regex pattern(R"(\bgetenv\s*\()");
    match_lines(out, view, pattern, kRuleGetenv, [](const std::smatch&) {
        return std::string(
            "getenv() outside the env-knob allowlist (logging, "
            "bench_util); thread configuration through options structs");
    });
}

/// Joins the code view into one string with a line lookup table, for
/// rules whose patterns span physical lines (template argument lists).
struct JoinedCode {
    std::string text;
    std::vector<std::size_t> line_offsets;  // offset of each line start

    explicit JoinedCode(const FileView& view)
    {
        for (const std::string& line : view.code) {
            line_offsets.push_back(text.size());
            text += line;
            text += '\n';
        }
    }

    int line_of(std::size_t offset) const
    {
        const auto it = std::upper_bound(line_offsets.begin(),
                                         line_offsets.end(), offset);
        return static_cast<int>(it - line_offsets.begin());
    }
};

void
check_unordered_iteration(std::vector<Violation>& out, const FileView& view)
{
    const JoinedCode joined(view);
    const std::string& text = joined.text;

    // Pass 1: names declared with an unordered container type. The
    // declarator is the first identifier after the balanced <...>.
    std::set<std::string> unordered_names;
    static const std::regex decl(R"(\bunordered_(map|set)\s*<)");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), decl);
         it != std::sregex_iterator(); ++it) {
        std::size_t pos = static_cast<std::size_t>(it->position()) +
                          it->length() - 1;
        int depth = 0;
        while (pos < text.size()) {
            if (text[pos] == '<')
                ++depth;
            else if (text[pos] == '>' && --depth == 0)
                break;
            ++pos;
        }
        if (pos >= text.size())
            continue;
        ++pos;
        while (pos < text.size() &&
               (std::isspace(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '&' || text[pos] == '*'))
            ++pos;
        std::string name;
        while (pos < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '_'))
            name += text[pos++];
        if (!name.empty())
            unordered_names.insert(name);
    }
    if (unordered_names.empty())
        return;

    // Pass 2: range-fors and explicit iterator loops over those names.
    static const std::regex range_for(R"(\bfor\s*\([^;)]*:\s*(\w+)\s*\))");
    static const std::regex iter_for(R"(=\s*(\w+)\s*\.\s*begin\s*\(\))");
    for (const std::regex* pattern : {&range_for, &iter_for}) {
        for (auto it = std::sregex_iterator(text.begin(), text.end(),
                                            *pattern);
             it != std::sregex_iterator(); ++it) {
            const std::string name = (*it)[1].str();
            if (unordered_names.count(name) == 0)
                continue;
            const int line =
                joined.line_of(static_cast<std::size_t>(it->position()));
            add(out, view, line, kRuleUnorderedIter,
                "iteration over unordered container '" + name +
                    "' has unspecified order; sort keys (or use an "
                    "ordered container) before emitting output or "
                    "hashing");
        }
    }
}

void
check_float_format(std::vector<Violation>& out, const FileView& view)
{
    if (starts_with(view.path, kFormatHelperPrefix))
        return;
    bool report_path = false;
    for (const char* prefix : kReportPathPrefixes)
        report_path = report_path || starts_with(view.path, prefix);
    if (!report_path)
        return;
    static const std::regex conversion(
        R"(%[-+ #0]*[0-9]*(\.[0-9*]+)?l?[efgaEFGA])");
    for (const FileView::Literal& literal : view.literals) {
        if (std::regex_search(literal.text, conversion)) {
            add(out, view, literal.line, kRuleFloatFormat,
                "raw printf float conversion in journal/report code; "
                "route doubles through format_double_17g() "
                "(common/string_utils.hpp) so values round-trip "
                "bit-exactly");
        }
    }
}

void
check_unit_suffix(std::vector<Violation>& out, const FileView& view)
{
    static const std::regex decl(R"(\b(?:double|float)\b\s*&?\s*(\w+))");
    for (std::size_t i = 0; i < view.code.size(); ++i) {
        const std::string& line = view.code[i];
        for (auto it = std::sregex_iterator(line.begin(), line.end(), decl);
             it != std::sregex_iterator(); ++it) {
            const std::string name = (*it)[1].str();
            const std::size_t underscore = name.rfind('_');
            if (underscore == std::string::npos)
                continue;
            const std::string suffix = name.substr(underscore + 1);
            for (const char* banned : kBannedUnitSuffixes) {
                if (suffix == banned) {
                    add(out, view, static_cast<int>(i) + 1,
                        kRuleUnitSuffix,
                        "double '" + name + "' carries non-SI suffix '_" +
                            suffix + "'; store SI base units "
                            "(common/units.hpp) and name accordingly "
                            "(_s, _j, _w, _v, _f, _a, _hz, _c, _cm2)");
                }
            }
        }
    }
}

/// Expected include guard for \p rel_path: CHRYSALIS_ + the upper-cased
/// path with a leading src/ stripped and separators mapped to '_',
/// e.g. src/core/campaign.hpp -> CHRYSALIS_CORE_CAMPAIGN_HPP.
std::string
expected_guard(const std::string& rel_path)
{
    std::string trimmed = rel_path;
    if (starts_with(trimmed, "src/"))
        trimmed = trimmed.substr(4);
    std::string guard = "CHRYSALIS_";
    for (const char c : trimmed) {
        guard += std::isalnum(static_cast<unsigned char>(c))
                     ? static_cast<char>(
                           std::toupper(static_cast<unsigned char>(c)))
                     : '_';
    }
    return guard;
}

void
check_header_guard(std::vector<Violation>& out, const FileView& view)
{
    if (!view.is_header())
        return;
    const std::string guard = expected_guard(view.path);
    static const std::regex pragma_once(R"(^\s*#\s*pragma\s+once\b)");
    static const std::regex ifndef(R"(^\s*#\s*ifndef\s+(\w+))");
    static const std::regex define(R"(^\s*#\s*define\s+(\w+))");

    for (std::size_t i = 0; i < view.code.size(); ++i) {
        const std::string& line = view.code[i];
        if (trim_copy(line).empty())
            continue;
        std::smatch match;
        if (std::regex_search(line, match, pragma_once)) {
            add(out, view, static_cast<int>(i) + 1, kRuleHeaderGuard,
                "project headers use include guards, not #pragma once; "
                "expected guard '" + guard + "'");
            return;
        }
        if (!std::regex_search(line, match, ifndef)) {
            add(out, view, static_cast<int>(i) + 1, kRuleHeaderGuard,
                "header must open with '#ifndef " + guard +
                    "' before any code");
            return;
        }
        if (match[1].str() != guard) {
            add(out, view, static_cast<int>(i) + 1, kRuleHeaderGuard,
                "include guard '" + match[1].str() +
                    "' does not match the path-derived name '" + guard +
                    "'");
            return;
        }
        // #define must follow on the next non-blank code line.
        for (std::size_t j = i + 1; j < view.code.size(); ++j) {
            if (trim_copy(view.code[j]).empty())
                continue;
            if (!std::regex_search(view.code[j], match, define) ||
                match[1].str() != guard) {
                add(out, view, static_cast<int>(j) + 1, kRuleHeaderGuard,
                    "'#ifndef " + guard +
                        "' must be followed by '#define " + guard + "'");
            }
            return;
        }
        add(out, view, static_cast<int>(i) + 1, kRuleHeaderGuard,
            "'#ifndef " + guard + "' has no matching '#define'");
        return;
    }
    if (!view.code.empty()) {
        add(out, view, 1, kRuleHeaderGuard,
            "header is missing include guard '" + guard + "'");
    }
}

void
check_raw_lock(std::vector<Violation>& out, const FileView& view)
{
    if (starts_with(view.path, kRawLockExemptPrefix))
        return;
    // Member calls only: `m.lock()` / `m->unlock()` with no arguments.
    // `std::lock_guard` / `MutexLock` declarations never match (no
    // preceding member access), and `cv.wait(lock)` takes arguments.
    static const std::regex pattern(
        R"((\.|->)\s*(unlock|try_lock|lock)\s*\(\s*\))");
    match_lines(out, view, pattern, kRuleRawLock,
                [](const std::smatch& m) {
                    return "raw mutex ." + m[2].str() +
                           "() call; hold locks through RAII "
                           "(chrysalis::MutexLock, std::lock_guard) so "
                           "no exit path can leak the capability";
                });
}

void
check_includes(std::vector<Violation>& out, const FileView& view)
{
    static const std::regex include(
        R"(^\s*#\s*include\s*[<"]([^>"]+)[>"])");
    for (std::size_t i = 0; i < view.raw.size(); ++i) {
        std::smatch match;
        if (!std::regex_search(view.raw[i], match, include))
            continue;
        const std::string header = match[1].str();
        const int line = static_cast<int>(i) + 1;
        for (const BannedHeader& banned : kBannedHeaders) {
            if (header == banned.name) {
                add(out, view, line, kRuleInclude,
                    "banned header <" + header + ">; " + banned.message);
            }
        }
        if ((header == "time.h" || header == "ctime") &&
            !starts_with(view.path, kClockAllowedPrefix)) {
            add(out, view, line, kRuleInclude,
                "banned header <" + header +
                    "> outside src/obs/; wall-clock time may not feed "
                    "deterministic code paths");
        }
        if (header == "random" &&
            !starts_with(view.path, "src/common/rng")) {
            add(out, view, line, kRuleInclude,
                "banned header <random>; all randomness flows through "
                "the seeded chrysalis::Rng (common/rng.hpp)");
        }
        if (!starts_with(view.path, kNetworkAllowedPrefix)) {
            for (const char* network : kNetworkHeaders) {
                if (header == network) {
                    add(out, view, line, kRuleInclude,
                        "network/fd header <" + header +
                            "> outside src/serve/; sockets and raw file "
                            "descriptors live in the serving layer only");
                }
            }
        }
        if (header == "iostream" && view.is_header()) {
            add(out, view, line, kRuleInclude,
                "<iostream> in a header injects static initializers "
                "into every includer; include <iosfwd> and take streams "
                "by reference");
        }
    }
}

}  // namespace

const std::vector<RuleInfo>&
rules()
{
    static const std::vector<RuleInfo> registry = {
        {kRuleRand,
         "no rand()/srand()/std::random_device/random_shuffle; "
         "randomness must come from a seeded chrysalis::Rng"},
        {kRuleClock,
         "no system_clock anywhere; steady/high_resolution clocks only "
         "inside src/obs/"},
        {kRuleGetenv,
         "getenv() only in the designated env-knob modules (logging, "
         "bench_util)"},
        {kRuleUnorderedIter,
         "no iteration over std::unordered_{map,set} (unspecified order "
         "feeding reports or hashes); sort first"},
        {kRuleFloatFormat,
         "journal/report code must format doubles via "
         "format_double_17g(), not raw printf conversions"},
        {kRuleUnitSuffix,
         "double members/params must use SI base units; non-SI "
         "suffixes (_ms, _uf, ...) are banned"},
        {kRuleHeaderGuard,
         "headers carry path-derived CHRYSALIS_*_HPP include guards "
         "(no #pragma once)"},
        {kRuleInclude,
         "banned headers: C-compat headers, <random>, <time.h>/<ctime> "
         "outside src/obs/, network/fd headers outside src/serve/, "
         "<iostream> in headers"},
        {kRuleRawLock,
         "no raw .lock()/.unlock()/.try_lock() member calls outside "
         "common/mutex; hold locks through RAII guards"},
        {kRuleNolint,
         "NOLINT comments must name known rules and give a "
         "justification"},
        {kRuleLayering,
         "(--graph) include edges must follow the module layering "
         "spec: strictly lower layers only, nothing includes "
         "tests/bench/tools"},
        {kRuleCycle,
         "(--graph) no include cycles between files (strongly "
         "connected components of the include graph)"},
        {kRuleOrphan,
         "(--graph) every header must be reachable from some "
         "translation unit in the scanned tree"},
    };
    return registry;
}

std::vector<Violation>
scan_source(const std::string& rel_path, const std::string& content)
{
    const FileView view = tokenize(rel_path, content);
    const Suppressions suppressions = parse_suppressions(view);

    std::vector<Violation> raw;
    check_rand(raw, view);
    check_clock(raw, view);
    check_getenv(raw, view);
    check_unordered_iteration(raw, view);
    check_float_format(raw, view);
    check_unit_suffix(raw, view);
    check_header_guard(raw, view);
    check_includes(raw, view);
    check_raw_lock(raw, view);

    std::vector<Violation> kept;
    for (Violation& violation : raw) {
        if (!suppressions.covers(violation.rule, violation.line))
            kept.push_back(std::move(violation));
    }
    kept.insert(kept.end(), suppressions.malformed.begin(),
                suppressions.malformed.end());
    std::sort(kept.begin(), kept.end(),
              [](const Violation& a, const Violation& b) {
                  return std::tie(a.line, a.rule, a.message) <
                         std::tie(b.line, b.rule, b.message);
              });
    return kept;
}

std::string
baseline_key(const Violation& violation)
{
    return violation.file + "|" + violation.rule + "|" + violation.source;
}

std::vector<Violation>
apply_baseline(std::vector<Violation> violations,
               const std::vector<std::string>& baseline_keys)
{
    std::multiset<std::string> pool(baseline_keys.begin(),
                                    baseline_keys.end());
    std::vector<Violation> kept;
    for (Violation& violation : violations) {
        const auto it = pool.find(baseline_key(violation));
        if (it != pool.end())
            pool.erase(it);
        else
            kept.push_back(std::move(violation));
    }
    return kept;
}

}  // namespace chrysalis::lint
