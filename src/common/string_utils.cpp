#include "common/string_utils.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hpp"

namespace chrysalis {

std::string
format_fixed(double value, int decimals)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
    return buffer;
}

std::string
format_double_17g(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string
format_si(double value, std::string_view unit, int decimals)
{
    struct Prefix { double scale; const char* symbol; };
    static constexpr Prefix kPrefixes[] = {
        {1e9, "G"}, {1e6, "M"}, {1e3, "k"}, {1.0, ""},
        {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"},
    };
    const double magnitude = std::fabs(value);
    if (magnitude == 0.0)
        return format_fixed(0.0, decimals) + " " + std::string(unit);
    for (const auto& prefix : kPrefixes) {
        if (magnitude >= prefix.scale) {
            return format_fixed(value / prefix.scale, decimals) + " " +
                   prefix.symbol + std::string(unit);
        }
    }
    const auto& smallest = kPrefixes[std::size(kPrefixes) - 1];
    return format_fixed(value / smallest.scale, decimals) + " " +
           smallest.symbol + std::string(unit);
}

std::string
format_percent(double fraction, int decimals)
{
    return format_fixed(fraction * 100.0, decimals) + "%";
}

std::vector<std::string>
split(std::string_view text, char delimiter)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(delimiter, start);
        if (pos == std::string_view::npos) {
            fields.emplace_back(text.substr(start));
            break;
        }
        fields.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
    return fields;
}

std::string
trim(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return std::string(text.substr(begin, end - begin));
}

std::string
pad_right(std::string_view text, std::size_t width)
{
    std::string out(text.substr(0, width));
    out.resize(width, ' ');
    return out;
}

std::string
pad_left(std::string_view text, std::size_t width)
{
    if (text.size() >= width)
        return std::string(text);
    std::string out(width - text.size(), ' ');
    out += text;
    return out;
}

std::string
to_lower(std::string_view text)
{
    std::string out(text);
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

std::string
split_flag(const std::string& arg, std::string& inline_value,
           bool& has_inline)
{
    has_inline = false;
    if (arg.rfind("--", 0) != 0)
        return arg;
    const auto eq = arg.find('=');
    if (eq == std::string::npos)
        return arg;
    inline_value = arg.substr(eq + 1);
    has_inline = true;
    return arg.substr(0, eq);
}

int
parse_int_flag(const std::string& flag, const std::string& value)
{
    errno = 0;
    char* end = nullptr;
    const long parsed = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || errno != 0 ||
        parsed < INT_MIN || parsed > INT_MAX)
        fatal("invalid integer for ", flag, ": \"", value, "\"");
    return static_cast<int>(parsed);
}

std::uint64_t
parse_uint64_flag(const std::string& flag, const std::string& value)
{
    // strtoull accepts a sign (and wraps "-1" to 2^64 - 1) and leading
    // space; a size or a seed must start with a digit.
    static_assert(ULLONG_MAX == UINT64_MAX);
    const bool starts_with_digit =
        !value.empty() && std::isdigit(static_cast<unsigned char>(value[0]));
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (!starts_with_digit || *end != '\0' || errno != 0)
        fatal("invalid unsigned integer for ", flag, ": \"", value, "\"");
    return parsed;
}

double
parse_double_flag(const std::string& flag, const std::string& value)
{
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || errno != 0)
        fatal("invalid number for ", flag, ": \"", value, "\"");
    return parsed;
}

}  // namespace chrysalis
