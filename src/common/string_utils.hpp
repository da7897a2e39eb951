/// \file
/// String formatting helpers used by benchmark harnesses and reports:
/// engineering-notation formatting of physical quantities, basic
/// split/trim utilities and the command-line flag parsers every front
/// end shares.

#ifndef CHRYSALIS_COMMON_STRING_UTILS_HPP
#define CHRYSALIS_COMMON_STRING_UTILS_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace chrysalis {

/// Formats \p value with a fixed number of significant decimals,
/// e.g. format_fixed(3.14159, 2) -> "3.14".
std::string format_fixed(double value, int decimals);

/// Formats a quantity with an SI prefix and unit suffix, choosing the
/// prefix so the mantissa lies in [1, 1000) where possible,
/// e.g. format_si(3.2e-3, "J") -> "3.200 mJ".
std::string format_si(double value, std::string_view unit, int decimals = 3);

/// Formats a fraction as a percentage, e.g. format_percent(0.564) -> "56.4%".
std::string format_percent(double fraction, int decimals = 1);

/// Serializes \p value with "%.17g" (max_digits10) precision so the
/// text round-trips to the bit-identical double. Every journal/report
/// writer (campaign journal, metrics JSON, campaign CSV, bench
/// headlines) must route doubles through this helper — the property
/// behind byte-identical resumed campaigns and thread-count-invariant
/// reports. Enforced by the chrysalis-float-format lint rule.
std::string format_double_17g(double value);

/// Splits \p text on \p delimiter; consecutive delimiters yield empty fields.
std::vector<std::string> split(std::string_view text, char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string trim(std::string_view text);

/// Left-pads or truncates \p text to exactly \p width characters.
std::string pad_right(std::string_view text, std::size_t width);

/// Right-aligns \p text within \p width characters (no truncation).
std::string pad_left(std::string_view text, std::size_t width);

/// Returns lower-cased copy of \p text (ASCII only).
std::string to_lower(std::string_view text);

/// Splits a `--key=value` argument into its key and \p inline_value;
/// any other argument comes back whole with \p has_inline false.
std::string split_flag(const std::string& arg, std::string& inline_value,
                       bool& has_inline);

/// Parse \p value, the value given for command-line flag \p flag, in
/// full. Each fatal()s, naming the flag, on an empty value, trailing
/// characters or a value outside the target type's range.
int parse_int_flag(const std::string& flag, const std::string& value);
/// Unsigned form (seeds, sizes): also rejects a leading sign or space,
/// so "-1" is an error rather than 2^64 - 1.
std::uint64_t parse_uint64_flag(const std::string& flag,
                                const std::string& value);
double parse_double_flag(const std::string& flag, const std::string& value);

}  // namespace chrysalis

#endif  // CHRYSALIS_COMMON_STRING_UTILS_HPP
