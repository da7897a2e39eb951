/// \file
/// The program's one JSON writer, and the flat-JSON scanner. Every
/// document is built with the appenders below: the campaign resume
/// journal (JSONL), the `chrysalis-serve-v1` network protocol, the
/// metrics report, the Chrome trace and the bench report. Doubles go
/// through format_double_17g() so values round-trip bit-exactly (the
/// property behind byte-identical resumed campaigns and
/// thread-count-invariant server replies).
///
/// The scanner reads "flat" JSON: one level of `{"key":value,...}` with
/// string or bare-number values — no nested objects or arrays. That
/// restriction keeps it a few dozen lines, dependency-free, and robust
/// against torn input (a killed writer, a truncated network frame): any
/// structural problem makes the scan return false instead of guessing.

#ifndef CHRYSALIS_COMMON_FLAT_JSON_HPP
#define CHRYSALIS_COMMON_FLAT_JSON_HPP

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace chrysalis {

/// Parsed fields of one flat JSON object, in key-sorted order (an
/// ordered map so iterating — e.g. to hash a request — is
/// deterministic). String values are unescaped; numeric/bare values
/// keep their literal spelling.
using FlatJsonFields = std::map<std::string, std::string>;

/// Appends \p text as a quoted JSON string to \p out, escaping quotes,
/// backslashes and control characters; runs of clean bytes are copied
/// in one append.
void json_append_escaped(std::string& out, std::string_view text);

/// Appends `"name":` with \p name escaped like a value, after the
/// writer's one comma rule: a separating comma unless \p out is empty
/// (a serve reply body is a bare field list) or ends in '{' or '['.
void json_append_key(std::string& out, std::string_view name);

/// Each appends one `"name":value` field after json_append_key(): a
/// string (escaped), a double (format_double_17g()), a signed or an
/// unsigned integer, a flag (1 or 0), or a value that is already
/// encoded (a nested document, a fixed-point number), verbatim.
void json_append_field(std::string& out, std::string_view name,
                       std::string_view value);
void json_append_double(std::string& out, std::string_view name,
                        double value);
void json_append_int64(std::string& out, std::string_view name,
                       std::int64_t value);
void json_append_uint64(std::string& out, std::string_view name,
                        std::uint64_t value);
void json_append_flag(std::string& out, std::string_view name, bool value);
void json_append_raw_field(std::string& out, std::string_view name,
                           std::string_view value);

/// Scans one flat JSON object into \p fields. Returns false on any
/// structural problem — torn line, unterminated string, trailing
/// garbage inside the object, a `\u` escape without four hex digits or
/// with a lone surrogate — leaving \p fields in an unspecified state.
/// Every RFC 8259 escape decodes: `\"`, `\\`, `\/`, `\b`, `\f`, `\n`,
/// `\r` and `\t` to their one byte, a `\u` escape to its code point in
/// UTF-8 and a surrogate pair to one 4-byte sequence; any other escape
/// is rejected. Duplicate keys keep the first occurrence.
bool scan_flat_json(const std::string& line, FlatJsonFields& fields);

/// Field accessors: each returns true and writes \p out only when the
/// key is present and (for the numeric forms) parses cleanly in full.
bool json_get_string(const FlatJsonFields& fields, const char* name,
                     std::string& out);
bool json_get_double(const FlatJsonFields& fields, const char* name,
                     double& out);
bool json_get_int64(const FlatJsonFields& fields, const char* name,
                    std::int64_t& out);
bool json_get_uint64(const FlatJsonFields& fields, const char* name,
                     std::uint64_t& out);
bool json_get_int(const FlatJsonFields& fields, const char* name, int& out);

}  // namespace chrysalis

#endif  // CHRYSALIS_COMMON_FLAT_JSON_HPP
