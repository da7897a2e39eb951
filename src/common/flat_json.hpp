/// \file
/// Flat-JSON encode/decode helpers shared by the line-oriented wire
/// formats in this repo: the campaign resume journal (JSONL) and the
/// `chrysalis-serve-v1` network protocol.
///
/// "Flat" means one level of `{"key":value,...}` with string or
/// bare-number values — no nested objects or arrays. That restriction
/// keeps the scanner a few dozen lines, dependency-free, and robust
/// against torn input (a killed writer, a truncated network frame):
/// any structural problem makes the scan return false instead of
/// guessing. Writers emit doubles through format_double_17g() so values
/// round-trip bit-exactly (the property behind byte-identical resumed
/// campaigns and thread-count-invariant server replies).

#ifndef CHRYSALIS_COMMON_FLAT_JSON_HPP
#define CHRYSALIS_COMMON_FLAT_JSON_HPP

#include <cstdint>
#include <map>
#include <string>

namespace chrysalis {

/// Parsed fields of one flat JSON object, in key-sorted order (an
/// ordered map so iterating — e.g. to hash a request — is
/// deterministic). String values are unescaped; numeric/bare values
/// keep their literal spelling.
using FlatJsonFields = std::map<std::string, std::string>;

/// Appends \p text as a quoted JSON string (escaping quotes,
/// backslashes and control characters) to \p out.
void json_append_escaped(std::string& out, const std::string& text);

/// Appends `"name":"value"` (string value, escaped) to an object or a
/// bare field list under construction; inserts the separating comma
/// unless \p out is empty or ends in '{'.
void json_append_field(std::string& out, const char* name,
                       const std::string& value);

/// Appends `"name":value` with \p value emitted verbatim (numbers,
/// booleans-as-0/1 — anything already JSON-formatted); same comma rule
/// as json_append_field().
void json_append_raw_field(std::string& out, const char* name,
                           const std::string& value);

/// Scans one flat JSON object into \p fields. Returns false on any
/// structural problem — torn line, unterminated string, trailing
/// garbage inside the object, a `\u` escape without four hex digits or
/// with a lone surrogate — leaving \p fields in an unspecified state.
/// A `\u` escape decodes to its code point in UTF-8, a surrogate pair
/// to one 4-byte sequence. Duplicate keys keep the first occurrence.
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
