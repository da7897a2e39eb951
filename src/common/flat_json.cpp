#include "common/flat_json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace chrysalis {

void
json_append_escaped(std::string& out, const std::string& text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

namespace {

/// Reads the four hex digits of a `\u` escape starting at \p at into
/// \p code; false unless all four are there and are hex digits.
bool
read_hex4(const std::string& line, std::size_t at, std::uint32_t& code)
{
    if (at + 4 > line.size())
        return false;
    for (std::size_t i = at; i < at + 4; ++i) {
        if (!std::isxdigit(static_cast<unsigned char>(line[i])))
            return false;
    }
    code = static_cast<std::uint32_t>(
        std::strtoul(line.substr(at, 4).c_str(), nullptr, 16));
    return true;
}

/// Appends code point \p code (at most U+10FFFF) as UTF-8.
void
append_utf8(std::string& out, std::uint32_t code)
{
    const auto byte = [&](std::uint32_t bits) {
        out += static_cast<char>(bits);
    };
    if (code < 0x80) {
        byte(code);
    } else if (code < 0x800) {
        byte(0xC0 | (code >> 6));
        byte(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
        byte(0xE0 | (code >> 12));
        byte(0x80 | ((code >> 6) & 0x3F));
        byte(0x80 | (code & 0x3F));
    } else {
        byte(0xF0 | (code >> 18));
        byte(0x80 | ((code >> 12) & 0x3F));
        byte(0x80 | ((code >> 6) & 0x3F));
        byte(0x80 | (code & 0x3F));
    }
}

/// Decodes the `\u` escape whose hex digits start at \p i, joining a
/// high surrogate with the `\u` low surrogate that must follow it, and
/// appends the code point to \p out as UTF-8; advances \p i past the
/// escape. False on a malformed escape or a lone surrogate.
bool
decode_unicode_escape(const std::string& line, std::size_t& i,
                      std::string& out)
{
    std::uint32_t code = 0;
    if (!read_hex4(line, i, code))
        return false;
    i += 4;
    if (code >= 0xDC00 && code <= 0xDFFF)
        return false;  // a low surrogate with no high one before it
    if (code >= 0xD800 && code <= 0xDBFF) {
        std::uint32_t low = 0;
        if (i + 2 > line.size() || line[i] != '\\' || line[i + 1] != 'u' ||
            !read_hex4(line, i + 2, low) || low < 0xDC00 || low > 0xDFFF)
            return false;
        i += 6;
        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    append_utf8(out, code);
    return true;
}

/// Appends `"name":`, preceded by a separating comma unless \p out is
/// empty or ends in '{'.
void
append_key(std::string& out, const char* name)
{
    if (!out.empty() && out.back() != '{')
        out += ',';
    out += '"';
    out += name;
    out += "\":";
}

}  // namespace

void
json_append_field(std::string& out, const char* name,
                  const std::string& value)
{
    append_key(out, name);
    json_append_escaped(out, value);
}

void
json_append_raw_field(std::string& out, const char* name,
                      const std::string& value)
{
    append_key(out, name);
    out += value;
}

bool
scan_flat_json(const std::string& line, FlatJsonFields& fields)
{
    std::size_t i = 0;
    const auto skip_ws = [&] {
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
    };
    const auto parse_string = [&](std::string& out) {
        if (i >= line.size() || line[i] != '"')
            return false;
        ++i;
        out.clear();
        while (i < line.size() && line[i] != '"') {
            char c = line[i++];
            if (c == '\\') {
                if (i >= line.size())
                    return false;
                const char esc = line[i++];
                switch (esc) {
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case 'n': c = '\n'; break;
                  case 'r': c = '\r'; break;
                  case 't': c = '\t'; break;
                  case 'u':
                    if (!decode_unicode_escape(line, i, out))
                        return false;
                    continue;
                  default: return false;
                }
            }
            out += c;
        }
        if (i >= line.size())
            return false;  // unterminated string: torn input
        ++i;               // closing quote
        return true;
    };

    skip_ws();
    if (i >= line.size() || line[i] != '{')
        return false;
    ++i;
    skip_ws();
    if (i < line.size() && line[i] == '}')
        return true;
    while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key))
            return false;
        skip_ws();
        if (i >= line.size() || line[i] != ':')
            return false;
        ++i;
        skip_ws();
        std::string value;
        if (i < line.size() && line[i] == '"') {
            if (!parse_string(value))
                return false;
        } else {
            // Flat means flat: a nested object or array is a
            // structural error, not a bare value. Without this check a
            // single-field nested object scans "successfully" into
            // mangled fields.
            if (i < line.size() && (line[i] == '{' || line[i] == '['))
                return false;
            const std::size_t start = i;
            while (i < line.size() && line[i] != ',' && line[i] != '}')
                ++i;
            value = line.substr(start, i - start);
            while (!value.empty() &&
                   std::isspace(static_cast<unsigned char>(value.back())))
                value.pop_back();
            if (value.empty())
                return false;
        }
        fields.emplace(key, std::move(value));
        skip_ws();
        if (i >= line.size())
            return false;  // torn input: no closing brace
        if (line[i] == '}')
            return true;
        if (line[i] != ',')
            return false;
        ++i;
    }
}

bool
json_get_string(const FlatJsonFields& fields, const char* name,
                std::string& out)
{
    const auto it = fields.find(name);
    if (it == fields.end())
        return false;
    out = it->second;
    return true;
}

bool
json_get_double(const FlatJsonFields& fields, const char* name, double& out)
{
    const auto it = fields.find(name);
    if (it == fields.end())
        return false;
    errno = 0;
    char* end = nullptr;
    out = std::strtod(it->second.c_str(), &end);
    return end != it->second.c_str() && *end == '\0' && errno == 0;
}

bool
json_get_int64(const FlatJsonFields& fields, const char* name,
               std::int64_t& out)
{
    const auto it = fields.find(name);
    if (it == fields.end())
        return false;
    errno = 0;
    char* end = nullptr;
    out = std::strtoll(it->second.c_str(), &end, 10);
    return end != it->second.c_str() && *end == '\0' && errno == 0;
}

bool
json_get_uint64(const FlatJsonFields& fields, const char* name,
                std::uint64_t& out)
{
    const auto it = fields.find(name);
    if (it == fields.end())
        return false;
    errno = 0;
    char* end = nullptr;
    out = std::strtoull(it->second.c_str(), &end, 10);
    return end != it->second.c_str() && *end == '\0' && errno == 0;
}

bool
json_get_int(const FlatJsonFields& fields, const char* name, int& out)
{
    std::int64_t wide = 0;
    if (!json_get_int64(fields, name, wide))
        return false;
    out = static_cast<int>(wide);
    return true;
}

}  // namespace chrysalis
