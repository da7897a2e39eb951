/// \file
/// Edge cases of the flat-JSON scanner/emitters shared by the campaign
/// journal and the serve-v1 wire protocol: duplicate keys, empty
/// objects, nesting (rejected at any depth), non-ASCII round-trips and
/// torn input. The scanner's contract is conservative — any structural
/// problem returns false — because both callers would rather drop a
/// journal line or reply `bad_frame` than guess.

#include "common/flat_json.hpp"

#include <string>

#include <gtest/gtest.h>

namespace chrysalis {
namespace {

TEST(FlatJson, DuplicateKeysKeepTheFirstOccurrence)
{
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json(R"({"k":"first","k":"second","m":1})",
                               fields));
    EXPECT_EQ(fields.size(), 2u);
    EXPECT_EQ(fields.at("k"), "first");
    EXPECT_EQ(fields.at("m"), "1");
}

TEST(FlatJson, DuplicateNumericKeysKeepTheFirstSpelling)
{
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json(R"({"n":1,"n":2,"n":3})", fields));
    EXPECT_EQ(fields.size(), 1u);
    EXPECT_EQ(fields.at("n"), "1");
}

TEST(FlatJson, EmptyObjectScansToNoFields)
{
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json("{}", fields));
    EXPECT_TRUE(fields.empty());
}

TEST(FlatJson, EmptyObjectWithInteriorWhitespaceScans)
{
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json("  {   }", fields));
    EXPECT_TRUE(fields.empty());
}

TEST(FlatJson, NestedObjectValueIsRejected)
{
    // "Flat" is load-bearing: without the depth check a single-field
    // nested object used to scan "successfully" into mangled fields.
    FlatJsonFields fields;
    EXPECT_FALSE(scan_flat_json(R"({"a":{"b":1}})", fields));
    EXPECT_FALSE(scan_flat_json(R"({"a":{"b":1,"c":2}})", fields));
    EXPECT_FALSE(scan_flat_json(R"({"a":{}})", fields));
}

TEST(FlatJson, DeeplyNestedValueIsRejectedAtTheFirstBrace)
{
    std::string line = R"({"a":)";
    for (int depth = 0; depth < 64; ++depth)
        line += R"({"b":)";
    line += '1';
    for (int depth = 0; depth <= 64; ++depth)
        line += '}';
    FlatJsonFields fields;
    EXPECT_FALSE(scan_flat_json(line, fields));
}

TEST(FlatJson, ArrayValueIsRejected)
{
    FlatJsonFields fields;
    EXPECT_FALSE(scan_flat_json(R"({"a":[1,2]})", fields));
    EXPECT_FALSE(scan_flat_json(R"({"a":[]})", fields));
}

TEST(FlatJson, NonAsciiStringValueRoundTrips)
{
    // UTF-8 bytes are >= 0x80 and pass through both the escaper and
    // the scanner verbatim — the wire stays valid UTF-8 JSON.
    const std::string text = "aut\xC3\xB3nomo \xE2\x9A\xA1 \xF0\x9F\x94\x8B";
    std::string object = "{";
    json_append_field(object, "label", text);
    object += '}';
    EXPECT_EQ(object.find('\\'), std::string::npos);

    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json(object, fields));
    EXPECT_EQ(fields.at("label"), text);
}

TEST(FlatJson, ControlCharactersEscapeAndRoundTrip)
{
    const std::string text = "a\tb\nc\rd\x01" "e\"f\\g";
    std::string object = "{";
    json_append_field(object, "v", text);
    object += '}';
    EXPECT_NE(object.find("\\u0001"), std::string::npos);

    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json(object, fields));
    EXPECT_EQ(fields.at("v"), text);
}

TEST(FlatJson, WritersStartAnEmptyBufferWithoutAComma)
{
    // A serve reply body is a bare field list: its first field goes
    // into an empty buffer and takes no comma; later fields do, exactly
    // as after an object's opening '{'.
    std::string raw_first;
    json_append_raw_field(raw_first, "ok", "1");
    json_append_field(raw_first, "type", "health");
    EXPECT_EQ(raw_first, R"("ok":1,"type":"health")");

    std::string string_first;
    json_append_field(string_first, "a", "x");
    json_append_raw_field(string_first, "n", "2");
    EXPECT_EQ(string_first, R"("a":"x","n":2)");

    std::string object = "{";
    json_append_raw_field(object, "n", "2");
    json_append_field(object, "a", "x");
    EXPECT_EQ(object, R"({"n":2,"a":"x")");
}

TEST(FlatJson, UnicodeEscapeDecodes)
{
    // In a raw string the escape below is six literal characters --
    // the scanner, not the compiler, performs the decode.
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json(R"({"v":"A\u0009B"})", fields));
    EXPECT_EQ(fields.at("v"), "A\tB");
}

TEST(FlatJson, TornInputIsRejected)
{
    FlatJsonFields fields;
    // A killed journal writer or truncated frame can tear a line at
    // any byte; every prefix must scan false, never half-parse.
    const std::string line = R"({"k":"value","n":42})";
    for (std::size_t cut = 0; cut < line.size(); ++cut) {
        FlatJsonFields partial;
        EXPECT_FALSE(scan_flat_json(line.substr(0, cut), partial))
            << "prefix of " << cut << " bytes scanned successfully";
    }
    ASSERT_TRUE(scan_flat_json(line, fields));
    EXPECT_EQ(fields.at("k"), "value");
    EXPECT_EQ(fields.at("n"), "42");
}

TEST(FlatJson, StructuralGarbageIsRejected)
{
    FlatJsonFields fields;
    EXPECT_FALSE(scan_flat_json("", fields));
    EXPECT_FALSE(scan_flat_json("null", fields));
    EXPECT_FALSE(scan_flat_json(R"({"k" "v"})", fields));
    EXPECT_FALSE(scan_flat_json(R"({"k":})", fields));
    EXPECT_FALSE(scan_flat_json(R"({"k":"v",})", fields));
    EXPECT_FALSE(scan_flat_json(R"({42:"v"})", fields));
    EXPECT_FALSE(scan_flat_json(R"({"k":"v"!})", fields));
    EXPECT_FALSE(scan_flat_json(R"({"k":"\x41"})", fields));
}

}  // namespace
}  // namespace chrysalis
