#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/strings.hpp"

namespace mfc {
namespace {

TEST(Strings, TrimRemovesSurroundingWhitespace) {
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("\tabc\n"), "abc");
    EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, TrimOfAllWhitespaceIsEmpty) {
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(Strings, TrimKeepsInteriorWhitespace) {
    EXPECT_EQ(trim(" a b "), "a b");
}

TEST(Strings, SplitOnSeparator) {
    const auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyTokens) {
    const auto parts = split("a,,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitSingleToken) {
    const auto parts = split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitWsCollapsesRuns) {
    const auto parts = split_ws("  a \t b\n c  ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitWsEmptyInput) {
    EXPECT_TRUE(split_ws("").empty());
    EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, StartsEndsWith) {
    EXPECT_TRUE(starts_with("bc_x_beg", "bc_"));
    EXPECT_FALSE(starts_with("bc", "bc_"));
    EXPECT_TRUE(ends_with("golden.txt", ".txt"));
    EXPECT_FALSE(ends_with("txt", ".txt"));
}

TEST(Strings, ToLower) {
    EXPECT_EQ(to_lower("HLLC"), "hllc");
    EXPECT_EQ(to_lower("MiXeD123"), "mixed123");
}

TEST(Strings, Join) {
    EXPECT_EQ(join({"a", "b", "c"}, " -> "), "a -> b -> c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, ReplaceAll) {
    EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
    EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
    EXPECT_EQ(replace_all("abc", "x", "y"), "abc");
}

TEST(Strings, FormatSciRoundTrips) {
    for (const double v : {1.0, -2.5e-13, 3.14159265358979, 1e300, 0.0}) {
        EXPECT_EQ(parse_double(format_sci(v)), v);
    }
}

TEST(Strings, ParseIntValid) {
    EXPECT_EQ(parse_int("42"), 42);
    EXPECT_EQ(parse_int(" -7 "), -7);
}

TEST(Strings, ParseIntRejectsGarbage) {
    EXPECT_THROW((void)parse_int("4x"), Error);
    EXPECT_THROW((void)parse_int(""), Error);
    EXPECT_THROW((void)parse_int("1.5"), Error);
}

TEST(Strings, ParseDoubleValid) {
    EXPECT_DOUBLE_EQ(parse_double("2.5e-3"), 2.5e-3);
    EXPECT_DOUBLE_EQ(parse_double(" -1 "), -1.0);
}

TEST(Strings, ParseDoubleRejectsGarbage) {
    EXPECT_THROW((void)parse_double("abc"), Error);
    EXPECT_THROW((void)parse_double("1.0junk"), Error);
}

TEST(Strings, ParseDoubleKeepsItsAcceptSet) {
    // from_chars rules: no leading '+', no hex, no out-of-range
    // magnitude, no partial token, no lone sign, no embedded NUL.
    for (const std::string_view bad :
         {std::string_view("+1"), std::string_view("1E+400"),
          std::string_view("0x1p3"), std::string_view("-"),
          std::string_view("1.0junk"), std::string_view("1\0", 2),
          std::string_view("1 2"), std::string_view("")}) {
        EXPECT_THROW((void)parse_double(bad), Error) << "'" << bad << "'";
    }
    EXPECT_EQ(parse_double("\t-2.5E-03\r\n"), -2.5e-3);
    EXPECT_TRUE(std::isinf(parse_double("-INF")));
    EXPECT_TRUE(std::isnan(parse_double("NAN")));
    EXPECT_THROW((void)parse_int("+3"), Error);
    EXPECT_EQ(parse_int("\v12\f"), 12);
}

TEST(Strings, IsSpaceIsTheCLocaleSet) {
    for (int c = 0; c < 256; ++c) {
        EXPECT_EQ(is_space(static_cast<char>(c)), std::isspace(c) != 0) << c;
    }
}

/// format_sci must reproduce printf's "%.16E" byte for byte.
std::string printf_sci(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.16E", v);
    return buf;
}

TEST(Strings, FormatSciMatchesPrintfOnSpecialValues) {
    using L = std::numeric_limits<double>;
    for (const double v :
         {0.0, -0.0, L::infinity(), -L::infinity(), L::quiet_NaN(),
          -L::quiet_NaN(), L::denorm_min(), -L::denorm_min(), L::min(),
          L::max(), L::lowest(), 1.0, -1.0, 0.1, 1e23,
          // Decimal ties at the 17th significant digit: both sides must
          // round half to even.
          1000000000000000.25, 1000000000000000.75, -1000000000000001.25}) {
        EXPECT_EQ(format_sci(v), printf_sci(v));
    }
}

TEST(Strings, FormatSciMatchesPrintfOnRandomBitPatterns) {
    Rng rng(20251017);
    char buf[kMaxSciChars];
    for (int n = 0; n < 100000; ++n) {
        const std::uint64_t bits = rng.next_u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        const std::string want = printf_sci(v);
        ASSERT_LE(want.size(), kMaxSciChars);
        ASSERT_EQ(std::string(buf, format_sci(buf, v)), want) << std::hex << bits;
    }
}

} // namespace
} // namespace mfc
