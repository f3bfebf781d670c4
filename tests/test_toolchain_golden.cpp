#include "core/error.hpp"
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "core/rng.hpp"
#include "core/yaml.hpp"
#include "toolchain/case_io.hpp"
#include "toolchain/golden.hpp"

namespace mfc::toolchain {
namespace {

GoldenFile sample() {
    GoldenFile g;
    g.add("alpha_rho1", {1.0, 2.0, 3.0});
    g.add("energy", {2.5e-13, -1.0, 0.0});
    return g;
}

TEST(Golden, SerializeParseRoundTrip) {
    const GoldenFile g = sample();
    const GoldenFile back = GoldenFile::parse(g.serialize());
    ASSERT_EQ(back.entries().size(), 2u);
    EXPECT_EQ(back.values("alpha_rho1"), g.values("alpha_rho1"));
    EXPECT_EQ(back.values("energy"), g.values("energy"));
}

TEST(Golden, OneLinePerVariable) {
    // "Each line in golden.txt contains a flattened array storing a
    // single simulation output" (Section 4.2).
    const std::string text = sample().serialize();
    int lines = 0;
    for (const char c : text) lines += c == '\n';
    EXPECT_EQ(lines, 2);
}

TEST(Golden, FullPrecisionSurvivesRoundTrip) {
    GoldenFile g;
    g.add("x", {0.1 + 0.2, 1.0 / 3.0, 6.02214076e23});
    const GoldenFile back = GoldenFile::parse(g.serialize());
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(back.values("x")[i], g.values("x")[i]); // bitwise
    }
}

TEST(Golden, DuplicateNameThrows) {
    GoldenFile g;
    g.add("a", {1.0});
    EXPECT_THROW(g.add("a", {2.0}), Error);
}

TEST(Golden, NameWithWhitespaceThrows) {
    GoldenFile g;
    EXPECT_THROW(g.add("bad name", {1.0}), Error);
}

TEST(Golden, MissingEntryThrows) {
    EXPECT_THROW((void)sample().values("nope"), Error);
    EXPECT_FALSE(sample().has("nope"));
    EXPECT_TRUE(sample().has("energy"));
}

TEST(Golden, SaveLoadFile) {
    const std::string path = testing::TempDir() + "/golden_test.txt";
    sample().save(path);
    const GoldenFile back = GoldenFile::load(path);
    EXPECT_EQ(back.values("alpha_rho1"), sample().values("alpha_rho1"));
    std::remove(path.c_str());
}

// --- reader and writer ------------------------------------------------

std::uint64_t bits_of(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/// Edge values plus seeded random bit patterns (every class of double).
std::vector<double> awkward_values() {
    using L = std::numeric_limits<double>;
    std::vector<double> v = {0.0, -0.0, L::infinity(), -L::infinity(),
                             L::quiet_NaN(), -L::quiet_NaN(), L::denorm_min(),
                             -L::denorm_min(), L::min(), L::max(), L::lowest()};
    Rng rng(15);
    for (int n = 0; n < 100000; ++n) {
        const std::uint64_t b = rng.next_u64();
        double d = 0.0;
        std::memcpy(&d, &b, sizeof d);
        v.push_back(d);
    }
    return v;
}

TEST(Golden, SerializeWritesPrintfSci) {
    GoldenFile g;
    const std::vector<double> values = awkward_values();
    g.add("v", values);
    std::string want = "v";
    char buf[64];
    for (const double d : values) {
        std::snprintf(buf, sizeof buf, " %.16E", d);
        want += buf;
    }
    want += '\n';
    EXPECT_EQ(g.serialize(), want); // the file format, byte for byte
}

TEST(Golden, ParseOfSerializeIsBitwise) {
    GoldenFile g;
    const std::vector<double> values = awkward_values();
    g.add("v", values);
    const GoldenFile parsed = GoldenFile::parse(g.serialize());
    const std::vector<double>& back = parsed.values("v");
    ASSERT_EQ(back.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (std::isnan(values[i])) {
            EXPECT_TRUE(std::isnan(back[i])) << i;
            EXPECT_EQ(std::signbit(back[i]), std::signbit(values[i])) << i;
        } else {
            ASSERT_EQ(bits_of(back[i]), bits_of(values[i])) << i;
        }
    }
}

TEST(Golden, ParseAcceptsTheWhitespaceVariants) {
    // CRLF line ends, tabs, runs of spaces, blank (and whitespace-only)
    // lines, and a last line without '\n'.
    const GoldenFile g = GoldenFile::parse(
        "\n  \t\r\n"
        "a 1.0E+00\t-2.5 \r\n"
        "\r\n"
        "\tb   3   \v\f4E-1\n"
        "empty\n"
        "c 5");
    ASSERT_EQ(g.entries().size(), 4u);
    EXPECT_EQ(g.values("a"), (std::vector<double>{1.0, -2.5}));
    EXPECT_EQ(g.values("b"), (std::vector<double>{3.0, 0.4}));
    EXPECT_TRUE(g.values("empty").empty());
    EXPECT_EQ(g.values("c"), (std::vector<double>{5.0}));
    EXPECT_TRUE(GoldenFile::parse("").entries().empty());
    EXPECT_TRUE(GoldenFile::parse(" \n\r\n\t").entries().empty());
}

TEST(Golden, ParseRejectsMalformedValues) {
    for (const std::string& bad :
         {std::string("x +1\n"), std::string("x 1.0junk\n"),
          std::string("x 1E+400\n"), std::string("x 0x1p3\n"),
          std::string("x -\n"), std::string("x 1.0 2\0 3\n", 11),
          std::string("x 1\ny 2\nx 3\n")}) {
        EXPECT_THROW((void)GoldenFile::parse(bad), Error) << bad;
    }
}

TEST(Golden, MutatedFilesParseOrThrowTypedErrors) {
    // Seeded mutation smoke of the reader: byte flips, insertions,
    // deletions and truncations of a serialized golden. Every mutant must
    // either parse or raise mfc::Error; anything else (another exception
    // type, a crash, a hang) fails the test.
    GoldenFile g;
    g.add("alpha_rho1", {1.0, -2.5e-13, 3.0e300});
    g.add("energy", {0.0, -0.0, std::numeric_limits<double>::denorm_min()});
    g.add("pres", {0.1, 0.2, 0.3});
    const std::string base = g.serialize();
    std::string alphabet = " \t\r\n\v\f+-.eE0123456789xpINFa";
    alphabet += '\0';
    Rng rng(2026);
    int parsed = 0, rejected = 0;
    for (int n = 0; n < 2000; ++n) {
        std::string text = base;
        const int edits = 1 + static_cast<int>(rng.bounded(3));
        for (int e = 0; e < edits && !text.empty(); ++e) {
            const std::size_t at = rng.bounded(text.size());
            const char c = rng.bounded(2) == 0
                               ? alphabet[rng.bounded(alphabet.size())]
                               : static_cast<char>(rng.bounded(256));
            switch (rng.bounded(4)) {
            case 0: text[at] = c; break;
            case 1: text.insert(at, 1, c); break;
            case 2: text.erase(at, 1 + rng.bounded(8)); break;
            default: text.resize(at); break;
            }
        }
        try {
            (void)GoldenFile::parse(text);
            ++parsed;
        } catch (const Error&) {
            ++rejected;
        }
    }
    EXPECT_EQ(parsed + rejected, 2000);
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
}

TEST(Golden, SaveToAFullDeviceThrows) {
    if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    EXPECT_THROW(sample().save("/dev/full"), Error);
}

/// Message of the mfc::Error that fn throws ("" if none).
template <class Fn> std::string error_of(Fn&& fn) {
    try {
        fn();
    } catch (const Error& e) {
        return e.what();
    }
    return "";
}

TEST(Writers, AFailedWriteThrowsNamingThePath) {
    // Golden, YAML and case files share one checked writer: a path that
    // cannot be opened (a directory) and a device that takes the open but
    // not the bytes (/dev/full) both throw an mfc::Error naming the path.
    Yaml yaml;
    yaml["key"].set(Value(1.0));
    CaseDict dict;
    dict["nx"] = 8;
    std::vector<std::string> paths = {testing::TempDir()};
    if (std::filesystem::exists("/dev/full")) paths.push_back("/dev/full");
    for (const std::string& path : paths) {
        for (const std::string& msg :
             {error_of([&] { sample().save(path); }),
              error_of([&] { yaml.save(path); }),
              error_of([&] { save_case_file(dict, path); })}) {
            EXPECT_NE(msg.find(path), std::string::npos) << path << ": '" << msg << "'";
        }
    }
}

TEST(Golden, LoadRejectsFilesThatAreNotGoldens) {
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "/golden_load_errors";
    fs::remove_all(dir);
    fs::create_directories(dir + "/a_directory");
    std::ofstream(dir + "/zero_bytes").close();
    std::ofstream(dir + "/blank") << " \n\t\r\n";
    std::ofstream(dir + "/garbage") << "x 1.0 2.0junk\n";
    for (const char* name :
         {"a_directory", "zero_bytes", "blank", "garbage", "missing"}) {
        const std::string path = dir + "/" + name;
        const std::string msg = error_of([&] { (void)GoldenFile::load(path); });
        EXPECT_NE(msg.find(path), std::string::npos) << name << ": " << msg;
    }
    fs::remove_all(dir);
}

TEST(Compare, EmptyReferenceFails) {
    const CompareResult r = compare_golden(GoldenFile{}, sample());
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.message.empty());
}

// --- comparison semantics ---------------------------------------------

TEST(Compare, IdenticalFilesPass) {
    const CompareResult r = compare_golden(sample(), sample());
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.mismatched_values, 0);
    EXPECT_DOUBLE_EQ(r.max_abs_err, 0.0);
}

TEST(Compare, FailsOnlyWhenBothTolerancesExceeded) {
    // Default tolerances are 1e-12 absolute AND relative (Section 4.2):
    // a large value with tiny relative error passes even though its
    // absolute error exceeds 1e-12, and vice versa.
    GoldenFile ref, big_rel_ok, small_abs_ok, both_bad;
    ref.add("v", {1.0e6, 1.0e-20});
    big_rel_ok.add("v", {1.0e6 * (1.0 + 1e-14), 1.0e-20}); // abs err 1e-8, rel 1e-14
    small_abs_ok.add("v", {1.0e6, 3.0e-20}); // rel err 2, abs err 2e-20
    both_bad.add("v", {1.0e6 * (1.0 + 1e-9), 1.0e-20});

    EXPECT_TRUE(compare_golden(ref, big_rel_ok).ok);
    EXPECT_TRUE(compare_golden(ref, small_abs_ok).ok);
    const CompareResult r = compare_golden(ref, both_bad);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.mismatched_values, 1);
    EXPECT_FALSE(r.message.empty());
}

TEST(Compare, CustomTolerances) {
    GoldenFile ref, cur;
    ref.add("v", {1.0});
    cur.add("v", {1.001});
    EXPECT_FALSE(compare_golden(ref, cur).ok);
    EXPECT_TRUE(compare_golden(ref, cur, 1e-2, 1e-2).ok);
}

TEST(Compare, MissingVariableFails) {
    GoldenFile cur;
    cur.add("alpha_rho1", {1.0, 2.0, 3.0});
    const CompareResult r = compare_golden(sample(), cur);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("energy"), std::string::npos);
}

TEST(Compare, SizeMismatchFails) {
    GoldenFile cur;
    cur.add("alpha_rho1", {1.0, 2.0});
    cur.add("energy", {2.5e-13, -1.0, 0.0});
    const CompareResult r = compare_golden(sample(), cur);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("size mismatch"), std::string::npos);
}

TEST(Compare, ExtraVariablesInCurrentAreIgnored) {
    GoldenFile cur = sample();
    cur.add("new_output", {9.0});
    EXPECT_TRUE(compare_golden(sample(), cur).ok);
}

TEST(Compare, ReportsMaxErrors) {
    GoldenFile ref, cur;
    ref.add("v", {1.0, 2.0});
    cur.add("v", {1.5, 2.0});
    const CompareResult r = compare_golden(ref, cur);
    EXPECT_DOUBLE_EQ(r.max_abs_err, 0.5);
    EXPECT_DOUBLE_EQ(r.max_rel_err, 0.5);
}

TEST(Compare, ZeroReferenceUsesAbsoluteOnly) {
    GoldenFile ref, cur;
    ref.add("v", {0.0});
    cur.add("v", {5.0e-13});
    EXPECT_TRUE(compare_golden(ref, cur).ok); // abs err below tol
    GoldenFile cur2;
    cur2.add("v", {5.0e-10});
    EXPECT_FALSE(compare_golden(ref, cur2).ok);
}

// --- add-new-variables -----------------------------------------------

TEST(AddNewVariables, AppendsWithoutModifyingExisting) {
    // Section 4.2: "adds new tracked variables to the golden file without
    // modifying the existing values".
    GoldenFile existing;
    existing.add("alpha_rho1", {1.0, 2.0});
    GoldenFile fresh;
    fresh.add("alpha_rho1", {9.0, 9.0}); // different values: must be kept OLD
    fresh.add("vorticity", {0.5, 0.5});
    const GoldenFile merged = add_new_variables(existing, fresh);
    EXPECT_EQ(merged.values("alpha_rho1"), (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(merged.values("vorticity"), (std::vector<double>{0.5, 0.5}));
    EXPECT_EQ(merged.entries().size(), 2u);
}

TEST(AddNewVariables, NoopWhenNothingNew) {
    const GoldenFile merged = add_new_variables(sample(), sample());
    EXPECT_EQ(merged.entries().size(), 2u);
}

TEST(Metadata, ContainsUuidTraceAndParams) {
    const std::string meta =
        golden_metadata("ABCD1234", "3D -> IGR", "igr=T\nnx=10\n");
    EXPECT_NE(meta.find("uuid: ABCD1234"), std::string::npos);
    EXPECT_NE(meta.find("trace: 3D -> IGR"), std::string::npos);
    EXPECT_NE(meta.find("igr=T"), std::string::npos);
    EXPECT_NE(meta.find("tolerance"), std::string::npos);
}

} // namespace
} // namespace mfc::toolchain
