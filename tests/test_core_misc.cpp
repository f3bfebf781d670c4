#include <gtest/gtest.h>

#include <set>

#include "core/field.hpp"
#include "core/hash.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "core/timer.hpp"

namespace mfc {
namespace {

// --- hashing / UUIDs -------------------------------------------------------

TEST(Hash, Fnv1aIsDeterministic) {
    EXPECT_EQ(fnv1a64("abc"), fnv1a64("abc"));
    EXPECT_NE(fnv1a64("abc"), fnv1a64("abd"));
}

TEST(Hash, Fnv1aMatchesKnownVector) {
    // FNV-1a 64-bit of the empty string is the offset basis.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
}

TEST(Hash, Uuid8ShapeAndStability) {
    const std::string u = uuid8("3D -> IGR -> Jacobi");
    EXPECT_EQ(u.size(), 8u);
    EXPECT_EQ(u, uuid8("3D -> IGR -> Jacobi"));
    for (const char c : u) {
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'A' && c <= 'F')) << c;
    }
}

TEST(Hash, Uuid8SpreadsInputs) {
    std::set<std::string> ids;
    for (int i = 0; i < 200; ++i) ids.insert(uuid8("case" + std::to_string(i)));
    EXPECT_EQ(ids.size(), 200u); // no collisions on this small sample
}

// --- grindtime -------------------------------------------------------------

TEST(Grindtime, MatchesDefinition) {
    // 1 second over 1e6 points, 8 equations, 30 RHS evals:
    // 1e9 ns / 2.4e8 units = 4.1666 ns.
    EXPECT_NEAR(grindtime_ns(1.0, 1'000'000, 8, 30), 4.1666667, 1e-6);
}

TEST(Grindtime, ZeroWorkIsZero) {
    EXPECT_EQ(grindtime_ns(1.0, 0, 8, 30), 0.0);
}

TEST(Grindtime, IndependentOfFactorSplit) {
    // Doubling steps at half the grid changes nothing per unit.
    EXPECT_DOUBLE_EQ(grindtime_ns(2.0, 100, 8, 60), grindtime_ns(2.0, 200, 8, 30));
}

// --- RNG ---------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
    Rng a(7), b(7);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
    Rng r(123);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.uniform(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, BoundedInRange) {
    Rng r(9);
    for (int i = 0; i < 100; ++i) EXPECT_LT(r.bounded(17), 17u);
    EXPECT_EQ(r.bounded(0), 0u);
}

// --- table formatting --------------------------------------------------

TEST(Table, RendersAlignedColumns) {
    TextTable t({"Hardware", "Time"});
    t.set_align(1, TextTable::Align::Right);
    t.add_row({"NVIDIA GH200", "0.32"});
    t.add_row({"AMD MI250X", "0.55"});
    const std::string s = t.str();
    EXPECT_NE(s.find("| Hardware     | Time |"), std::string::npos);
    EXPECT_NE(s.find("| NVIDIA GH200 | 0.32 |"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
    TextTable t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, FormatSig2MatchesPaperStyle) {
    EXPECT_EQ(format_sig2(0.32), "0.32");
    EXPECT_EQ(format_sig2(1.4), "1.4");
    EXPECT_EQ(format_sig2(10.0), "10");
    EXPECT_EQ(format_sig2(63.0), "63");
}

// --- Field ---------------------------------------------------------------

TEST(Field, InteriorAndGhostIndexing) {
    Field f(Extents{4, 3, 2}, 2);
    f(0, 0, 0) = 1.0;
    f(-2, 0, 0) = 2.0;
    f(5, 2, 1) = 3.0;
    EXPECT_DOUBLE_EQ(f(0, 0, 0), 1.0);
    EXPECT_DOUBLE_EQ(f(-2, 0, 0), 2.0);
    EXPECT_DOUBLE_EQ(f(5, 2, 1), 3.0);
}

TEST(Field, InactiveDimensionsCarryNoGhosts) {
    Field f(Extents{8, 1, 1}, 3);
    EXPECT_EQ(f.gx(), 3);
    EXPECT_EQ(f.gy(), 0);
    EXPECT_EQ(f.gz(), 0);
    // Addressable cells per row are (8+6) x 1 x 1; storage pads each row
    // up to a multiple of 8 doubles so rows start 64-byte-aligned.
    EXPECT_EQ(f.row_length(), 14);
    EXPECT_EQ(f.padded_row_length(), 16);
    EXPECT_EQ(f.raw().size(), 16u);
}

TEST(Field, InteriorSumExcludesGhosts) {
    Field f(Extents{4, 1, 1}, 2);
    f.fill(0.0);
    for (int i = 0; i < 4; ++i) f(i, 0, 0) = 1.0;
    f(-1, 0, 0) = 100.0;
    f(4, 0, 0) = 100.0;
    EXPECT_DOUBLE_EQ(f.interior_sum(), 4.0);
}

TEST(Field, ExtentsDims) {
    EXPECT_EQ((Extents{8, 1, 1}).dims(), 1);
    EXPECT_EQ((Extents{8, 8, 1}).dims(), 2);
    EXPECT_EQ((Extents{8, 8, 8}).dims(), 3);
    EXPECT_EQ((Extents{8, 8, 8}).cells(), 512);
}

TEST(StateArray, PerEquationFields) {
    StateArray s(3, Extents{4, 4, 1}, 1);
    EXPECT_EQ(s.num_eqns(), 3);
    s.eq(2)(1, 1, 0) = 5.0;
    EXPECT_DOUBLE_EQ(s.eq(2)(1, 1, 0), 5.0);
    EXPECT_DOUBLE_EQ(s.eq(0)(1, 1, 0), 0.0);
    EXPECT_EQ(s.extents(), (Extents{4, 4, 1}));
}

TEST(Timer, MeasuresNonNegativeTime) {
    const Timer t;
    volatile double x = 0.0;
    for (int i = 0; i < 10000; ++i) x = x + static_cast<double>(i);
    EXPECT_GE(t.seconds(), 0.0);
    EXPECT_GE(t.nanoseconds(), t.seconds()); // ns >= s numerically
}

} // namespace
} // namespace mfc
