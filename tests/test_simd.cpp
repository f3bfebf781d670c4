#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "simd/simd.hpp"
#include "solver/case_config.hpp"
#include "solver/simulation.hpp"

namespace mfc {
namespace {

// ---------------------------------------------------------------------------
// vd<W> semantics: the contracts the vectorized kernels rely on for
// bitwise golden-file identity (see simd/simd.hpp header comment).
// ---------------------------------------------------------------------------

TEST(Simd, BroadcastLoadStoreLanes) {
    const simd::vd<4> b(2.5);
    for (int l = 0; l < 4; ++l) EXPECT_EQ(b.lane(l), 2.5);

    const double in[4] = {1.0, -2.0, 3.5, 0.25};
    const simd::vd<4> v = simd::vd<4>::load(in);
    double out[4] = {};
    v.store(out);
    EXPECT_EQ(std::memcmp(in, out, sizeof(in)), 0);
}

TEST(Simd, ArithmeticMatchesScalarBitwise) {
    const double a[4] = {1.37, -2.25, 1.0e-12, 3.0e7};
    const double b[4] = {0.61, 7.5, -4.0e3, 1.2e-9};
    const auto va = simd::vd<4>::load(a);
    const auto vb = simd::vd<4>::load(b);
    const simd::vd<4> r = va * vb + va / vb - vb;
    for (int l = 0; l < 4; ++l) {
        const double s = a[l] * b[l] + a[l] / b[l] - b[l];
        const double g = r.lane(l);
        EXPECT_EQ(std::memcmp(&s, &g, sizeof(double)), 0) << l;
    }
}

TEST(Simd, MinMaxMatchStdSemantics) {
    // std::max(a,b) returns a when a<b is false — including the signed-zero
    // tie, where it returns the *first* argument. vmax must agree bitwise.
    const double cases[][2] = {
        {1.0, 2.0}, {2.0, 1.0}, {-0.0, 0.0}, {0.0, -0.0}, {-3.5, -3.5}};
    for (const auto& c : cases) {
        const simd::vd<4> a(c[0]);
        const simd::vd<4> b(c[1]);
        const double smax = std::max(c[0], c[1]);
        const double smin = std::min(c[0], c[1]);
        const double gmax = simd::vmax(a, b).lane(0);
        const double gmin = simd::vmin(a, b).lane(0);
        EXPECT_EQ(std::memcmp(&gmax, &smax, sizeof(double)), 0)
            << c[0] << " " << c[1];
        EXPECT_EQ(std::memcmp(&gmin, &smin, sizeof(double)), 0)
            << c[0] << " " << c[1];
    }
}

TEST(Simd, AbsClearsSignBitLikeFabs) {
    const double in[4] = {-0.0, 0.0, -1.5, 2.0};
    const simd::vd<4> r = simd::vabs(simd::vd<4>::load(in));
    for (int l = 0; l < 4; ++l) {
        EXPECT_FALSE(std::signbit(r.lane(l))) << l;
        EXPECT_EQ(r.lane(l), std::fabs(in[l])) << l;
    }
}

TEST(Simd, SqrtAppliesPerLane) {
    const double in[4] = {4.0, 2.0, 1.0e-8, 9.0e12};
    const simd::vd<4> r = simd::vsqrt(simd::vd<4>::load(in));
    for (int l = 0; l < 4; ++l) {
        const double s = std::sqrt(in[l]);
        const double g = r.lane(l);
        EXPECT_EQ(std::memcmp(&s, &g, sizeof(double)), 0) << l;
    }
}

TEST(Simd, SelectAndMaskCombinators) {
    const double a[4] = {1.0, 2.0, 3.0, 4.0};
    const double b[4] = {-1.0, -2.0, -3.0, -4.0};
    const auto va = simd::vd<4>::load(a);
    const auto vb = simd::vd<4>::load(b);
    const auto m = va > simd::vd<4>(2.5); // {F, F, T, T}
    EXPECT_TRUE(simd::any(m));
    EXPECT_FALSE(simd::all(m));
    const simd::vd<4> r = simd::select(m, va, vb);
    EXPECT_EQ(r.lane(0), -1.0);
    EXPECT_EQ(r.lane(1), -2.0);
    EXPECT_EQ(r.lane(2), 3.0);
    EXPECT_EQ(r.lane(3), 4.0);

    const auto none = va > simd::vd<4>(10.0);
    EXPECT_FALSE(simd::any(none));
    EXPECT_TRUE(simd::all(!none));
    EXPECT_TRUE(simd::any(m || none));
    EXPECT_FALSE(simd::any(m && none));
}

// ---------------------------------------------------------------------------
// The one-instruction helpers and div_exact: every lane at every width is
// bit for bit the scalar definition.
// ---------------------------------------------------------------------------

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Apply fn to `in` W lanes at a time (a short tail runs at W = 1) and
/// count the lanes whose bits differ from want(x).
template <int W, class Fn, class Want>
long long lane_mismatches(const std::vector<double>& in, Fn fn, Want want) {
    long long bad = 0;
    std::size_t i = 0;
    for (; i + W <= in.size(); i += W) {
        const simd::vd<W> r = fn(simd::vd<W>::load(in.data() + i));
        for (int l = 0; l < W; ++l) bad += !same_bits(r.lane(l), want(in[i + l]));
    }
    for (; i < in.size(); ++i) bad += !same_bits(fn(simd::vd<1>(in[i])).v, want(in[i]));
    return bad;
}

/// The edge lanes: signed zeros, the subnormal and normal extremes, the
/// infinities, a NaN, both edges of div_exact's fast range, and
/// subnormal quotients that are rounding ties (9 * 2^-1074 / 6), which
/// the FMA sequence without its range guard gets wrong.
std::vector<double> div_edge_lanes() {
    const double dmin = std::numeric_limits<double>::denorm_min();
    const double inf = std::numeric_limits<double>::infinity();
    const double lo = simd::kDivExactMin;
    std::vector<double> v = {0.0,     dmin, DBL_MIN, DBL_MAX, inf,
                             lo,      std::nextafter(lo, 0.0),
                             std::nextafter(lo, inf),
                             std::nextafter(DBL_MAX, 0.0),
                             9 * dmin, 3 * dmin, 15 * dmin, 21 * dmin};
    const std::size_t n = v.size();
    for (std::size_t i = 0; i < n; ++i) v.push_back(-v[i]);
    v.push_back(std::numeric_limits<double>::quiet_NaN());
    return v;
}

/// Seeded lanes drawn four ways: random bit patterns, a random value in
/// a random binade (subnormals included), binade edges +-32 ulps, and
/// D * q +-4 ulps for D = 6 and 12, whose quotients sit next to a double.
std::vector<double> div_random_lanes(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> v;
    v.reserve(n);
    const auto step = [](double x, long long ulps) {
        for (; ulps > 0; --ulps) x = std::nextafter(x, HUGE_VAL);
        for (; ulps < 0; ++ulps) x = std::nextafter(x, -HUGE_VAL);
        return x;
    };
    const auto in_binade = [&] {
        const int e = static_cast<int>(rng.bounded(2098)) - 1074; // 2^-1074 .. 2^1023
        const double x = std::ldexp(rng.uniform(1.0, 2.0), e);
        return rng.bounded(2) ? -x : x;
    };
    while (v.size() < n) {
        switch (rng.bounded(4)) {
        case 0: v.push_back(std::bit_cast<double>(rng.next_u64())); break;
        case 1: v.push_back(in_binade()); break;
        case 2: {
            const int e = static_cast<int>(rng.bounded(2098)) - 1074;
            v.push_back(step(std::ldexp(rng.bounded(2) ? -1.0 : 1.0, e),
                             static_cast<long long>(rng.bounded(65)) - 32));
            break;
        }
        default:
            v.push_back(step((rng.bounded(2) ? 6.0 : 12.0) * in_binade(),
                             static_cast<long long>(rng.bounded(9)) - 4));
        }
    }
    return v;
}

template <int W> void expect_div_exact(const std::vector<double>& in) {
    EXPECT_EQ(lane_mismatches<W>(in, [](auto x) { return simd::div_exact<6>(x); },
                                 [](double x) { return x / 6.0; }),
              0)
        << "D=6 W=" << W;
    EXPECT_EQ(lane_mismatches<W>(in, [](auto x) { return simd::div_exact<12>(x); },
                                 [](double x) { return x / 12.0; }),
              0)
        << "D=12 W=" << W;
}

TEST(Simd, DivExactMatchesTheDivideAtTheEdges) {
    const std::vector<double> edges = div_edge_lanes();
    expect_div_exact<1>(edges);
    expect_div_exact<2>(edges);
    expect_div_exact<4>(edges);
    expect_div_exact<8>(edges);
    // The signed zeros keep their sign at every width.
    EXPECT_TRUE(std::signbit(simd::div_exact<6>(simd::vd<1>(-0.0)).v));
    EXPECT_TRUE(std::signbit(simd::div_exact<12>(simd::vd<8>(-0.0)).lane(7)));
}

TEST(Simd, DivExactMatchesTheDivideOnTenMillionLanes) {
    // 2.5e6 lanes per width, one draw per width: 1e7 lanes in all.
    expect_div_exact<1>(div_random_lanes(2500000, 11));
    expect_div_exact<2>(div_random_lanes(2500000, 12));
    expect_div_exact<4>(div_random_lanes(2500000, 14));
    expect_div_exact<8>(div_random_lanes(2500000, 18));
}

/// Lanes for vabs and vsqrt: signed zeros, subnormals, negatives (a NaN
/// from sqrt), infinities and NaNs of either sign with a payload.
std::vector<double> helper_lanes() {
    std::vector<double> v = {0.0,  -0.0, 2.0,  -1.5,  1.0e-310, -1.0e-310,
                             4.0,  9.0e12, DBL_MAX, -DBL_MAX,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             std::bit_cast<double>(0x7ff8000000012345ull),
                             std::bit_cast<double>(0xfff8000000054321ull)};
    const std::vector<double> extra = div_random_lanes(512, 5);
    v.insert(v.end(), extra.begin(), extra.end());
    return v;
}

template <int W> void expect_helpers_match_w1() {
    const std::vector<double> in = helper_lanes();
    EXPECT_EQ(lane_mismatches<W>(in, [](auto x) { return simd::vabs(x); },
                                 [](double x) { return simd::vabs(simd::vd<1>(x)).v; }),
              0)
        << "vabs W=" << W;
    EXPECT_EQ(lane_mismatches<W>(in, [](auto x) { return simd::vsqrt(x); },
                                 [](double x) { return simd::vsqrt(simd::vd<1>(x)).v; }),
              0)
        << "vsqrt W=" << W;
    // any / all over every true/false pattern of the W lanes.
    for (unsigned bits = 0; bits < (1u << W); ++bits) {
        double t[W];
        for (int l = 0; l < W; ++l) t[l] = (bits >> l & 1u) ? 1.0 : -1.0;
        const simd::vmask<W> m = simd::vd<W>::load(t) > simd::vd<W>(0.0);
        bool want_any = false, want_all = true;
        for (int l = 0; l < W; ++l) {
            const simd::vmask<1> m1 = simd::vd<1>(t[l]) > simd::vd<1>(0.0);
            want_any = want_any || simd::any(m1);
            want_all = want_all && simd::all(m1);
        }
        EXPECT_EQ(simd::any(m), want_any) << "W=" << W << " bits=" << bits;
        EXPECT_EQ(simd::all(m), want_all) << "W=" << W << " bits=" << bits;
    }
}

TEST(Simd, OneInstructionHelpersMatchTheScalarDefinitions) {
    // vd<1>'s vabs and vsqrt are std::fabs and std::sqrt.
    EXPECT_TRUE(same_bits(simd::vabs(simd::vd<1>(-0.0)).v, 0.0));
    EXPECT_TRUE(same_bits(simd::vsqrt(simd::vd<1>(-0.0)).v, -0.0));
    expect_helpers_match_w1<2>();
    expect_helpers_match_w1<4>();
    expect_helpers_match_w1<8>();
}

TEST(Simd, WidthDispatchAndValidation) {
    const int prev = simd::width();
    simd::set_width(2);
    int seen = 0;
    simd::dispatch([&](auto wc) { seen = wc(); });
    EXPECT_EQ(seen, 2);
    EXPECT_THROW(simd::set_width(3), Error);
    EXPECT_EQ(simd::width(), 2); // rejected widths leave the state alone
    simd::set_width(prev);
}

TEST(Simd, DefaultWidthFollowsTheBuild) {
    // One 512-bit register of doubles in an AVX-512 build, 4 otherwise,
    // unless MFC_SIMD_WIDTH overrides it.
    if (std::getenv("MFC_SIMD_WIDTH") != nullptr) GTEST_SKIP();
    EXPECT_EQ(simd::width(), simd::register_lanes() == 8 ? 8 : 4);
    EXPECT_NE(simd::isa_label().find(" W="), std::string::npos);
}

/// The (block width, first cell) sequence for_blocks<W> runs over n cells.
template <int W> std::vector<std::pair<int, int>> block_sequence(int n) {
    std::vector<std::pair<int, int>> seq;
    simd::for_blocks<W>(n, [&](auto wtag, int i) {
        seq.emplace_back(decltype(wtag)::value, i);
    });
    return seq;
}

template <int W> void expect_halving_tails() {
    for (int n = 0; n <= 40; ++n) {
        // Whole W-wide blocks, then at most one block each of W/2, ..., 2,
        // then single cells: the tail never drops straight to width 1.
        std::vector<std::pair<int, int>> want;
        int i = 0;
        for (; i + W <= n; i += W) want.emplace_back(W, i);
        for (int bw = W / 2; bw >= 2; bw /= 2) {
            if (i + bw <= n) {
                want.emplace_back(bw, i);
                i += bw;
            }
        }
        for (; i < n; ++i) want.emplace_back(1, i);
        EXPECT_EQ(block_sequence<W>(n), want) << "W=" << W << " n=" << n;
    }
}

TEST(Simd, ForBlocksFinishesRowsWithHalvingBlocks) {
    expect_halving_tails<1>();
    expect_halving_tails<2>();
    expect_halving_tails<4>();
    expect_halving_tails<8>();
    using Seq = std::vector<std::pair<int, int>>;
    EXPECT_EQ(block_sequence<8>(15), (Seq{{8, 0}, {4, 8}, {2, 12}, {1, 14}}));
    // A std92 x-pencil's 94 WENO slots (11 x 8, 4, 2) and 93 faces
    // (11 x 8, 4, 1) at W = 8.
    const Seq slots = block_sequence<8>(94);
    const Seq faces = block_sequence<8>(93);
    EXPECT_EQ(Seq(slots.end() - 3, slots.end()), (Seq{{8, 80}, {4, 88}, {2, 92}}));
    EXPECT_EQ(Seq(faces.end() - 3, faces.end()), (Seq{{8, 80}, {4, 88}, {1, 92}}));
    EXPECT_EQ(block_sequence<4>(7), (Seq{{4, 0}, {2, 4}, {1, 6}}));
}

// ---------------------------------------------------------------------------
// End-to-end parity: the full solver must produce bitwise-identical state
// at every simd width, for every vectorized code path (component-wise
// WENO JS/M/Z at orders 3 and 5, both Riemann solvers, all three models,
// the viscous sweep, and the IGR path with its Jacobi elliptic solve).
// ---------------------------------------------------------------------------

std::vector<double> final_state(const CaseConfig& config, int width) {
    simd::set_width(width);
    Simulation sim(config);
    sim.initialize();
    sim.run();
    std::vector<double> out;
    for (int q = 0; q < sim.state().num_eqns(); ++q) {
        const auto& raw = sim.state().eq(q).raw();
        out.insert(out.end(), raw.begin(), raw.end());
    }
    return out;
}

void expect_width_parity(const CaseConfig& config) {
    const int prev = simd::width();
    const std::vector<double> scalar = final_state(config, 1);
    ASSERT_FALSE(scalar.empty());
    for (const int w : {2, 4, 8}) {
        const std::vector<double> vec = final_state(config, w);
        ASSERT_EQ(vec.size(), scalar.size());
        EXPECT_EQ(std::memcmp(scalar.data(), vec.data(),
                              scalar.size() * sizeof(double)),
                  0)
            << "width " << w << " diverges from scalar";
    }
    simd::set_width(prev);
}

CaseConfig parity_case() {
    return standardized_benchmark_case(/*cells_per_dim=*/10,
                                       /*t_step_stop=*/3);
}

TEST(SimdParity, FiveEqnWeno5JsHllc) { expect_width_parity(parity_case()); }

TEST(SimdParity, WenoVariantM) {
    CaseConfig c = parity_case();
    c.weno_variant = WenoVariant::M;
    c.validate();
    expect_width_parity(c);
}

TEST(SimdParity, WenoVariantZ) {
    CaseConfig c = parity_case();
    c.weno_variant = WenoVariant::Z;
    c.validate();
    expect_width_parity(c);
}

TEST(SimdParity, Weno3Hll) {
    CaseConfig c = parity_case();
    c.weno_order = 3;
    c.riemann_solver = RiemannSolverKind::HLL;
    c.validate();
    expect_width_parity(c);
}

TEST(SimdParity, SixEquation) {
    CaseConfig c = parity_case();
    c.model = ModelKind::SixEquation;
    c.validate();
    expect_width_parity(c);
}

TEST(SimdParity, ViscousSweepStaysConsistent) {
    CaseConfig c = parity_case();
    c.viscous = true;
    c.viscosity = {1.0e-3, 2.0e-3};
    c.validate();
    expect_width_parity(c);
}

CaseConfig igr_case() {
    CaseConfig c = parity_case();
    c.igr.enabled = true;
    c.igr.order = 5;
    c.igr.alf_factor = 10.0;
    c.igr.num_iters = 4;
    c.igr.num_warm_start_iters = 4;
    c.igr.iter_solver = 1;
    c.validate();
    return c;
}

TEST(SimdParity, IgrJacobi) { expect_width_parity(igr_case()); }

/// `c` on a block of `cells`. An x extent of 15 runs the y/z sweeps'
/// lanes across pencils as 8 + 4 + 2 + 1 at W = 8, and distinct y and z
/// extents keep a swapped transverse index from going unnoticed.
CaseConfig on_block(CaseConfig c, Extents cells) {
    c.grid.cells = cells;
    c.validate();
    return c;
}

TEST(SimdParity, AnisotropicBlock) {
    expect_width_parity(on_block(parity_case(), Extents{15, 7, 6}));
    expect_width_parity(on_block(igr_case(), Extents{15, 7, 6}));
}

TEST(SimdParity, TwoDimensionalXY) {
    expect_width_parity(on_block(parity_case(), Extents{15, 9, 1}));
}

} // namespace
} // namespace mfc
