#pragma once

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

#include "core/error.hpp"

#if !defined(__GNUC__) && !defined(__clang__)
#error "mfc::simd needs the GCC/Clang vector extensions"
#endif

/// Portable fixed-width SIMD layer.
///
/// `vd<W>` packs W doubles and maps lanes 1:1 onto consecutive cells of a
/// pencil row. Every operation is element-wise and executes the identical
/// expression tree a scalar loop would, so results are bitwise independent
/// of the width a kernel was compiled for: `vd<1>` *is* a plain double, and
/// wider vectors are GCC/Clang vector extensions. Data-dependent branches
/// are expressed as mask + select so there is no per-lane control flow.
///
/// Semantics contracts (relied on for golden-file byte identity):
///  - vmin(a,b)/vmax(a,b) match std::min/std::max: return b only when the
///    comparison (b<a resp. a<b) is true, else a.
///  - vabs clears the sign bit exactly like std::fabs (incl. -0.0 -> +0.0).
///  - vsqrt applies std::sqrt per lane (IEEE sqrt is correctly rounded).
///  - select(m,a,b) picks a where m is true, b elsewhere, with no
///    arithmetic on the discarded lane beyond what was already computed.
///  - div_exact<D>(x), D = 6 or 12, returns the correctly rounded x / D,
///    bit for bit, from one multiply and two FMAs (Markstein's theorem;
///    the proof sketch is at its definition). Lanes outside the proven
///    range take x / D.
/// vabs, vsqrt, any and all are one full-width instruction per native
/// register at the compiled ISA level; the lane loops are the portable
/// fallback for other targets.
///
/// ISA level. On x86-64 the solver libraries are compiled for the build
/// host (-march=native, src/CMakeLists.txt) and always with
/// -ffp-contract=off, so an AVX2 or AVX-512 build executes the same IEEE
/// operations as a baseline SSE2 build and produces the same bits.
/// Explicit FMA appears only inside div_exact, whose result is the
/// correctly rounded quotient, so the bits hold there too.
namespace mfc::simd {

/// Arena/row-buffer alignment contract: allocations the vector kernels
/// stream through are aligned to this many bytes (one full cache line,
/// enough for 512-bit vectors).
inline constexpr std::size_t kByteAlign = 64;

[[nodiscard]] inline bool is_aligned(const void* p,
                                     std::size_t align = kByteAlign) {
    return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

/// Widths the runtime dispatcher accepts.
inline constexpr int kMaxWidth = 8;

[[nodiscard]] bool width_allowed(int w);

/// Current dispatch width for the vectorized solver paths. Defaults to 8
/// in an AVX-512 build and 4 otherwise, and may be overridden by the
/// MFC_SIMD_WIDTH environment variable or set_width(). Width 1 selects
/// the scalar path everywhere.
[[nodiscard]] int width();

/// Set the dispatch width; must be one of 1, 2, 4, 8.
void set_width(int w);

/// The x86-64 level the solver libraries were compiled for ("x86-64",
/// "x86-64-v3" with AVX2/FMA, "x86-64-v4" with AVX-512; "portable" off
/// x86-64) and the current width, e.g. "x86-64-v4 W=8": the `isa:`
/// provenance field of ubench, bench and profile output.
[[nodiscard]] std::string isa_label();

/// Doubles per vector register at the compiled level: 8 with AVX-512, 4
/// with AVX, 2 otherwise.
[[nodiscard]] int register_lanes();

namespace detail {

template <int W> struct native;
template <> struct native<2> {
    typedef double vec __attribute__((vector_size(16)));
    typedef long long mask __attribute__((vector_size(16)));
};
template <> struct native<4> {
    typedef double vec __attribute__((vector_size(32)));
    typedef long long mask __attribute__((vector_size(32)));
};
template <> struct native<8> {
    typedef double vec __attribute__((vector_size(64)));
    typedef long long mask __attribute__((vector_size(64)));
};

} // namespace detail

/// Boolean lane mask: all-ones / all-zero 64-bit lanes, as produced by
/// vector comparisons.
template <int W> struct vmask {
    typename detail::native<W>::mask m;

    friend vmask operator&&(vmask a, vmask b) { return {a.m & b.m}; }
    friend vmask operator||(vmask a, vmask b) { return {a.m | b.m}; }
    friend vmask operator!(vmask a) { return {~a.m}; }

    [[nodiscard]] bool lane(int i) const { return m[i] != 0; }
};

namespace detail {

/// Bit i set when lane i of the mask is true: one movemask / test
/// instruction per native register.
inline unsigned lane_bits(native<2>::mask m) {
#if defined(__SSE2__)
    return static_cast<unsigned>(_mm_movemask_pd(std::bit_cast<__m128d>(m)));
#else
    return (m[0] != 0 ? 1u : 0u) | (m[1] != 0 ? 2u : 0u);
#endif
}
inline unsigned lane_bits(native<4>::mask m) {
#if defined(__AVX__)
    return static_cast<unsigned>(_mm256_movemask_pd(std::bit_cast<__m256d>(m)));
#else
    return lane_bits(native<2>::mask{m[0], m[1]}) |
           lane_bits(native<2>::mask{m[2], m[3]}) << 2;
#endif
}
inline unsigned lane_bits(native<8>::mask m) {
#if defined(__AVX512F__)
    return _mm512_test_epi64_mask(m, m);
#else
    return lane_bits(native<4>::mask{m[0], m[1], m[2], m[3]}) |
           lane_bits(native<4>::mask{m[4], m[5], m[6], m[7]}) << 4;
#endif
}

} // namespace detail

template <int W> [[nodiscard]] inline bool any(vmask<W> m) {
    return detail::lane_bits(m.m) != 0;
}

template <int W> [[nodiscard]] inline bool all(vmask<W> m) {
    return detail::lane_bits(m.m) == (1u << W) - 1;
}

/// W packed doubles; lanes map to consecutive row cells.
template <int W> struct vd {
    using native_t = typename detail::native<W>::vec;
    native_t v;

    static constexpr int width = W;

    vd() = default;
    vd(native_t n) : v(n) {}
    /// Broadcast: every lane holds the scalar.
    vd(double s) : v(s - native_t{}) {}

    [[nodiscard]] static vd load(const double* p) {
        vd r;
        std::memcpy(&r.v, p, sizeof(native_t));
        return r;
    }
    void store(double* p) const { std::memcpy(p, &v, sizeof(native_t)); }

    [[nodiscard]] double lane(int i) const { return v[i]; }
    void set_lane(int i, double s) { v[i] = s; }

    friend vd operator+(vd a, vd b) { return {a.v + b.v}; }
    friend vd operator-(vd a, vd b) { return {a.v - b.v}; }
    friend vd operator*(vd a, vd b) { return {a.v * b.v}; }
    friend vd operator/(vd a, vd b) { return {a.v / b.v}; }
    friend vd operator-(vd a) { return {-a.v}; }

    vd& operator+=(vd o) { v += o.v; return *this; }
    vd& operator-=(vd o) { v -= o.v; return *this; }
    vd& operator*=(vd o) { v *= o.v; return *this; }
    vd& operator/=(vd o) { v /= o.v; return *this; }

    friend vmask<W> operator<(vd a, vd b) { return {a.v < b.v}; }
    friend vmask<W> operator<=(vd a, vd b) { return {a.v <= b.v}; }
    friend vmask<W> operator>(vd a, vd b) { return {a.v > b.v}; }
    friend vmask<W> operator>=(vd a, vd b) { return {a.v >= b.v}; }
    friend vmask<W> operator==(vd a, vd b) { return {a.v == b.v}; }
};

/// a where m, b elsewhere.
template <int W> [[nodiscard]] inline vd<W> select(vmask<W> m, vd<W> a, vd<W> b) {
    return {m.m ? a.v : b.v};
}

/// Scalar specialization: the fallback path is literally scalar code, so
/// W=1 kernels execute the exact instructions the pre-SIMD solver did.
template <> struct vd<1> {
    double v;

    static constexpr int width = 1;

    vd() = default;
    vd(double s) : v(s) {}

    [[nodiscard]] static vd load(const double* p) { return {*p}; }
    void store(double* p) const { *p = v; }

    [[nodiscard]] double lane(int) const { return v; }
    void set_lane(int, double s) { v = s; }

    friend vd operator+(vd a, vd b) { return {a.v + b.v}; }
    friend vd operator-(vd a, vd b) { return {a.v - b.v}; }
    friend vd operator*(vd a, vd b) { return {a.v * b.v}; }
    friend vd operator/(vd a, vd b) { return {a.v / b.v}; }
    friend vd operator-(vd a) { return {-a.v}; }

    vd& operator+=(vd o) { v += o.v; return *this; }
    vd& operator-=(vd o) { v -= o.v; return *this; }
    vd& operator*=(vd o) { v *= o.v; return *this; }
    vd& operator/=(vd o) { v /= o.v; return *this; }

    friend vmask<1> operator<(vd a, vd b);
    friend vmask<1> operator<=(vd a, vd b);
    friend vmask<1> operator>(vd a, vd b);
    friend vmask<1> operator>=(vd a, vd b);
    friend vmask<1> operator==(vd a, vd b);
};

template <> struct vmask<1> {
    bool m;

    friend vmask operator&&(vmask a, vmask b) { return {a.m && b.m}; }
    friend vmask operator||(vmask a, vmask b) { return {a.m || b.m}; }
    friend vmask operator!(vmask a) { return {!a.m}; }

    [[nodiscard]] bool lane(int) const { return m; }
};

inline vmask<1> operator<(vd<1> a, vd<1> b) { return {a.v < b.v}; }
inline vmask<1> operator<=(vd<1> a, vd<1> b) { return {a.v <= b.v}; }
inline vmask<1> operator>(vd<1> a, vd<1> b) { return {a.v > b.v}; }
inline vmask<1> operator>=(vd<1> a, vd<1> b) { return {a.v >= b.v}; }
inline vmask<1> operator==(vd<1> a, vd<1> b) { return {a.v == b.v}; }

[[nodiscard]] inline bool any(vmask<1> m) { return m.m; }
[[nodiscard]] inline bool all(vmask<1> m) { return m.m; }

template <> [[nodiscard]] inline vd<1> select(vmask<1> m, vd<1> a, vd<1> b) {
    return {m.m ? a.v : b.v};
}

/// std::min semantics: b<a picks b, ties and NaN-in-b pick a.
template <int W> [[nodiscard]] inline vd<W> vmin(vd<W> a, vd<W> b) {
    return select(b < a, b, a);
}

/// std::max semantics: a<b picks b, ties and NaN-in-b pick a.
template <int W> [[nodiscard]] inline vd<W> vmax(vd<W> a, vd<W> b) {
    return select(a < b, b, a);
}

/// std::fabs per lane: one AND that clears the sign bit (-0.0 -> +0.0,
/// NaN payloads kept).
template <int W> [[nodiscard]] inline vd<W> vabs(vd<W> a) {
    using mask_t = typename detail::native<W>::mask;
    using vec_t = typename detail::native<W>::vec;
    return {std::bit_cast<vec_t>(std::bit_cast<mask_t>(a.v) &
                                 0x7fffffffffffffffLL)};
}
template <> [[nodiscard]] inline vd<1> vabs(vd<1> a) { return {std::fabs(a.v)}; }

namespace detail {

inline native<2>::vec sqrt(native<2>::vec a) {
#if defined(__SSE2__)
    return _mm_sqrt_pd(a);
#else
    return native<2>::vec{std::sqrt(a[0]), std::sqrt(a[1])};
#endif
}
inline native<4>::vec sqrt(native<4>::vec a) {
#if defined(__AVX__)
    return _mm256_sqrt_pd(a);
#else
    const native<2>::vec lo = sqrt(native<2>::vec{a[0], a[1]});
    const native<2>::vec hi = sqrt(native<2>::vec{a[2], a[3]});
    return native<4>::vec{lo[0], lo[1], hi[0], hi[1]};
#endif
}
inline native<8>::vec sqrt(native<8>::vec a) {
#if defined(__AVX512F__)
    // The all-lanes masked form: the same vsqrtpd as _mm512_sqrt_pd,
    // whose undefined pass-through operand GCC 12 reports as used
    // uninitialized.
    return _mm512_mask_sqrt_pd(a, 0xff, a);
#else
    const native<4>::vec lo = sqrt(native<4>::vec{a[0], a[1], a[2], a[3]});
    const native<4>::vec hi = sqrt(native<4>::vec{a[4], a[5], a[6], a[7]});
    return native<8>::vec{lo[0], lo[1], lo[2], lo[3],
                          hi[0], hi[1], hi[2], hi[3]};
#endif
}

} // namespace detail

/// std::sqrt per lane.
template <int W> [[nodiscard]] inline vd<W> vsqrt(vd<W> a) {
    return {detail::sqrt(a.v)};
}
template <> [[nodiscard]] inline vd<1> vsqrt(vd<1> a) { return {std::sqrt(a.v)}; }

#if defined(__FP_FAST_FMA)
namespace detail {

// Fused a*b + c, one rounding. Only div_exact uses it: everywhere else
// the kernels keep -ffp-contract=off's separately rounded multiply-add.
inline native<2>::vec fma(native<2>::vec a, native<2>::vec b,
                          native<2>::vec c) {
#if defined(__FMA__)
    return _mm_fmadd_pd(a, b, c);
#else
    return native<2>::vec{std::fma(a[0], b[0], c[0]),
                          std::fma(a[1], b[1], c[1])};
#endif
}
inline native<4>::vec fma(native<4>::vec a, native<4>::vec b,
                          native<4>::vec c) {
#if defined(__FMA__)
    return _mm256_fmadd_pd(a, b, c);
#else
    const native<2>::vec lo = fma(native<2>::vec{a[0], a[1]},
                                  native<2>::vec{b[0], b[1]},
                                  native<2>::vec{c[0], c[1]});
    const native<2>::vec hi = fma(native<2>::vec{a[2], a[3]},
                                  native<2>::vec{b[2], b[3]},
                                  native<2>::vec{c[2], c[3]});
    return native<4>::vec{lo[0], lo[1], hi[0], hi[1]};
#endif
}
inline native<8>::vec fma(native<8>::vec a, native<8>::vec b,
                          native<8>::vec c) {
#if defined(__AVX512F__)
    return _mm512_fmadd_pd(a, b, c);
#else
    const native<4>::vec lo = fma(native<4>::vec{a[0], a[1], a[2], a[3]},
                                  native<4>::vec{b[0], b[1], b[2], b[3]},
                                  native<4>::vec{c[0], c[1], c[2], c[3]});
    const native<4>::vec hi = fma(native<4>::vec{a[4], a[5], a[6], a[7]},
                                  native<4>::vec{b[4], b[5], b[6], b[7]},
                                  native<4>::vec{c[4], c[5], c[6], c[7]});
    return native<8>::vec{lo[0], lo[1], lo[2], lo[3],
                          hi[0], hi[1], hi[2], hi[3]};
#endif
}
template <int W> inline vd<W> fma(vd<W> a, vd<W> b, vd<W> c) {
    return {fma(a.v, b.v, c.v)};
}
template <> inline vd<1> fma(vd<1> a, vd<1> b, vd<1> c) {
    return {std::fma(a.v, b.v, c.v)};
}

} // namespace detail
#endif

/// Smallest |x| div_exact takes through its FMA path (see below).
inline constexpr double kDivExactMin = 0x1p-1018;

/// x / D, correctly rounded (bit-identical to the IEEE divide), for the
/// stencil constants D = 6 and 12, without the divider:
///     q0 = x*y,  r = fma(-q0, D, x),  q1 = fma(r, y, q0),  y = RN(1/D).
/// Proof sketch. 1/3 = 0.010101...b, so y = RN(1/D) drops a tail of a
/// third of an ulp: y = (1/D)(1 - 2^-54), within half an ulp of 1/D.
/// Hence |x*y - x/D| = |x/D| 2^-54 < ulp(x/D)/2, and q0 = RN(x*y) lies
/// within one ulp of x/D. By Markstein's theorem (IBM J. Res. Dev.
/// 34(1), 1990; y within half an ulp of 1/D, q0 within one ulp of x/D)
/// the remainder r = x - D*q0 is a double, so the first FMA is exact,
/// and q1 = RN(q0 + r*y) = RN(x/D). x/D is never a rounding tie: a
/// quotient with a finite binary expansion needs 3 | x's integer
/// significand and then has at most 52 significant bits.
/// Range. The argument needs q0 normal: |x| >= kDivExactMin = 2^-1018
/// keeps |x/D| >= 2^-1018/12 > 2^-1022 for both constants (r may be
/// subnormal: it is a multiple of ulp(q0) >= 2^-1074, so it stays
/// exact). Below that the subnormal grid does make ties (9 * 2^-1074 / 6
/// rounds to even), and q1 can miss them. At the top, |x| <= DBL_MAX
/// cannot overflow: y < 1, and D*q0 is never rounded inside the FMA.
/// Lanes outside [2^-1018, DBL_MAX] in magnitude take x / D behind a
/// branch, so the divider runs only for a block that holds a tiny or
/// subnormal x, +-inf or NaN. +-0 returns q0 = +-0, which keeps the sign
/// (q1 would turn -0 into +0). Builds without fast FMA (__FP_FAST_FMA
/// undefined) compile the plain divide. Use it only for these constants:
/// for a runtime divisor q0 need not lie within one ulp.
template <int D, int W> [[nodiscard]] inline vd<W> div_exact(vd<W> x) {
    static_assert(D == 6 || D == 12, "div_exact is proven for 6 and 12");
    using V = vd<W>;
#if defined(__FP_FAST_FMA)
    constexpr double y = 1.0 / D;
    const V q0 = x * V(y);
    const V r = detail::fma(-q0, V(static_cast<double>(D)), x);
    const V q1 = detail::fma(r, V(y), q0);
    const V ax = vabs(x);
    const vmask<W> proven = ax >= V(kDivExactMin) && ax <= V(DBL_MAX);
    const vmask<W> done = proven || x == V(0.0);
    const V q = select(proven, q1, q0);
    if (all(done)) [[likely]] return q;
    return select(done, q, x / V(static_cast<double>(D)));
#else
    return x / V(static_cast<double>(D));
#endif
}

namespace detail {

/// The tail of a row after its W-wide blocks: at most one block each of
/// BW = W/2, ..., 2, then single cells.
template <int BW, class Block> inline void for_tail(int i, int n, Block& block) {
    if constexpr (BW == 1) {
        for (; i < n; ++i) block(std::integral_constant<int, 1>{}, i);
    } else {
        if (i + BW <= n) {
            block(std::integral_constant<int, BW>{}, i);
            i += BW;
        }
        for_tail<BW / 2>(i, n, block);
    }
}

} // namespace detail

/// Run block(integral_constant<int, BW>, i) over the cells [0, n) of a
/// row: whole W-wide blocks first, then the remainder in halving blocks
/// (n = 15 at W = 8 runs 8@0, 4@8, 2@12, 1@14) through the same template
/// — identical per-cell math at every BW, so the result does not depend
/// on W.
template <int W, class Block> inline void for_blocks(int n, Block&& block) {
    int i = 0;
    for (; i + W <= n; i += W) block(std::integral_constant<int, W>{}, i);
    detail::for_tail<W / 2 == 0 ? 1 : W / 2>(i, n, block);
}

/// Invoke fn with an integral_constant<int, W> for the current dispatch
/// width. Kernels call this once per sweep:
///   simd::dispatch([&](auto wc) { sweep<wc()>(...); });
template <class Fn> decltype(auto) dispatch(Fn&& fn) {
    switch (width()) {
    case 8: return fn(std::integral_constant<int, 8>{});
    case 4: return fn(std::integral_constant<int, 4>{});
    case 2: return fn(std::integral_constant<int, 2>{});
    default: return fn(std::integral_constant<int, 1>{});
    }
}

} // namespace mfc::simd
