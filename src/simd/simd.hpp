#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

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
///  - vsqrt applies std::sqrt per lane.
///  - select(m,a,b) picks a where m is true, b elsewhere, with no
///    arithmetic on the discarded lane beyond what was already computed.
///
/// ISA level. On x86-64 the solver libraries are compiled for the build
/// host (-march=native, src/CMakeLists.txt) and always with
/// -ffp-contract=off, so an AVX2 or AVX-512 build executes the same IEEE
/// operations as a baseline SSE2 build and produces the same bits.
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

template <int W> [[nodiscard]] inline bool any(vmask<W> m) {
    bool r = false;
    for (int i = 0; i < W; ++i) { r = r || (m.m[i] != 0); }
    return r;
}

template <int W> [[nodiscard]] inline bool all(vmask<W> m) {
    bool r = true;
    for (int i = 0; i < W; ++i) { r = r && (m.m[i] != 0); }
    return r;
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

/// std::fabs per lane (sign bit cleared; -0.0 -> +0.0).
template <int W> [[nodiscard]] inline vd<W> vabs(vd<W> a) {
    double t[W];
    a.store(t);
    for (int i = 0; i < W; ++i) { t[i] = std::fabs(t[i]); }
    return vd<W>::load(t);
}
template <> [[nodiscard]] inline vd<1> vabs(vd<1> a) { return {std::fabs(a.v)}; }

/// std::sqrt per lane.
template <int W> [[nodiscard]] inline vd<W> vsqrt(vd<W> a) {
    double t[W];
    a.store(t);
    for (int i = 0; i < W; ++i) { t[i] = std::sqrt(t[i]); }
    return vd<W>::load(t);
}
template <> [[nodiscard]] inline vd<1> vsqrt(vd<1> a) { return {std::sqrt(a.v)}; }

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
