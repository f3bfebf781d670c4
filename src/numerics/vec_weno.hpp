#pragma once

#include <cstddef>

#include "numerics/weno.hpp"
#include "simd/simd.hpp"

/// WENO reconstruction of cell-edge values from cell averages, applied
/// component-wise to primitive variables as in MFC, W cells at once.
/// Supported orders: 1 (piecewise constant), 3, and 5 — MFC's
/// weno_order = 1|3|5; `eps` is the smoothness-indicator regularization
/// (MFC's weno_eps). Lanes map 1:1 to cells and the data-dependent WENO-Z
/// tau branch is a select, so every lane evaluates the same expression
/// tree and the result of a cell does not depend on W or on which cells
/// share a vector.
namespace mfc {

namespace detail {

/// Henrick-Aslam-Powers weight map g_d(w), applied per candidate then
/// renormalized. `d` is the ideal weight.
template <int W>
inline simd::vd<W> weno_map_v(simd::vd<W> w, double d) {
    using V = simd::vd<W>;
    const V num = w * (V(d + d * d) - V(3.0 * d) * w + w * w);
    const V den = V(d * d) + w * V(1.0 - 2.0 * d);
    return num / den;
}

/// Combine K candidate values with variant-dependent nonlinear weights.
/// `ideal` and `beta` are the ideal weights and smoothness indicators;
/// `tau` is the WENO-Z global indicator (unused for JS/M). Always inlined,
/// so the two edges of a cell share the divide they have in common (the
/// middle JS weight) in every build type.
template <int W, int K>
[[gnu::always_inline]] inline simd::vd<W>
combine_v(const simd::vd<W> (&q)[K], const double (&ideal)[K],
          const simd::vd<W> (&beta)[K], double eps, simd::vd<W> tau,
          WenoVariant variant) {
    using V = simd::vd<W>;
    V a[K];
    switch (variant) {
    case WenoVariant::JS:
    case WenoVariant::M:
        for (int i = 0; i < K; ++i)
            a[i] = V(ideal[i]) / ((V(eps) + beta[i]) * (V(eps) + beta[i]));
        break;
    case WenoVariant::Z:
        for (int i = 0; i < K; ++i)
            a[i] = V(ideal[i]) * (V(1.0) + tau / (beta[i] + V(eps)));
        break;
    default:
        MFC_ASSERT(false);
    }
    V sum = 0.0;
    for (int i = 0; i < K; ++i) sum += a[i];
    if (variant == WenoVariant::M) {
        // Normalize the JS weights, map, and renormalize.
        V mapped_sum = 0.0;
        for (int i = 0; i < K; ++i) {
            a[i] = weno_map_v<W>(a[i] / sum, ideal[i]);
            mapped_sum += a[i];
        }
        sum = mapped_sum;
    }
    V out = 0.0;
    for (int i = 0; i < K; ++i) out += a[i] * q[i];
    return out / sum;
}

} // namespace detail

/// Reconstruct the two edge values of W cells whose centers sit at
/// v[0 .. W-1] (lanes are unit-stride in memory) and whose stencil
/// neighbours along the reconstruction axis sit `stride` doubles apart:
/// `left` approximates the row at the cell's left face (x_{i-1/2}+) and
/// `right` at its right face (x_{i+1/2}-). Lane l reads
/// v[l + k * stride] for k in [-r, r], r = (order-1)/2. Stride 1 runs the
/// lanes along the reconstruction axis (consecutive cells of one pencil);
/// a field stride runs them across adjacent pencils. The per-lane
/// expression tree is the same either way.
template <int W>
inline void weno_edges_v(const double* v, int order, double eps,
                         simd::vd<W>& left, simd::vd<W>& right,
                         WenoVariant variant = WenoVariant::JS,
                         std::ptrdiff_t stride = 1) {
    using V = simd::vd<W>;
    switch (order) {
    case 1: {
        const V v0 = V::load(v);
        left = v0;
        right = v0;
        return;
    }
    case 3: {
        const V vm1 = V::load(v - stride);
        const V v0 = V::load(v);
        const V v1 = V::load(v + stride);
        const V beta[2] = {(v0 - vm1) * (v0 - vm1), (v1 - v0) * (v1 - v0)};
        const V tau = variant == WenoVariant::Z
                          ? simd::select(beta[0] > beta[1], beta[0] - beta[1],
                                         beta[1] - beta[0])
                          : V(0.0);
        {
            const V q[2] = {V(-0.5) * vm1 + V(1.5) * v0,
                            V(0.5) * v0 + V(0.5) * v1};
            const double ideal[2] = {1.0 / 3.0, 2.0 / 3.0};
            right = detail::combine_v<W, 2>(q, ideal, beta, eps, tau, variant);
        }
        {
            const V q[2] = {V(-0.5) * v1 + V(1.5) * v0,
                            V(0.5) * v0 + V(0.5) * vm1};
            const double ideal[2] = {1.0 / 3.0, 2.0 / 3.0};
            const V beta_m[2] = {beta[1], beta[0]};
            left = detail::combine_v<W, 2>(q, ideal, beta_m, eps, tau, variant);
        }
        return;
    }
    case 5: {
        const V vm2 = V::load(v - 2 * stride);
        const V vm1 = V::load(v - stride);
        const V v0 = V::load(v);
        const V v1 = V::load(v + stride);
        const V v2 = V::load(v + 2 * stride);
        const V d0 = vm2 - V(2.0) * vm1 + v0;
        const V d1 = vm1 - V(2.0) * v0 + v1;
        const V d2 = v0 - V(2.0) * v1 + v2;
        const V beta[3] = {
            V(13.0 / 12.0) * d0 * d0 + V(0.25) * (vm2 - V(4.0) * vm1 + V(3.0) * v0) *
                                           (vm2 - V(4.0) * vm1 + V(3.0) * v0),
            V(13.0 / 12.0) * d1 * d1 + V(0.25) * (vm1 - v1) * (vm1 - v1),
            V(13.0 / 12.0) * d2 * d2 + V(0.25) * (V(3.0) * v0 - V(4.0) * v1 + v2) *
                                           (V(3.0) * v0 - V(4.0) * v1 + v2)};
        // WENO-Z global indicator tau5 = |beta0 - beta2|.
        const V tau = variant == WenoVariant::Z
                          ? simd::select(beta[0] > beta[2], beta[0] - beta[2],
                                         beta[2] - beta[0])
                          : V(0.0);
        // The six candidate polynomials divide by the constant 6 without
        // the divider, bit for bit (simd::div_exact).
        // Right edge (x_{i+1/2}-): ideal weights (0.1, 0.6, 0.3).
        {
            const V q[3] = {
                simd::div_exact<6>(V(2.0) * vm2 - V(7.0) * vm1 + V(11.0) * v0),
                simd::div_exact<6>(-vm1 + V(5.0) * v0 + V(2.0) * v1),
                simd::div_exact<6>(V(2.0) * v0 + V(5.0) * v1 - v2)};
            const double ideal[3] = {0.1, 0.6, 0.3};
            right = detail::combine_v<W, 3>(q, ideal, beta, eps, tau, variant);
        }
        // Left edge (x_{i-1/2}+): mirrored stencils and indicators.
        {
            const V q[3] = {
                simd::div_exact<6>(V(2.0) * v2 - V(7.0) * v1 + V(11.0) * v0),
                simd::div_exact<6>(-v1 + V(5.0) * v0 + V(2.0) * vm1),
                simd::div_exact<6>(V(2.0) * v0 + V(5.0) * vm1 - vm2)};
            const double ideal[3] = {0.1, 0.6, 0.3};
            const V beta_m[3] = {beta[2], beta[1], beta[0]};
            left = detail::combine_v<W, 3>(q, ideal, beta_m, eps, tau, variant);
        }
        return;
    }
    default:
        MFC_ASSERT(false);
    }
}

} // namespace mfc
