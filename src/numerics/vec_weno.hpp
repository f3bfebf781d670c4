#pragma once

#include "numerics/weno.hpp"
#include "simd/simd.hpp"

/// WENO reconstruction of cell-edge values from cell averages, applied
/// component-wise to primitive variables as in MFC, W consecutive cells at
/// once. Supported orders: 1 (piecewise constant), 3, and 5 — MFC's
/// weno_order = 1|3|5; `eps` is the smoothness-indicator regularization
/// (MFC's weno_eps). Lanes map 1:1 to cells and the data-dependent WENO-Z
/// tau branch is a select, so every lane evaluates the same expression
/// tree and the result of a cell does not depend on W.
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
/// `tau` is the WENO-Z global indicator (unused for JS/M).
template <int W, int K>
inline simd::vd<W> combine_v(const simd::vd<W> (&q)[K], const double (&ideal)[K],
                             const simd::vd<W> (&beta)[K], double eps,
                             simd::vd<W> tau, WenoVariant variant) {
    using V = simd::vd<W>;
    V a[K];
    V sum = 0.0;
    for (int i = 0; i < K; ++i) {
        switch (variant) {
        case WenoVariant::JS:
            a[i] = V(ideal[i]) / ((V(eps) + beta[i]) * (V(eps) + beta[i]));
            break;
        case WenoVariant::M:
            a[i] = V(ideal[i]) / ((V(eps) + beta[i]) * (V(eps) + beta[i]));
            break;
        case WenoVariant::Z:
            a[i] = V(ideal[i]) * (V(1.0) + tau / (beta[i] + V(eps)));
            break;
        }
        sum += a[i];
    }
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

/// Reconstruct the two edge values of W consecutive cells from the row
/// `v`, which points at lane 0's cell center: `left` approximates the row
/// at the cell's left face (x_{i-1/2}+) and `right` at its right face
/// (x_{i+1/2}-). Lane l reads the stencil v[l-r .. l+r], so `v` must be
/// readable over [-r, r + W - 1] with r = (order-1)/2.
template <int W>
inline void weno_edges_v(const double* v, int order, double eps,
                         simd::vd<W>& left, simd::vd<W>& right,
                         WenoVariant variant = WenoVariant::JS) {
    using V = simd::vd<W>;
    switch (order) {
    case 1: {
        const V v0 = V::load(v);
        left = v0;
        right = v0;
        return;
    }
    case 3: {
        const V vm1 = V::load(v - 1);
        const V v0 = V::load(v);
        const V v1 = V::load(v + 1);
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
        const V vm2 = V::load(v - 2);
        const V vm1 = V::load(v - 1);
        const V v0 = V::load(v);
        const V v1 = V::load(v + 1);
        const V v2 = V::load(v + 2);
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
        // Right edge (x_{i+1/2}-): ideal weights (0.1, 0.6, 0.3).
        {
            const V q[3] = {(V(2.0) * vm2 - V(7.0) * vm1 + V(11.0) * v0) / V(6.0),
                            (-vm1 + V(5.0) * v0 + V(2.0) * v1) / V(6.0),
                            (V(2.0) * v0 + V(5.0) * v1 - v2) / V(6.0)};
            const double ideal[3] = {0.1, 0.6, 0.3};
            right = detail::combine_v<W, 3>(q, ideal, beta, eps, tau, variant);
        }
        // Left edge (x_{i-1/2}+): mirrored stencils and indicators.
        {
            const V q[3] = {(V(2.0) * v2 - V(7.0) * v1 + V(11.0) * v0) / V(6.0),
                            (-v1 + V(5.0) * v0 + V(2.0) * vm1) / V(6.0),
                            (V(2.0) * v0 + V(5.0) * vm1 - vm2) / V(6.0)};
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
