#pragma once

// Lane-level checks for the width-templated kernels. A property test
// evaluates its kernel at W = 1, and the helpers below evaluate it again
// at W = 4 with a different input in every lane, expecting each lane to
// equal its own W = 1 result bitwise: the mask + select paths (WENO-Z
// tau, the Riemann upwind cases, positivity) must neither leak across
// lanes nor depend on what a neighbor lane holds.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "numerics/vec_riemann.hpp"
#include "numerics/vec_weno.hpp"
#include "physics/vec_kernels.hpp"
#include "simd/simd.hpp"

namespace mfc::lanes {

inline constexpr int kW = 4;
using Input = std::vector<double>;

inline void expect_same_bits(double wide, double one, int lane, int output) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(wide),
              std::bit_cast<std::uint64_t>(one))
        << "lane " << lane << " output " << output << ": " << wide << " vs "
        << one;
}

/// `kernel(wtag, in, out)` reads in[0, inputs[l].size()) and writes
/// out[0, n_out) at width decltype(wtag)::value. Runs each input at W = 1,
/// then all of them at W = 4 (input l in lane l), and expects every lane
/// to match bitwise. Returns the W = 1 outputs of inputs[0].
template <class Kernel>
Input check(const std::array<Input, kW>& inputs, int n_out, Kernel&& kernel) {
    const std::size_t n_in = inputs[0].size();
    std::array<Input, kW> scalar;
    for (int l = 0; l < kW; ++l) {
        std::vector<simd::vd<1>> in(n_in);
        std::vector<simd::vd<1>> out(static_cast<std::size_t>(n_out));
        for (std::size_t i = 0; i < n_in; ++i) in[i] = inputs[l][i];
        kernel(std::integral_constant<int, 1>{}, in.data(), out.data());
        for (const simd::vd<1> o : out) scalar[l].push_back(o.v);
    }
    std::vector<simd::vd<kW>> in(n_in, 0.0);
    std::vector<simd::vd<kW>> out(static_cast<std::size_t>(n_out));
    for (std::size_t i = 0; i < n_in; ++i) {
        for (int l = 0; l < kW; ++l) in[i].set_lane(l, inputs[l][i]);
    }
    kernel(std::integral_constant<int, kW>{}, in.data(), out.data());
    for (int o = 0; o < n_out; ++o) {
        for (int l = 0; l < kW; ++l) {
            expect_same_bits(out[static_cast<std::size_t>(o)].lane(l),
                             scalar[l][static_cast<std::size_t>(o)], l, o);
        }
    }
    return scalar[0];
}

/// `state` in lane 0, then three variants with denser fluids, faster
/// flow (lane 3 usually supersonic), higher pressures, and volume
/// fractions pulled toward equal parts — a different state per lane.
inline std::array<Input, kW> states(const EquationLayout& lay,
                                    const Input& state) {
    std::array<Input, kW> out;
    out[0] = state;
    for (int l = 1; l < kW; ++l) {
        Input s = state;
        const double k = l;
        for (int f = 0; f < lay.num_fluids(); ++f) {
            s[lay.cont(f)] *= 1.0 + 0.25 * k;
        }
        for (int d = 0; d < lay.dims(); ++d) s[lay.mom(d)] += 0.7 * k;
        s[lay.energy()] *= 1.0 + 0.5 * k;
        for (int f = 0; f < lay.num_adv(); ++f) {
            s[lay.adv(f)] =
                (s[lay.adv(f)] + 0.1 * k) / (1.0 + 0.1 * k * lay.num_adv());
        }
        if (lay.model() == ModelKind::SixEquation) {
            for (int f = 0; f < lay.num_fluids(); ++f) {
                s[lay.internal_energy(f)] *= 1.0 + 0.5 * k;
            }
        }
        out[l] = std::move(s);
    }
    return out;
}

/// Lane k holds states(l)[k] followed by states(r)[k]: a different
/// left/right pair per lane.
inline std::array<Input, kW> pair_states(const EquationLayout& lay,
                                         const Input& l, const Input& r) {
    std::array<Input, kW> pairs = states(lay, l);
    const std::array<Input, kW> rs = states(lay, r);
    for (int k = 0; k < kW; ++k) {
        pairs[k].insert(pairs[k].end(), rs[k].begin(), rs[k].end());
    }
    return pairs;
}

/// Left and right edge values of the cell whose stencil is centered at
/// `v` (readable over [-r, r], r = (order-1)/2), lane-checked: the W = 4
/// row continues past the stencil with other data, so lane l
/// reconstructs the stencil shifted by l cells.
inline std::pair<double, double>
edges_checked(const double* v, int order, double eps,
              WenoVariant variant = WenoVariant::JS) {
    const int r = (order - 1) / 2;
    double row[2 * 2 + kW];
    for (int i = 0; i < 2 * r + kW; ++i) {
        row[i] = i <= 2 * r ? v[i - r] : 0.37 * i - 1.1 * (i % 3);
    }
    simd::vd<kW> left, right;
    weno_edges_v<kW>(row + r, order, eps, left, right, variant);
    std::pair<double, double> lane0;
    for (int l = 0; l < kW; ++l) {
        simd::vd<1> l1, r1;
        weno_edges_v<1>(row + r + l, order, eps, l1, r1, variant);
        expect_same_bits(left.lane(l), l1.v, l, 0);
        expect_same_bits(right.lane(l), r1.v, l, 1);
        if (l == 0) lane0 = {l1.v, r1.v};
    }
    return lane0;
}

/// Physical flux along `dir`, lane-checked.
inline Input flux_checked(const EquationLayout& lay,
                          const std::vector<StiffenedGas>& fluids,
                          const Input& prim, int dir) {
    return check(states(lay, prim), lay.num_eqns(),
                 [&](auto wtag, const auto* in, auto* o) {
                     physical_flux_v<decltype(wtag)::value>(lay, fluids, in,
                                                            dir, o);
                 });
}

/// Riemann flux (into `flux`) and face velocity (returned) between `l`
/// and `r`, lane-checked: every lane solves a different pair.
inline double riemann_checked(RiemannSolverKind kind,
                              const EquationLayout& lay,
                              const std::vector<StiffenedGas>& fluids,
                              const Input& l, const Input& r, int dir,
                              Input& flux) {
    const int n = lay.num_eqns();
    const Input out = check(pair_states(lay, l, r), n + 1,
                            [&](auto wtag, const auto* in, auto* o) {
        o[n] = solve_riemann_v<decltype(wtag)::value>(kind, lay, fluids, in,
                                                      in + n, dir, o);
    });
    flux.assign(out.begin(), out.begin() + n);
    return out[static_cast<std::size_t>(n)];
}

} // namespace mfc::lanes
