#pragma once

#include <vector>

#include "numerics/riemann.hpp"
#include "physics/vec_kernels.hpp"
#include "simd/simd.hpp"

/// HLL and HLLC approximate Riemann solvers, W faces at once. The upwind
/// cases (supersonic left / supersonic right / subsonic, and the HLLC
/// star-side pick) are mask + select, not branches: every lane computes
/// all candidate fluxes — including both HLLC star states — and selects
/// with the same predicates in the same order, so the selected lane's
/// expression tree, and thus its result, does not depend on W. Discarded
/// lanes may compute inf/NaN intermediates (e.g. the degenerate-contact
/// division); those lanes are never selected, IEEE element-wise ops do not
/// contaminate neighbors, and no floating-point exception traps are
/// enabled.
namespace mfc {

/// Davis wave-speed estimates: the left and right signal speeds and the
/// HLLC contact speed.
template <int W> struct WaveSpeedsV {
    vdw<W> sl, sr, s_star;
};

/// Wave speeds between primitive states `primL` and `primR` along `dir`.
/// Identical symmetric states make the contact denominator vanish; the
/// contact then sits midway (a select — the discarded lane divides by ~0
/// harmlessly).
template <int W>
[[nodiscard]] inline WaveSpeedsV<W>
estimate_wave_speeds_v(const EquationLayout& lay,
                       const std::vector<StiffenedGas>& fluids,
                       const vdw<W>* primL, const vdw<W>* primR, int dir) {
    using V = vdw<W>;
    const V rhoL = mixture_density_v<W>(lay, primL);
    const V rhoR = mixture_density_v<W>(lay, primR);
    const V uL = primL[lay.mom(dir)];
    const V uR = primR[lay.mom(dir)];
    const V pL = primL[lay.energy()];
    const V pR = primR[lay.energy()];
    const V cL = mixture_sound_speed_v<W>(lay, fluids, primL);
    const V cR = mixture_sound_speed_v<W>(lay, fluids, primR);

    WaveSpeedsV<W> w;
    w.sl = simd::vmin(uL - cL, uR - cR);
    w.sr = simd::vmax(uL + cL, uR + cR);
    const V den = rhoL * (w.sl - uL) - rhoR * (w.sr - uR);
    const V star =
        (pR - pL + rhoL * uL * (w.sl - uL) - rhoR * uR * (w.sr - uR)) / den;
    w.s_star = simd::select(simd::vabs(den) > V(1e-300), star,
                            V(0.5) * (uL + uR));
    return w;
}

namespace detail {

inline constexpr int kVecRiemannMaxEqns = 16;

/// HLLC star-region conservative state for side K (Toro), generalized to
/// multiple partial densities and passively advected fractions.
template <int W>
inline void star_state_v(const EquationLayout& lay, const vdw<W>* prim,
                         const vdw<W>* cons, vdw<W> sk, vdw<W> s_star, int dir,
                         vdw<W>* u_star) {
    using V = vdw<W>;
    const V rho = mixture_density_v<W>(lay, prim);
    const V u = prim[lay.mom(dir)];
    const V p = prim[lay.energy()];
    const V scale = (sk - u) / (sk - s_star);
    const V chi = rho * scale;

    for (int f = 0; f < lay.num_fluids(); ++f) {
        u_star[lay.cont(f)] = cons[lay.cont(f)] * scale;
    }
    for (int d = 0; d < lay.dims(); ++d) {
        u_star[lay.mom(d)] = chi * (d == dir ? s_star : prim[lay.mom(d)]);
    }
    const V e_total = cons[lay.energy()];
    u_star[lay.energy()] =
        chi * (e_total / rho + (s_star - u) * (s_star + p / (rho * (sk - u))));
    for (int f = 0; f < lay.num_adv(); ++f) {
        u_star[lay.adv(f)] = cons[lay.adv(f)] * scale;
    }
    if (lay.model() == ModelKind::SixEquation) {
        for (int f = 0; f < lay.num_fluids(); ++f) {
            u_star[lay.internal_energy(f)] = cons[lay.internal_energy(f)] * scale;
        }
    }
}

} // namespace detail

/// Solve the face Riemann problems between primitive states `primL` and
/// `primR` along direction `dir` for W faces. Writes the upwinded flux
/// for every equation into `flux` (num_eqns entries) and returns the
/// face-normal velocity used for the non-conservative alpha div(u) source
/// terms.
template <int W>
inline vdw<W> solve_riemann_v(RiemannSolverKind kind, const EquationLayout& lay,
                              const std::vector<StiffenedGas>& fluids,
                              const vdw<W>* primL, const vdw<W>* primR, int dir,
                              vdw<W>* flux) {
    using V = vdw<W>;
    constexpr int kMax = detail::kVecRiemannMaxEqns;
    const int n = lay.num_eqns();
    MFC_DBG_ASSERT(n <= kMax);

    V consL[kMax], consR[kMax];
    V fL[kMax], fR[kMax];
    prim_to_cons_v<W>(lay, fluids, primL, consL);
    prim_to_cons_v<W>(lay, fluids, primR, consR);
    physical_flux_v<W>(lay, fluids, primL, dir, fL);
    physical_flux_v<W>(lay, fluids, primR, dir, fR);

    const WaveSpeedsV<W> w = estimate_wave_speeds_v<W>(lay, fluids, primL,
                                                       primR, dir);
    const V uL = primL[lay.mom(dir)];
    const V uR = primR[lay.mom(dir)];
    const auto left_super = w.sl >= V(0.0);
    const auto right_super = w.sr <= V(0.0);

    if (kind == RiemannSolverKind::HLL) {
        const V inv = V(1.0) / (w.sr - w.sl);
        for (int q = 0; q < n; ++q) {
            const V hll = (w.sr * fL[q] - w.sl * fR[q] +
                           w.sl * w.sr * (consR[q] - consL[q])) *
                          inv;
            flux[q] = simd::select(left_super, fL[q],
                                   simd::select(right_super, fR[q], hll));
        }
        // HLL face velocity: wave-speed weighted average of the states.
        return simd::select(
            left_super, uL,
            simd::select(right_super, uR, (w.sr * uL - w.sl * uR) * inv));
    }

    // HLLC: both star states are evaluated, the star-side pick and the
    // supersonic early-outs become the select chain below.
    V u_starL[kMax], u_starR[kMax];
    detail::star_state_v<W>(lay, primL, consL, w.sl, w.s_star, dir, u_starL);
    detail::star_state_v<W>(lay, primR, consR, w.sr, w.s_star, dir, u_starR);
    const auto star_left = w.s_star >= V(0.0);
    for (int q = 0; q < n; ++q) {
        const V star = simd::select(star_left,
                                    fL[q] + w.sl * (u_starL[q] - consL[q]),
                                    fR[q] + w.sr * (u_starR[q] - consR[q]));
        flux[q] = simd::select(left_super, fL[q],
                               simd::select(right_super, fR[q], star));
    }
    return simd::select(left_super, uL,
                        simd::select(right_super, uR, w.s_star));
}

} // namespace mfc
