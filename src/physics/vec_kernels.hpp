#pragma once

#include <vector>

#include "physics/model.hpp"
#include "simd/simd.hpp"

/// The per-cell physics kernels — mixture closure, prim <-> cons
/// conversion, sound speed, physical flux — operating on W cells at once.
/// Lanes map 1:1 to consecutive row cells and every lane evaluates the same
/// expression tree (simd::vmin/vmax keep std::min/max semantics), so a
/// cell's result does not depend on W. The scalar entry points in
/// model.hpp are W = 1 adapters over these templates.
///
/// States are passed as arrays of vd<W> indexed by equation (an SoA cell
/// block): state[q].lane(l) is equation q of cell l.
namespace mfc {

template <int W> using vdw = simd::vd<W>;

/// Mixture closure over W cells, from per-fluid EOS and volume fractions
/// alpha_i (see StiffenedGas for the mixture rules).
template <int W> struct MixtureV {
    vdw<W> big_g = 0.0;  ///< sum alpha_i G_i
    vdw<W> big_pi = 0.0; ///< sum alpha_i Pi_i

    /// Effective mixture gamma and pi_inf recovered from (G, Pi).
    [[nodiscard]] vdw<W> gamma() const { return vdw<W>(1.0) + vdw<W>(1.0) / big_g; }
    [[nodiscard]] vdw<W> pi_inf() const { return big_pi / (vdw<W>(1.0) + big_g); }
    [[nodiscard]] vdw<W> pressure(vdw<W> rho_e) const {
        return (rho_e - big_pi) / big_g;
    }
    [[nodiscard]] vdw<W> energy(vdw<W> p) const { return big_g * p + big_pi; }
    /// Frozen mixture sound speed.
    [[nodiscard]] vdw<W> sound_speed(vdw<W> rho, vdw<W> p) const {
        const vdw<W> c2 = gamma() * (p + pi_inf()) / rho;
        return simd::vsqrt(c2);
    }
};

/// Mixture closure of a state (primitive or conservative: both carry the
/// volume fractions at adv(i); alpha = 1 for Euler), accumulated
/// alpha-weighted in fluid order.
template <int W>
[[nodiscard]] inline MixtureV<W> mixture_at_v(const EquationLayout& lay,
                                              const std::vector<StiffenedGas>& fluids,
                                              const vdw<W>* vars) {
    MixtureV<W> m;
    if (lay.model() == ModelKind::Euler) {
        const StiffenedGas& f = fluids[0];
        m.big_g += vdw<W>(1.0) * vdw<W>(f.big_g());
        m.big_pi += vdw<W>(1.0) * vdw<W>(f.big_pi());
        return m;
    }
    for (int i = 0; i < lay.num_fluids(); ++i) {
        const StiffenedGas& f = fluids[static_cast<std::size_t>(i)];
        m.big_g += vars[lay.adv(i)] * vdw<W>(f.big_g());
        m.big_pi += vars[lay.adv(i)] * vdw<W>(f.big_pi());
    }
    return m;
}

/// Mixture density from primitives (sum of partial densities).
template <int W>
[[nodiscard]] inline vdw<W> mixture_density_v(const EquationLayout& lay,
                                              const vdw<W>* prim) {
    vdw<W> rho = 0.0;
    for (int f = 0; f < lay.num_fluids(); ++f) rho += prim[lay.cont(f)];
    return rho;
}

/// Frozen mixture sound speed from primitives.
template <int W>
[[nodiscard]] inline vdw<W>
mixture_sound_speed_v(const EquationLayout& lay,
                      const std::vector<StiffenedGas>& fluids,
                      const vdw<W>* prim) {
    const MixtureV<W> m = mixture_at_v<W>(lay, fluids, prim);
    const vdw<W> rho = mixture_density_v<W>(lay, prim);
    return m.sound_speed(rho, prim[lay.energy()]);
}

/// Conservative -> primitive conversion. `cons` and `prim` hold
/// num_eqns() entries in the EquationLayout order.
template <int W>
inline void cons_to_prim_v(const EquationLayout& lay,
                           const std::vector<StiffenedGas>& fluids,
                           const vdw<W>* cons, vdw<W>* prim) {
    const int nf = lay.num_fluids();
    const int d = lay.dims();

    for (int f = 0; f < nf; ++f) prim[lay.cont(f)] = cons[lay.cont(f)];
    for (int f = 0; f < lay.num_adv(); ++f) prim[lay.adv(f)] = cons[lay.adv(f)];

    vdw<W> rho = 0.0;
    for (int f = 0; f < nf; ++f) rho += cons[lay.cont(f)];

    vdw<W> ke = 0.0;
    for (int i = 0; i < d; ++i) {
        const vdw<W> u = cons[lay.mom(i)] / rho;
        prim[lay.mom(i)] = u;
        ke += vdw<W>(0.5) * rho * u * u;
    }

    const MixtureV<W> m = mixture_at_v<W>(lay, fluids, cons);
    const vdw<W> rho_e = cons[lay.energy()] - ke;
    prim[lay.energy()] = m.pressure(rho_e);

    if (lay.model() == ModelKind::SixEquation) {
        // Per-fluid pressures from per-fluid volumetric internal energies:
        // alpha_i rho_i e_i = alpha_i (G_i p_i + Pi_i).
        for (int f = 0; f < nf; ++f) {
            const vdw<W> a = simd::vmax(cons[lay.adv(f)], vdw<W>(1e-12));
            const StiffenedGas& g = fluids[static_cast<std::size_t>(f)];
            prim[lay.internal_energy(f)] =
                (cons[lay.internal_energy(f)] / a - vdw<W>(g.big_pi())) /
                vdw<W>(g.big_g());
        }
    }
}

/// Primitive -> conservative conversion.
template <int W>
inline void prim_to_cons_v(const EquationLayout& lay,
                           const std::vector<StiffenedGas>& fluids,
                           const vdw<W>* prim, vdw<W>* cons) {
    const int nf = lay.num_fluids();
    const int d = lay.dims();

    for (int f = 0; f < nf; ++f) cons[lay.cont(f)] = prim[lay.cont(f)];
    for (int f = 0; f < lay.num_adv(); ++f) cons[lay.adv(f)] = prim[lay.adv(f)];

    const vdw<W> rho = mixture_density_v<W>(lay, prim);
    vdw<W> ke = 0.0;
    for (int i = 0; i < d; ++i) {
        cons[lay.mom(i)] = rho * prim[lay.mom(i)];
        ke += vdw<W>(0.5) * rho * prim[lay.mom(i)] * prim[lay.mom(i)];
    }

    const MixtureV<W> m = mixture_at_v<W>(lay, fluids, prim);
    cons[lay.energy()] = m.energy(prim[lay.energy()]) + ke;

    if (lay.model() == ModelKind::SixEquation) {
        for (int f = 0; f < nf; ++f) {
            const StiffenedGas& g = fluids[static_cast<std::size_t>(f)];
            const vdw<W> a = prim[lay.adv(f)];
            cons[lay.internal_energy(f)] =
                a * (vdw<W>(g.big_g()) * prim[lay.internal_energy(f)] +
                     vdw<W>(g.big_pi()));
        }
    }
}

/// Physical flux of the coupled system along direction `dir` (0..2) from a
/// primitive state. The advection equations and six-equation internal
/// energies are written in quasi-conservative form with flux alpha_i u
/// (resp. alpha_i rho_i e_i u); their non-conservative source terms
/// (alpha div u, alpha p div u) are added by the RHS assembly from
/// Riemann-solver face velocities.
template <int W>
inline void physical_flux_v(const EquationLayout& lay,
                            const std::vector<StiffenedGas>& fluids,
                            const vdw<W>* prim, int dir, vdw<W>* flux) {
    const int nf = lay.num_fluids();
    const int d = lay.dims();
    const vdw<W> un = prim[lay.mom(dir)];
    const vdw<W> p = prim[lay.energy()];
    const vdw<W> rho = mixture_density_v<W>(lay, prim);

    for (int f = 0; f < nf; ++f) flux[lay.cont(f)] = prim[lay.cont(f)] * un;

    for (int i = 0; i < d; ++i) {
        flux[lay.mom(i)] =
            rho * prim[lay.mom(i)] * un + (i == dir ? p : vdw<W>(0.0));
    }

    vdw<W> ke = 0.0;
    for (int i = 0; i < d; ++i)
        ke += vdw<W>(0.5) * rho * prim[lay.mom(i)] * prim[lay.mom(i)];
    const MixtureV<W> m = mixture_at_v<W>(lay, fluids, prim);
    const vdw<W> e_total = m.energy(p) + ke;
    flux[lay.energy()] = (e_total + p) * un;

    for (int f = 0; f < lay.num_adv(); ++f)
        flux[lay.adv(f)] = prim[lay.adv(f)] * un;

    if (lay.model() == ModelKind::SixEquation) {
        for (int f = 0; f < nf; ++f) {
            const StiffenedGas& g = fluids[static_cast<std::size_t>(f)];
            const vdw<W> a = prim[lay.adv(f)];
            const vdw<W> aie =
                a * (vdw<W>(g.big_g()) * prim[lay.internal_energy(f)] +
                     vdw<W>(g.big_pi()));
            flux[lay.internal_energy(f)] = aie * un;
        }
    }
}

} // namespace mfc
