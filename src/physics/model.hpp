#pragma once

#include <string>
#include <vector>

#include "core/error.hpp"
#include "physics/eos.hpp"

namespace mfc {

/// Physical model solved by the code. The standardized benchmark case of
/// Section 6.1 uses the two-fluid five-equation model ("a system of eight
/// coupled PDEs" in 3D); Section 6.1 also references the inviscid Euler
/// equations and the six-equation model of Saurel et al. (10 PDEs).
enum class ModelKind {
    Euler,        ///< single-fluid compressible Euler
    FiveEquation, ///< Allaire/Kapila two-phase: no per-fluid energies
    SixEquation,  ///< Saurel two-phase with per-fluid energies + p relaxation
};

[[nodiscard]] std::string to_string(ModelKind m);
[[nodiscard]] ModelKind model_from_string(const std::string& s);

/// Index layout of the coupled PDE system, mirroring MFC's contxb/momxb/
/// E_idx/advxb bookkeeping. Conservative variables:
///
///   [0, nf)              alpha_i rho_i           (partial densities)
///   [nf, nf+d)           rho u                   (momenta)
///   nf+d                 E                       (mixture total energy)
///   [nf+d+1, nf+d+1+na)  alpha_i                 (advected volume fractions)
///   [.., ..+ne)          alpha_i rho_i e_i       (six-equation only)
///
/// Primitive variables share the layout with momenta -> velocities,
/// E -> mixture pressure, and per-fluid energies -> per-fluid pressures.
class EquationLayout {
public:
    EquationLayout() = default;
    EquationLayout(ModelKind model, int num_fluids, int dims);

    [[nodiscard]] ModelKind model() const { return model_; }
    [[nodiscard]] int num_fluids() const { return nf_; }
    [[nodiscard]] int dims() const { return dims_; }

    [[nodiscard]] int cont(int fluid) const { return fluid; }
    [[nodiscard]] int mom(int d) const { return nf_ + d; }
    [[nodiscard]] int energy() const { return nf_ + dims_; }
    [[nodiscard]] int adv(int fluid) const {
        MFC_DBG_ASSERT(num_adv_ > 0);
        return nf_ + dims_ + 1 + fluid;
    }
    [[nodiscard]] int internal_energy(int fluid) const {
        MFC_DBG_ASSERT(model_ == ModelKind::SixEquation);
        return nf_ + dims_ + 1 + num_adv_ + fluid;
    }

    [[nodiscard]] int num_adv() const { return num_adv_; }
    [[nodiscard]] int num_eqns() const { return num_eqns_; }

    [[nodiscard]] bool operator==(const EquationLayout&) const = default;

private:
    ModelKind model_ = ModelKind::FiveEquation;
    int nf_ = 2;
    int dims_ = 3;
    int num_adv_ = 2;
    int num_eqns_ = 8;
};

// Single-point entry points for setup, CFL, and post-processing: W = 1
// adapters over the width-templated kernels of physics/vec_kernels.hpp,
// which the solver sweeps run directly. Points hold num_eqns() entries in
// the layout above.

/// Conservative -> primitive conversion at a single point.
void cons_to_prim(const EquationLayout& lay,
                  const std::vector<StiffenedGas>& fluids, const double* cons,
                  double* prim);

/// Primitive -> conservative conversion at a single point.
void prim_to_cons(const EquationLayout& lay,
                  const std::vector<StiffenedGas>& fluids, const double* prim,
                  double* cons);

/// Mixture density from primitives (sum of partial densities).
[[nodiscard]] double mixture_density(const EquationLayout& lay, const double* prim);

/// Frozen mixture sound speed from primitives.
[[nodiscard]] double mixture_sound_speed(const EquationLayout& lay,
                                         const std::vector<StiffenedGas>& fluids,
                                         const double* prim);

} // namespace mfc
