#pragma once

#include "core/error.hpp"

namespace mfc {

/// Stiffened-gas equation of state for one fluid:
///
///     p = (gamma - 1) rho e  -  gamma pi_inf
///
/// with gamma > 1 and pi_inf >= 0 (pi_inf = 0 recovers the ideal gas).
/// The mixture rules follow Allaire et al. via the linear combinations
///     G  = sum_i alpha_i / (gamma_i - 1)
///     Pi = sum_i alpha_i gamma_i pi_inf_i / (gamma_i - 1)
/// so that rho e = G p + Pi for the mixture (MixtureV in
/// physics/vec_kernels.hpp).
class StiffenedGas {
public:
    /// The closure constants G and Pi are computed here, once: gamma and
    /// pi_inf change only by constructing a new fluid, so no caller can
    /// see a stale pair.
    StiffenedGas(double gamma, double pi_inf)
        : gamma_(gamma), pi_inf_(pi_inf), big_g_(1.0 / (gamma - 1.0)),
          big_pi_(gamma * pi_inf / (gamma - 1.0)) {}

    [[nodiscard]] double gamma() const { return gamma_; }
    [[nodiscard]] double pi_inf() const { return pi_inf_; }
    /// 1/(gamma-1): coefficient of p in the internal-energy closure.
    [[nodiscard]] double big_g() const { return big_g_; }
    /// gamma pi_inf/(gamma-1): constant part of the closure.
    [[nodiscard]] double big_pi() const { return big_pi_; }

    /// Volumetric internal energy rho e at pressure p.
    [[nodiscard]] double energy(double p) const { return big_g() * p + big_pi(); }
    /// Pressure from volumetric internal energy rho e.
    [[nodiscard]] double pressure(double rho_e) const {
        return (rho_e - big_pi()) / big_g();
    }
    /// Speed of sound at density rho and pressure p.
    [[nodiscard]] double sound_speed(double rho, double p) const;

private:
    double gamma_;
    double pi_inf_;
    double big_g_;
    double big_pi_;
};

} // namespace mfc
