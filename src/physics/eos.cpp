#include "physics/eos.hpp"

#include <cmath>

namespace mfc {

double StiffenedGas::sound_speed(double rho, double p) const {
    const double c2 = gamma_ * (p + pi_inf_) / rho;
    MFC_DBG_ASSERT(c2 > 0.0);
    return std::sqrt(c2);
}

} // namespace mfc
