#include "numerics/riemann.hpp"

#include "core/error.hpp"

namespace mfc {

std::string to_string(RiemannSolverKind k) {
    return k == RiemannSolverKind::HLL ? "HLL" : "HLLC";
}

RiemannSolverKind riemann_from_int(int k) {
    if (k == 1) return RiemannSolverKind::HLL;
    if (k == 2) return RiemannSolverKind::HLLC;
    fail("riemann_solver must be 1 (HLL) or 2 (HLLC)");
}

} // namespace mfc
