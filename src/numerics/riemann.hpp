#pragma once

#include <string>

namespace mfc {

/// Approximate Riemann solvers for the finite-volume flux. MFC exposes
/// riemann_solver = 1 (HLL) and 2 (HLLC); the standardized benchmark case
/// of Section 6.1 uses HLLC. The solvers themselves are solve_riemann_v
/// (numerics/vec_riemann.hpp).
enum class RiemannSolverKind { HLL = 1, HLLC = 2 };

[[nodiscard]] std::string to_string(RiemannSolverKind k);
[[nodiscard]] RiemannSolverKind riemann_from_int(int k);

} // namespace mfc
