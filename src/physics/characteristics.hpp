#pragma once

#include <vector>

#include "physics/model.hpp"

namespace mfc {

/// Characteristic decomposition of the Euler flux Jacobian (conservative
/// variables) along one direction: the left/right eigenvector matrices
/// L and R with A = dF/dU = R diag(lambda) L and L R = I.
///
/// Used by the characteristic-wise WENO option (`char_decomp`): stencils
/// are projected onto characteristic variables w = L U at each face,
/// reconstructed scalar-by-scalar, and projected back — the textbook cure
/// for the oscillations component-wise reconstruction admits at strong
/// shocks. Supported for the single-fluid Euler model (as in most
/// production codes, multiphase systems reconstruct primitives).
struct EulerEigenvectors {
    // num_eqns x num_eqns, row-major (num_eqns = dims + 2).
    double left[5][5];
    double right[5][5];

    int n = 5;

    /// w = L u. `T` is double or a W = 1 simd lane (simd::vd<1>), so the
    /// characteristic sweep feeds the kernel templates without copies.
    template <class T> void to_characteristic(const T* u, T* w) const {
        for (int r = 0; r < n; ++r) {
            T s = 0.0;
            for (int c = 0; c < n; ++c) s += left[r][c] * u[c];
            w[r] = s;
        }
    }
    /// u = R w
    template <class T> void from_characteristic(const T* w, T* u) const {
        for (int r = 0; r < n; ++r) {
            T s = 0.0;
            for (int c = 0; c < n; ++c) s += right[r][c] * w[c];
            u[r] = s;
        }
    }
};

/// Build the eigenvector pair at an averaged face state. `prim` is the
/// face-average primitive state (layout order: rho, u[dims], p); `dir`
/// selects the flux direction. The fluid is the layout's single ideal or
/// stiffened gas.
[[nodiscard]] EulerEigenvectors
euler_eigenvectors(const EquationLayout& lay,
                   const std::vector<StiffenedGas>& fluids, const double* prim,
                   int dir);

} // namespace mfc
