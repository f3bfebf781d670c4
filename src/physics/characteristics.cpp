#include "physics/characteristics.hpp"

#include <cmath>
#include <cstring>

namespace mfc {

EulerEigenvectors euler_eigenvectors(const EquationLayout& lay,
                                     const std::vector<StiffenedGas>& fluids,
                                     const double* prim, int dir) {
    MFC_REQUIRE(lay.model() == ModelKind::Euler,
                "characteristic decomposition supports the Euler model");
    const int d = lay.dims();
    const int n = d + 2;
    MFC_DBG_ASSERT(dir >= 0 && dir < d);

    const StiffenedGas& gas = fluids[0];
    const double rho = prim[lay.cont(0)];
    const double p = prim[lay.energy()];
    double u[3] = {0.0, 0.0, 0.0};
    double q2 = 0.0;
    for (int i = 0; i < d; ++i) {
        u[i] = prim[lay.mom(i)];
        q2 += u[i] * u[i];
    }
    const double un = u[dir];
    const double c = gas.sound_speed(rho, p);
    // Total specific enthalpy H = (E + p)/rho with E = rho e + rho q^2/2.
    const double h_total = (gas.energy(p) + 0.5 * rho * q2 + p) / rho;
    // The pressure derivative coefficients keep the ideal-gas form for
    // stiffened gases: dp = (gamma-1)(dE - q^2/2 drho + ...).
    const double b1 = (gas.gamma() - 1.0) / (c * c);
    const double b2 = 0.5 * q2 * b1;

    EulerEigenvectors e;
    e.n = n;
    std::memset(e.left, 0, sizeof e.left);
    std::memset(e.right, 0, sizeof e.right);

    const int i_rho = lay.cont(0);       // 0
    const int i_e = lay.energy();        // d + 1

    // Column/row ordering: 0 = u-c acoustic, 1 = entropy, 2.. = shear
    // (one per tangential direction), n-1 = u+c acoustic.
    int shear_col[2];
    int num_shear = 0;
    for (int t = 0; t < d; ++t) {
        if (t != dir) shear_col[num_shear++] = t;
    }

    // --- right eigenvectors (columns) ------------------------------------
    // u - c
    e.right[i_rho][0] = 1.0;
    for (int i = 0; i < d; ++i) e.right[lay.mom(i)][0] = u[i];
    e.right[lay.mom(dir)][0] = un - c;
    e.right[i_e][0] = h_total - un * c;
    // entropy
    e.right[i_rho][1] = 1.0;
    for (int i = 0; i < d; ++i) e.right[lay.mom(i)][1] = u[i];
    e.right[i_e][1] = 0.5 * q2;
    // shear
    for (int s = 0; s < num_shear; ++s) {
        const int t = shear_col[s];
        e.right[lay.mom(t)][2 + s] = 1.0;
        e.right[i_e][2 + s] = u[t];
    }
    // u + c
    e.right[i_rho][n - 1] = 1.0;
    for (int i = 0; i < d; ++i) e.right[lay.mom(i)][n - 1] = u[i];
    e.right[lay.mom(dir)][n - 1] = un + c;
    e.right[i_e][n - 1] = h_total + un * c;

    // --- left eigenvectors (rows) ----------------------------------------
    // u - c
    e.left[0][i_rho] = 0.5 * (b2 + un / c);
    for (int i = 0; i < d; ++i) e.left[0][lay.mom(i)] = -0.5 * b1 * u[i];
    e.left[0][lay.mom(dir)] += -0.5 / c;
    e.left[0][i_e] = 0.5 * b1;
    // entropy
    e.left[1][i_rho] = 1.0 - b2;
    for (int i = 0; i < d; ++i) e.left[1][lay.mom(i)] = b1 * u[i];
    e.left[1][i_e] = -b1;
    // shear
    for (int s = 0; s < num_shear; ++s) {
        const int t = shear_col[s];
        e.left[2 + s][i_rho] = -u[t];
        e.left[2 + s][lay.mom(t)] = 1.0;
    }
    // u + c
    e.left[n - 1][i_rho] = 0.5 * (b2 - un / c);
    for (int i = 0; i < d; ++i) e.left[n - 1][lay.mom(i)] = -0.5 * b1 * u[i];
    e.left[n - 1][lay.mom(dir)] += 0.5 / c;
    e.left[n - 1][i_e] = 0.5 * b1;

    return e;
}

} // namespace mfc
