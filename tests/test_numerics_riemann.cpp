#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rng.hpp"
#include "lane_check.hpp"

namespace mfc {
namespace {

// Every property runs at W = 1 and, lane-checked, at W = 4 (each lane
// solving a different pair of states).
using lanes::flux_checked;
using lanes::riemann_checked;

struct Fixture {
    EquationLayout lay{ModelKind::FiveEquation, 2, 1};
    std::vector<StiffenedGas> fluids{{1.4, 0.0}, {1.6, 0.0}};

    [[nodiscard]] std::vector<double> state(double rho1, double rho2, double u,
                                            double p, double a1) const {
        std::vector<double> prim(static_cast<std::size_t>(lay.num_eqns()));
        prim[0] = rho1 * a1;
        prim[1] = rho2 * (1.0 - a1);
        prim[static_cast<std::size_t>(lay.mom(0))] = u;
        prim[static_cast<std::size_t>(lay.energy())] = p;
        prim[static_cast<std::size_t>(lay.adv(0))] = a1;
        prim[static_cast<std::size_t>(lay.adv(1))] = 1.0 - a1;
        return prim;
    }
};

class RiemannConsistency
    : public testing::TestWithParam<RiemannSolverKind> {};

TEST_P(RiemannConsistency, EqualStatesGiveExactFlux) {
    // F*(U, U) = F(U): the defining consistency property.
    const Fixture f;
    Rng rng(11);
    for (int trial = 0; trial < 100; ++trial) {
        const auto prim = f.state(rng.uniform(0.1, 10.0), rng.uniform(0.1, 2.0),
                                  rng.uniform(-2.0, 2.0), rng.uniform(0.1, 10.0),
                                  rng.uniform(1e-6, 1.0 - 1e-6));
        const auto exact = flux_checked(f.lay, f.fluids, prim, 0);
        std::vector<double> flux;
        (void)riemann_checked(GetParam(), f.lay, f.fluids, prim, prim, 0, flux);
        for (std::size_t q = 0; q < flux.size(); ++q) {
            EXPECT_NEAR(flux[q], exact[q], 1e-10 * (1.0 + std::abs(exact[q])));
        }
    }
}

TEST_P(RiemannConsistency, SupersonicRightFlowUpwindsLeft) {
    const Fixture f;
    // u >> c on both sides: flux must equal the left physical flux.
    const auto l = f.state(1.0, 1.0, 10.0, 1.0, 0.5);
    const auto r = f.state(0.9, 1.1, 10.0, 1.1, 0.4);
    const auto exact = flux_checked(f.lay, f.fluids, l, 0);
    std::vector<double> flux;
    const double uf = riemann_checked(GetParam(), f.lay, f.fluids, l, r, 0, flux);
    for (std::size_t q = 0; q < flux.size(); ++q) {
        EXPECT_DOUBLE_EQ(flux[q], exact[q]);
    }
    EXPECT_DOUBLE_EQ(uf, 10.0);
}

TEST_P(RiemannConsistency, SupersonicLeftFlowUpwindsRight) {
    const Fixture f;
    const auto l = f.state(1.0, 1.0, -10.0, 1.0, 0.5);
    const auto r = f.state(0.9, 1.1, -10.0, 1.1, 0.4);
    const auto exact = flux_checked(f.lay, f.fluids, r, 0);
    std::vector<double> flux;
    (void)riemann_checked(GetParam(), f.lay, f.fluids, l, r, 0, flux);
    for (std::size_t q = 0; q < flux.size(); ++q) {
        EXPECT_DOUBLE_EQ(flux[q], exact[q]);
    }
}

TEST_P(RiemannConsistency, MirrorSymmetry) {
    // Swapping the states and the velocity sign must flip the mass flux
    // and preserve the momentum flux.
    const Fixture f;
    const auto l = f.state(1.0, 0.5, 0.4, 1.2, 0.8);
    const auto r = f.state(0.4, 0.8, -0.1, 0.7, 0.2);
    auto lm = r;
    auto rm = l;
    lm[static_cast<std::size_t>(f.lay.mom(0))] *= -1.0;
    rm[static_cast<std::size_t>(f.lay.mom(0))] *= -1.0;

    std::vector<double> flux, fluxm;
    const double uf = riemann_checked(GetParam(), f.lay, f.fluids, l, r, 0, flux);
    const double ufm =
        riemann_checked(GetParam(), f.lay, f.fluids, lm, rm, 0, fluxm);
    EXPECT_NEAR(uf, -ufm, 1e-12);
    EXPECT_NEAR(flux[0], -fluxm[0], 1e-12);                        // mass
    EXPECT_NEAR(flux[static_cast<std::size_t>(f.lay.mom(0))],
                fluxm[static_cast<std::size_t>(f.lay.mom(0))], 1e-12); // momentum
    EXPECT_NEAR(flux[static_cast<std::size_t>(f.lay.energy())],
                -fluxm[static_cast<std::size_t>(f.lay.energy())], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Solvers, RiemannConsistency,
                         testing::Values(RiemannSolverKind::HLL,
                                         RiemannSolverKind::HLLC));

/// Davis wave speeds {sl, sr, s_star} between `l` and `r`, lane-checked.
std::vector<double> wave_speeds(const Fixture& f, const std::vector<double>& l,
                                const std::vector<double>& r) {
    const int n = f.lay.num_eqns();
    return lanes::check(lanes::pair_states(f.lay, l, r), 3,
                        [&](auto wtag, const auto* in, auto* o) {
        const auto w = estimate_wave_speeds_v<decltype(wtag)::value>(
            f.lay, f.fluids, in, in + n, 0);
        o[0] = w.sl;
        o[1] = w.sr;
        o[2] = w.s_star;
    });
}

TEST(Riemann, WaveSpeedsBracketContact) {
    const Fixture f;
    const auto l = f.state(1.0, 1.0, 0.0, 1.0, 0.5);
    const auto r = f.state(0.125, 0.125, 0.0, 0.1, 0.5);
    const auto w = wave_speeds(f, l, r); // sl, sr, s_star
    EXPECT_LT(w[0], w[2]);
    EXPECT_LT(w[2], w[1]);
    EXPECT_LT(w[0], 0.0);
    EXPECT_GT(w[1], 0.0);
}

TEST(Riemann, SymmetricStatesGiveZeroContactSpeed) {
    const Fixture f;
    const auto s = f.state(1.0, 1.0, 0.0, 1.0, 0.5);
    const auto w = wave_speeds(f, s, s);
    EXPECT_NEAR(w[2], 0.0, 1e-12);
    EXPECT_NEAR(w[0], -w[1], 1e-12);
}

TEST(Riemann, HllcResolvesStationaryContact) {
    // A stationary material interface (equal p, u = 0, different rho):
    // HLLC keeps it exactly, HLL smears it (nonzero mass flux).
    const Fixture f;
    const auto l = f.state(10.0, 1.0, 0.0, 1.0, 1.0 - 1e-6);
    const auto r = f.state(10.0, 1.0, 0.0, 1.0, 1e-6);
    std::vector<double> hllc, hll;
    const double uf =
        riemann_checked(RiemannSolverKind::HLLC, f.lay, f.fluids, l, r, 0, hllc);
    (void)riemann_checked(RiemannSolverKind::HLL, f.lay, f.fluids, l, r, 0, hll);
    EXPECT_NEAR(uf, 0.0, 1e-12);
    EXPECT_NEAR(hllc[0], 0.0, 1e-12);             // no mass flux through contact
    EXPECT_NEAR(hllc[1], 0.0, 1e-12);
    EXPECT_GT(std::abs(hll[0]), 1e-3);            // HLL diffuses the contact
    // Momentum flux is the common pressure either way.
    EXPECT_NEAR(hllc[static_cast<std::size_t>(f.lay.mom(0))], 1.0, 1e-12);
}

TEST(Riemann, SodFluxPushesMassRight) {
    const Fixture f;
    const auto l = f.state(1.0, 1.0, 0.0, 1.0, 1.0 - 1e-6);
    const auto r = f.state(0.125, 0.125, 0.0, 0.1, 1e-6);
    std::vector<double> flux;
    const double uf =
        riemann_checked(RiemannSolverKind::HLLC, f.lay, f.fluids, l, r, 0, flux);
    EXPECT_GT(uf, 0.0);       // contact moves right
    EXPECT_GT(flux[0], 0.0);  // heavy fluid flows right
}

TEST(Riemann, TangentialVelocityAdvectsWithContact3D) {
    const EquationLayout lay(ModelKind::FiveEquation, 2, 3);
    const std::vector<StiffenedGas> fluids = {{1.4, 0.0}, {1.6, 0.0}};
    std::vector<double> l(8, 0.0), r(8, 0.0);
    // Same normal state; different tangential velocity (shear layer).
    for (auto* s : {&l, &r}) {
        (*s)[0] = 0.5;
        (*s)[1] = 0.5;
        (*s)[lay.energy()] = 1.0;
        (*s)[lay.adv(0)] = 0.5;
        (*s)[lay.adv(1)] = 0.5;
    }
    l[lay.mom(0)] = 0.5; // normal flow to the right
    r[lay.mom(0)] = 0.5;
    l[lay.mom(1)] = 1.0;
    r[lay.mom(1)] = -1.0;
    std::vector<double> flux;
    (void)riemann_checked(RiemannSolverKind::HLLC, lay, fluids, l, r, 0, flux);
    // Upwinding must take the left tangential momentum: rho*u*v = 1*0.5*1.
    EXPECT_NEAR(flux[lay.mom(1)], 0.5, 1e-10);
}

TEST(Riemann, EnumHelpers) {
    EXPECT_EQ(riemann_from_int(1), RiemannSolverKind::HLL);
    EXPECT_EQ(riemann_from_int(2), RiemannSolverKind::HLLC);
    EXPECT_THROW((void)riemann_from_int(3), Error);
    EXPECT_EQ(to_string(RiemannSolverKind::HLLC), "HLLC");
}

} // namespace
} // namespace mfc
