#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rng.hpp"
#include "lane_check.hpp"
#include "physics/eos.hpp"
#include "physics/model.hpp"

namespace mfc {
namespace {

// --- stiffened-gas EOS -------------------------------------------------

TEST(Eos, IdealGasLimit) {
    const StiffenedGas air{1.4, 0.0};
    // p = (gamma-1) rho e  ->  rho e = p/(gamma-1).
    EXPECT_DOUBLE_EQ(air.energy(1.0), 2.5);
    EXPECT_DOUBLE_EQ(air.pressure(2.5), 1.0);
}

TEST(Eos, PressureEnergyInverse) {
    const StiffenedGas water{4.4, 6000.0};
    for (const double p : {0.1, 1.0, 1000.0}) {
        EXPECT_NEAR(water.pressure(water.energy(p)), p, 1e-9);
    }
}

TEST(Eos, SoundSpeedIdealGas) {
    const StiffenedGas air{1.4, 0.0};
    EXPECT_NEAR(air.sound_speed(1.0, 1.0), std::sqrt(1.4), 1e-14);
}

TEST(Eos, StiffeningRaisesSoundSpeed) {
    const StiffenedGas water{4.4, 6000.0};
    const StiffenedGas air{1.4, 0.0};
    EXPECT_GT(water.sound_speed(1000.0, 1.0), air.sound_speed(1.0, 1.0));
}

// Kernel properties below run at W = 1 and, lane-checked, at W = 4 with a
// different state in every lane.

/// {gamma, pi_inf, energy(p)} of the mixture closure of a 1D two-fluid
/// state with volume fractions (a0, a1) at pressure p.
std::vector<double> mixture(const std::vector<StiffenedGas>& fluids, double a0,
                            double a1, double p) {
    const EquationLayout lay(ModelKind::FiveEquation, 2, 1);
    std::vector<double> s(static_cast<std::size_t>(lay.num_eqns()), 0.0);
    s[static_cast<std::size_t>(lay.adv(0))] = a0;
    s[static_cast<std::size_t>(lay.adv(1))] = a1;
    s[static_cast<std::size_t>(lay.energy())] = p;
    return lanes::check(lanes::states(lay, s), 3,
                        [&](auto wtag, const auto* in, auto* o) {
        const auto m = mixture_at_v<decltype(wtag)::value>(lay, fluids, in);
        o[0] = m.gamma();
        o[1] = m.pi_inf();
        o[2] = m.energy(in[lay.energy()]);
    });
}

TEST(Eos, MixtureRecoversPureFluids) {
    const std::vector<StiffenedGas> fluids = {{4.4, 6000.0}, {1.4, 0.0}};
    const auto m1 = mixture(fluids, 1.0, 0.0, 1.0); // gamma, pi_inf, energy
    EXPECT_NEAR(m1[0], 4.4, 1e-12);
    EXPECT_NEAR(m1[1], 6000.0, 1e-9);
    const auto m2 = mixture(fluids, 0.0, 1.0, 1.0);
    EXPECT_NEAR(m2[0], 1.4, 1e-12);
    EXPECT_NEAR(m2[1], 0.0, 1e-12);
}

TEST(Eos, MixtureEnergyIsAlphaWeighted) {
    const std::vector<StiffenedGas> fluids = {{1.4, 0.0}, {1.6, 0.0}};
    const double p = 2.0;
    EXPECT_NEAR(mixture(fluids, 0.3, 0.7, p)[2],
                0.3 * fluids[0].energy(p) + 0.7 * fluids[1].energy(p), 1e-12);
}

// --- equation layouts --------------------------------------------------

TEST(Layout, FiveEquationTwoFluid3DHasEightPdes) {
    // Section 6.1: "a system of eight coupled PDEs".
    const EquationLayout lay(ModelKind::FiveEquation, 2, 3);
    EXPECT_EQ(lay.num_eqns(), 8);
    EXPECT_EQ(lay.cont(0), 0);
    EXPECT_EQ(lay.mom(0), 2);
    EXPECT_EQ(lay.energy(), 5);
    EXPECT_EQ(lay.adv(0), 6);
    EXPECT_EQ(lay.adv(1), 7);
}

TEST(Layout, SixEquationTwoFluid3DHasTenPdes) {
    // Section 6.1: the six-equation model is "(10 PDEs)".
    const EquationLayout lay(ModelKind::SixEquation, 2, 3);
    EXPECT_EQ(lay.num_eqns(), 10);
    EXPECT_EQ(lay.internal_energy(0), 8);
    EXPECT_EQ(lay.internal_energy(1), 9);
}

TEST(Layout, Euler3DHasFiveEquations) {
    const EquationLayout lay(ModelKind::Euler, 1, 3);
    EXPECT_EQ(lay.num_eqns(), 5);
    EXPECT_EQ(lay.num_adv(), 0);
}

TEST(Layout, DimensionalityShrinksSystem) {
    EXPECT_EQ(EquationLayout(ModelKind::FiveEquation, 2, 1).num_eqns(), 6);
    EXPECT_EQ(EquationLayout(ModelKind::FiveEquation, 2, 2).num_eqns(), 7);
}

TEST(Layout, InvalidConfigurationsThrow) {
    EXPECT_THROW(EquationLayout(ModelKind::Euler, 2, 3), Error);
    EXPECT_THROW(EquationLayout(ModelKind::FiveEquation, 1, 3), Error);
    EXPECT_THROW(EquationLayout(ModelKind::FiveEquation, 2, 4), Error);
}

TEST(Layout, ModelNamesRoundTrip) {
    for (const ModelKind m : {ModelKind::Euler, ModelKind::FiveEquation,
                              ModelKind::SixEquation}) {
        EXPECT_EQ(model_from_string(to_string(m)), m);
    }
    EXPECT_THROW((void)model_from_string("bogus"), Error);
}

// --- prim <-> cons round trips -------------------------------------------

/// prim -> cons -> prim through the kernel templates, lane-checked; the
/// single-point adapters must agree with them bitwise.
std::vector<double> round_trip(const EquationLayout& lay,
                               const std::vector<StiffenedGas>& fluids,
                               const std::vector<double>& prim) {
    const int n = lay.num_eqns();
    const auto cons = lanes::check(lanes::states(lay, prim), n,
                                   [&](auto wtag, const auto* in, auto* o) {
        prim_to_cons_v<decltype(wtag)::value>(lay, fluids, in, o);
    });
    const auto back = lanes::check(lanes::states(lay, cons), n,
                                   [&](auto wtag, const auto* in, auto* o) {
        cons_to_prim_v<decltype(wtag)::value>(lay, fluids, in, o);
    });
    std::vector<double> adapter(prim.size());
    prim_to_cons(lay, fluids, prim.data(), adapter.data());
    EXPECT_EQ(adapter, cons);
    cons_to_prim(lay, fluids, cons.data(), adapter.data());
    EXPECT_EQ(adapter, back);
    return back;
}

class PrimConsRoundTrip : public testing::TestWithParam<int> {};

TEST_P(PrimConsRoundTrip, RandomStatesSurviveConversion) {
    const int dims = GetParam();
    const EquationLayout lay(ModelKind::FiveEquation, 2, dims);
    const std::vector<StiffenedGas> fluids = {{4.4, 600.0}, {1.4, 0.0}};
    Rng rng(42 + static_cast<std::uint64_t>(dims));

    for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> prim(static_cast<std::size_t>(lay.num_eqns()));
        const double a1 = rng.uniform(1e-6, 1.0 - 1e-6);
        prim[static_cast<std::size_t>(lay.cont(0))] = rng.uniform(0.1, 1000.0) * a1;
        prim[static_cast<std::size_t>(lay.cont(1))] =
            rng.uniform(0.1, 10.0) * (1.0 - a1);
        for (int d = 0; d < dims; ++d) {
            prim[static_cast<std::size_t>(lay.mom(d))] = rng.uniform(-3.0, 3.0);
        }
        prim[static_cast<std::size_t>(lay.energy())] = rng.uniform(0.01, 100.0);
        prim[static_cast<std::size_t>(lay.adv(0))] = a1;
        prim[static_cast<std::size_t>(lay.adv(1))] = 1.0 - a1;

        const std::vector<double> back = round_trip(lay, fluids, prim);
        for (std::size_t q = 0; q < prim.size(); ++q) {
            EXPECT_NEAR(back[q], prim[q], 1e-9 * (1.0 + std::abs(prim[q])))
                << "eqn " << q << " trial " << trial;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllDims, PrimConsRoundTrip, testing::Values(1, 2, 3));

TEST(PrimCons, SixEquationRoundTrip) {
    const EquationLayout lay(ModelKind::SixEquation, 2, 3);
    const std::vector<StiffenedGas> fluids = {{4.4, 600.0}, {1.4, 0.0}};
    Rng rng(7);
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<double> prim(static_cast<std::size_t>(lay.num_eqns()));
        const double a1 = rng.uniform(1e-4, 1.0 - 1e-4);
        prim[static_cast<std::size_t>(lay.cont(0))] = 800.0 * a1;
        prim[static_cast<std::size_t>(lay.cont(1))] = 1.2 * (1.0 - a1);
        for (int d = 0; d < 3; ++d) {
            prim[static_cast<std::size_t>(lay.mom(d))] = rng.uniform(-1.0, 1.0);
        }
        const double p = rng.uniform(0.1, 50.0);
        prim[static_cast<std::size_t>(lay.energy())] = p;
        prim[static_cast<std::size_t>(lay.adv(0))] = a1;
        prim[static_cast<std::size_t>(lay.adv(1))] = 1.0 - a1;
        prim[static_cast<std::size_t>(lay.internal_energy(0))] = p;
        prim[static_cast<std::size_t>(lay.internal_energy(1))] = p;

        const std::vector<double> back = round_trip(lay, fluids, prim);
        for (std::size_t q = 0; q < prim.size(); ++q) {
            EXPECT_NEAR(back[q], prim[q], 1e-8 * (1.0 + std::abs(prim[q])));
        }
    }
}

TEST(PrimCons, EulerTotalEnergyDefinition) {
    const EquationLayout lay(ModelKind::Euler, 1, 1);
    const std::vector<StiffenedGas> fluids = {{1.4, 0.0}};
    const double prim[3] = {1.0, 2.0, 1.0}; // rho, u, p
    double cons[3];
    prim_to_cons(lay, fluids, prim, cons);
    EXPECT_DOUBLE_EQ(cons[0], 1.0);
    EXPECT_DOUBLE_EQ(cons[1], 2.0);
    // E = p/(gamma-1) + rho u^2/2 = 2.5 + 2.
    EXPECT_DOUBLE_EQ(cons[2], 4.5);
}

// --- physical flux --------------------------------------------------------

TEST(Flux, QuiescentStateCarriesOnlyPressure) {
    const EquationLayout lay(ModelKind::FiveEquation, 2, 3);
    const std::vector<StiffenedGas> fluids = {{1.4, 0.0}, {1.6, 0.0}};
    std::vector<double> prim(8, 0.0);
    prim[0] = 0.5;
    prim[1] = 0.3;
    prim[5] = 2.0; // pressure
    prim[6] = 0.5;
    prim[7] = 0.5;
    const auto flux = lanes::flux_checked(lay, fluids, prim, 0);
    EXPECT_DOUBLE_EQ(flux[0], 0.0);              // no mass flux
    EXPECT_DOUBLE_EQ(flux[lay.mom(0)], 2.0);     // pressure only
    EXPECT_DOUBLE_EQ(flux[lay.mom(1)], 0.0);
    EXPECT_DOUBLE_EQ(flux[lay.energy()], 0.0);
    EXPECT_DOUBLE_EQ(flux[lay.adv(0)], 0.0);
}

TEST(Flux, GalileanMassFlux) {
    const EquationLayout lay(ModelKind::Euler, 1, 1);
    const std::vector<StiffenedGas> fluids = {{1.4, 0.0}};
    const auto flux = lanes::flux_checked(lay, fluids, {2.0, 3.0, 1.0}, 0);
    EXPECT_DOUBLE_EQ(flux[0], 6.0);              // rho u
    EXPECT_DOUBLE_EQ(flux[1], 2.0 * 9.0 + 1.0);  // rho u^2 + p
}

TEST(Flux, DirectionSelectsNormalVelocity) {
    const EquationLayout lay(ModelKind::FiveEquation, 2, 3);
    const std::vector<StiffenedGas> fluids = {{1.4, 0.0}, {1.6, 0.0}};
    std::vector<double> prim(8, 0.0);
    prim[0] = 1.0;
    prim[1] = 0.0;
    prim[lay.mom(0)] = 0.0;
    prim[lay.mom(1)] = 2.0; // only v
    prim[lay.mom(2)] = 0.0;
    prim[lay.energy()] = 1.0;
    prim[lay.adv(0)] = 1.0 - 1e-6;
    prim[lay.adv(1)] = 1e-6;
    const auto fx = lanes::flux_checked(lay, fluids, prim, 0);
    const auto fy = lanes::flux_checked(lay, fluids, prim, 1);
    EXPECT_DOUBLE_EQ(fx[0], 0.0);
    EXPECT_DOUBLE_EQ(fy[0], 2.0);
}

} // namespace
} // namespace mfc
