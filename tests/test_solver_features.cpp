// Tests for the extended solver features: WENO-M/WENO-Z weight variants,
// acoustic monopole sources, and checkpoint/restart.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "lane_check.hpp"
#include "solver/simulation.hpp"

namespace mfc {
namespace {

// --- WENO weight variants ---------------------------------------------
// Every property runs at W = 1 and, lane-checked, at W = 4.

class WenoVariants : public testing::TestWithParam<WenoVariant> {};

TEST_P(WenoVariants, ConstantExactness) {
    const std::vector<double> v(7, 2.5);
    const auto [l, r] = lanes::edges_checked(v.data() + 3, 5, 1e-16, GetParam());
    EXPECT_NEAR(l, 2.5, 1e-12);
    EXPECT_NEAR(r, 2.5, 1e-12);
}

TEST_P(WenoVariants, LinearExactness) {
    std::vector<double> v(7);
    for (int i = 0; i < 7; ++i) v[static_cast<std::size_t>(i)] = 2.0 * i - 3.0;
    for (const int order : {3, 5}) {
        const auto [l, r] =
            lanes::edges_checked(v.data() + 3, order, 1e-16, GetParam());
        EXPECT_NEAR(r, 2.0 * 3.5 - 3.0, 1e-10);
        EXPECT_NEAR(l, 2.0 * 2.5 - 3.0, 1e-10);
    }
}

TEST_P(WenoVariants, MirrorSymmetry) {
    const std::vector<double> v = {1.0, 4.0, 2.0, 7.0, 3.0, 0.5, 2.5};
    std::vector<double> m(v.rbegin(), v.rend());
    for (const int order : {3, 5}) {
        const auto [l1, r1] =
            lanes::edges_checked(v.data() + 3, order, 1e-16, GetParam());
        const auto [l2, r2] =
            lanes::edges_checked(m.data() + 3, order, 1e-16, GetParam());
        EXPECT_NEAR(l1, r2, 1e-12);
        EXPECT_NEAR(r1, l2, 1e-12);
    }
}

TEST_P(WenoVariants, BoundedAtDiscontinuity) {
    const std::vector<double> v = {0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0};
    for (std::size_t i = 2; i <= 4; ++i) {
        const auto [l, r] =
            lanes::edges_checked(v.data() + i, 5, 1e-16, GetParam());
        EXPECT_GT(l, -0.1);
        EXPECT_LT(l, 1.1);
        EXPECT_GT(r, -0.1);
        EXPECT_LT(r, 1.1);
    }
}

INSTANTIATE_TEST_SUITE_P(Variants, WenoVariants,
                         testing::Values(WenoVariant::JS, WenoVariant::M,
                                         WenoVariant::Z));

TEST(WenoVariants, SharperWeightsNearCriticalPoint) {
    // On a smooth profile containing a first-derivative critical point
    // (cos(pi x + 0.3) on [-1, 1] has one at x ~ -0.095), the JS weights
    // deviate from ideal there and inflate the global max error; WENO-M
    // and WENO-Z reduce it several-fold at identical cost, while every
    // variant keeps the design convergence rate.
    constexpr double kPi = 3.141592653589793;
    constexpr double kPhase = 0.3;
    const auto max_error = [&](WenoVariant variant, int n) {
        const double h = 2.0 / n;
        const auto avg = [&](int i) {
            const double x = -1.0 + (i + 0.5) * h;
            return (std::sin(kPi * (x + 0.5 * h) + kPhase) -
                    std::sin(kPi * (x - 0.5 * h) + kPhase)) /
                   (kPi * h);
        };
        double worst = 0.0;
        for (int i0 = 2; i0 < n - 2; ++i0) {
            double stencil[5];
            for (int o = -2; o <= 2; ++o) stencil[o + 2] = avg(i0 + o);
            const auto [l, r] =
                lanes::edges_checked(stencil + 2, 5, 1e-40, variant);
            const double xl = -1.0 + i0 * h;
            worst = std::max(worst, std::abs(l - std::cos(kPi * xl + kPhase)));
            worst = std::max(worst,
                             std::abs(r - std::cos(kPi * (xl + h) + kPhase)));
        }
        return worst;
    };
    const double e_js = max_error(WenoVariant::JS, 64);
    const double e_m = max_error(WenoVariant::M, 64);
    const double e_z = max_error(WenoVariant::Z, 64);
    EXPECT_LT(e_m, 0.25 * e_js);
    EXPECT_LT(e_z, 0.25 * e_js);
    for (const WenoVariant v :
         {WenoVariant::JS, WenoVariant::M, WenoVariant::Z}) {
        const double rate = std::log2(max_error(v, 32) / max_error(v, 64));
        EXPECT_GT(rate, 4.7);
        EXPECT_LT(rate, 5.4);
    }
}

TEST(WenoVariants, SimulationRunsWithAllVariants) {
    for (const WenoVariant v :
         {WenoVariant::JS, WenoVariant::M, WenoVariant::Z}) {
        CaseConfig c = standardized_benchmark_case(10, 3);
        c.weno_variant = v;
        Simulation sim(c);
        sim.initialize();
        sim.run();
        const auto [lo, hi] = sim.minmax(sim.layout().energy());
        EXPECT_TRUE(std::isfinite(lo));
        EXPECT_TRUE(std::isfinite(hi));
    }
}

TEST(WenoVariants, DictFlagsRoundTrip) {
    CaseConfig c = standardized_benchmark_case(10, 1);
    c.weno_variant = WenoVariant::M;
    EXPECT_EQ(config_from_dict(dict_from_config(c)).weno_variant, WenoVariant::M);
    c.weno_variant = WenoVariant::Z;
    EXPECT_EQ(config_from_dict(dict_from_config(c)).weno_variant, WenoVariant::Z);
    CaseDict d = dict_from_config(c);
    d["mapped_weno"] = true; // both set: invalid
    EXPECT_THROW((void)config_from_dict(d), Error);
}

// --- acoustic monopoles -------------------------------------------------

CaseConfig quiescent_1d(int cells, int steps) {
    CaseConfig c;
    c.model = ModelKind::Euler;
    c.num_fluids = 1;
    c.fluids = {{1.4, 0.0}};
    c.grid.cells = Extents{cells, 1, 1};
    c.dt = 2.5e-4;
    c.t_step_stop = steps;
    c.bc[0] = {BcType::Extrapolation, BcType::Extrapolation};
    Patch bg;
    bg.alpha_rho = {1.0};
    bg.pressure = 1.0;
    c.patches.push_back(bg);
    return c;
}

TEST(Monopole, RadiatesPressurePulse) {
    CaseConfig c = quiescent_1d(200, 400); // T = 0.1
    CaseConfig::Monopole m;
    m.location = {0.5, 0.0, 0.0};
    m.magnitude = 5.0;
    m.frequency = 20.0;
    m.support = 0.05;
    c.monopoles.push_back(m);

    Simulation sim(c);
    sim.initialize();
    sim.run();
    // The state must no longer be quiescent; the perturbation reaches
    // out to ~ c*T = 1.18*0.1 = 0.12 from the source but not the far
    // boundary.
    const EquationLayout lay = sim.layout();
    const Field& mom = sim.state().eq(lay.mom(0));
    double near = 0.0, far = 0.0;
    for (int i = 0; i < 200; ++i) {
        const double x = c.grid.center(0, i);
        const double v = std::abs(mom(i, 0, 0));
        if (std::abs(x - 0.5) < 0.1) near = std::max(near, v);
        if (std::abs(x - 0.5) > 0.35) far = std::max(far, v);
    }
    EXPECT_GT(near, 1e-4);
    EXPECT_LT(far, 1e-8); // causality: no signal beyond the acoustic cone
}

TEST(Monopole, PulseTravelsAtSoundSpeed) {
    CaseConfig c = quiescent_1d(400, 100); // dt 2.5e-4 -> T per run = 0.025
    CaseConfig::Monopole m;
    m.location = {0.2, 0.0, 0.0};
    m.magnitude = 5.0;
    m.frequency = 40.0;
    m.support = 0.02;
    c.monopoles.push_back(m);

    Simulation sim(c);
    sim.initialize();
    // March until t = 0.25; front should sit near 0.2 + 1.18*0.25 = 0.496.
    for (int rep = 0; rep < 10; ++rep) sim.run();
    const EquationLayout lay = sim.layout();
    const Field& mom = sim.state().eq(lay.mom(0));
    int front = 0;
    for (int i = 0; i < 400; ++i) {
        if (std::abs(mom(i, 0, 0)) > 1e-6) front = i;
    }
    const double x_front = c.grid.center(0, front);
    EXPECT_NEAR(x_front, 0.2 + std::sqrt(1.4) * 0.25, 0.06);
}

TEST(Monopole, SymmetricRadiationIn2D) {
    CaseConfig c;
    c.model = ModelKind::Euler;
    c.num_fluids = 1;
    c.fluids = {{1.4, 0.0}};
    c.grid.cells = Extents{32, 32, 1};
    c.dt = 5.0e-4;
    c.t_step_stop = 60;
    for (auto& b : c.bc) b = {BcType::Extrapolation, BcType::Extrapolation};
    Patch bg;
    bg.alpha_rho = {1.0};
    bg.pressure = 1.0;
    c.patches.push_back(bg);
    CaseConfig::Monopole m;
    m.location = {0.5, 0.5, 0.5};
    m.magnitude = 3.0;
    m.frequency = 10.0;
    m.support = 0.08;
    c.monopoles.push_back(m);

    Simulation sim(c);
    sim.initialize();
    sim.run();
    const Field& e = sim.state().eq(sim.layout().energy());
    for (int j = 0; j < 32; ++j) {
        for (int i = 0; i < 32; ++i) {
            EXPECT_NEAR(e(i, j, 0), e(j, i, 0), 1e-11);          // diagonal
            EXPECT_NEAR(e(i, j, 0), e(31 - i, j, 0), 1e-11);     // x mirror
        }
    }
}

TEST(Monopole, DictRoundTrip) {
    CaseConfig c = quiescent_1d(32, 1);
    CaseConfig::Monopole m;
    m.location = {0.3, 0.5, 0.5};
    m.magnitude = 2.0;
    m.frequency = 7.5;
    m.support = 0.04;
    c.monopoles.push_back(m);
    const CaseConfig back = config_from_dict(dict_from_config(c));
    ASSERT_EQ(back.monopoles.size(), 1u);
    EXPECT_DOUBLE_EQ(back.monopoles[0].location[0], 0.3);
    EXPECT_DOUBLE_EQ(back.monopoles[0].magnitude, 2.0);
    EXPECT_DOUBLE_EQ(back.monopoles[0].frequency, 7.5);
    EXPECT_DOUBLE_EQ(back.monopoles[0].support, 0.04);
}

TEST(Monopole, ValidationRejectsBadParameters) {
    CaseConfig c = quiescent_1d(32, 1);
    CaseConfig::Monopole m;
    m.frequency = 0.0;
    c.monopoles.push_back(m);
    EXPECT_THROW(c.validate(), Error);
    c.monopoles[0].frequency = 1.0;
    c.monopoles[0].support = -0.1;
    EXPECT_THROW(c.validate(), Error);
}

// --- no-slip walls ------------------------------------------------------

TEST(NoSlip, ViscousChannelFlowDecays) {
    // Periodic-in-x channel with u(y) plug flow between y walls: with
    // no-slip walls and viscosity the bulk momentum decays; free-slip
    // (reflective) walls exert no shear and keep it.
    const auto bulk_momentum_after = [](BcType wall) {
        CaseConfig c;
        c.model = ModelKind::Euler;
        c.num_fluids = 1;
        c.fluids = {{1.4, 0.0}};
        c.grid.cells = Extents{8, 24, 1};
        c.dt = 1.0e-3;
        c.t_step_stop = 120;
        c.bc[0] = {BcType::Periodic, BcType::Periodic};
        c.bc[1] = {wall, wall};
        c.viscous = true;
        c.viscosity = {0.05};
        Patch bg;
        bg.alpha_rho = {1.0};
        bg.pressure = 1.0;
        bg.velocity = {0.1, 0.0, 0.0};
        c.patches.push_back(bg);
        Simulation sim(c);
        sim.initialize();
        sim.run();
        return sim.conserved_totals()[static_cast<std::size_t>(
            sim.layout().mom(0))];
    };
    const double slip = bulk_momentum_after(BcType::Reflective);
    const double noslip = bulk_momentum_after(BcType::NoSlip);
    EXPECT_NEAR(slip, 0.1, 1e-6);    // free slip: no wall drag
    EXPECT_LT(noslip, 0.95 * slip);  // no-slip: measurable drag
    EXPECT_GT(noslip, 0.0);
}

TEST(NoSlip, InviscidNormalBehaviorMatchesReflective) {
    // Without viscosity the normal-momentum treatment is identical, so a
    // wall-normal acoustic problem evolves the same under both codes.
    const auto run_case = [](BcType wall) {
        CaseConfig c;
        c.model = ModelKind::Euler;
        c.num_fluids = 1;
        c.fluids = {{1.4, 0.0}};
        c.grid.cells = Extents{64, 1, 1};
        c.dt = 5.0e-4;
        c.t_step_stop = 40;
        c.bc[0] = {wall, wall};
        Patch bg;
        bg.alpha_rho = {1.0};
        bg.pressure = 1.0;
        c.patches.push_back(bg);
        Patch pulse;
        pulse.geometry = Patch::Geometry::Box;
        pulse.lo = {0.4, 0.0, 0.0};
        pulse.hi = {0.6, 1.0, 1.0};
        pulse.alpha_rho = {1.2};
        pulse.pressure = 1.5;
        c.patches.push_back(pulse);
        Simulation sim(c);
        sim.initialize();
        sim.run();
        return sim.state().eq(sim.layout().energy())(10, 0, 0);
    };
    EXPECT_DOUBLE_EQ(run_case(BcType::Reflective), run_case(BcType::NoSlip));
}

TEST(NoSlip, BcCodeRoundTrip) {
    EXPECT_EQ(bc_from_int(-16), BcType::NoSlip);
    EXPECT_EQ(to_string(BcType::NoSlip), "no-slip");
    CaseConfig c = standardized_benchmark_case(10, 1);
    c.bc[2] = {BcType::NoSlip, BcType::NoSlip};
    const CaseConfig back = config_from_dict(dict_from_config(c));
    EXPECT_EQ(back.bc[2][0], BcType::NoSlip);
}

// --- restart ----------------------------------------------------------

TEST(Restart, RoundTripPreservesStateAndClock) {
    CaseConfig c = standardized_benchmark_case(12, 4);
    Simulation sim(c);
    sim.initialize();
    sim.run();
    const std::string path = testing::TempDir() + "/mfcpp_restart.bin";
    sim.save_restart(path);

    Simulation loaded(c);
    loaded.initialize(); // overwritten by the restart
    loaded.load_restart(path);
    EXPECT_DOUBLE_EQ(loaded.time(), sim.time());
    EXPECT_EQ(loaded.steps_done(), sim.steps_done());
    for (int q = 0; q < sim.layout().num_eqns(); ++q) {
        for (int k = 0; k < 12; ++k) {
            for (int i = 0; i < 12; ++i) {
                ASSERT_EQ(loaded.state().eq(q)(i, 5, k), sim.state().eq(q)(i, 5, k));
            }
        }
    }
    std::remove(path.c_str());
}

TEST(Restart, ContinuedRunIsBitwiseIdentical) {
    // 8 straight steps == 4 steps + checkpoint + restart + 4 steps.
    CaseConfig c = standardized_benchmark_case(10, 8);
    Simulation straight(c);
    straight.initialize();
    straight.run();

    CaseConfig half = c;
    half.t_step_stop = 4;
    Simulation first(half);
    first.initialize();
    first.run();
    const std::string path = testing::TempDir() + "/mfcpp_restart2.bin";
    first.save_restart(path);

    Simulation second(half);
    second.initialize();
    second.load_restart(path);
    second.run();

    for (int q = 0; q < straight.layout().num_eqns(); ++q) {
        for (int k = 0; k < 10; ++k) {
            for (int j = 0; j < 10; ++j) {
                for (int i = 0; i < 10; ++i) {
                    ASSERT_EQ(second.state().eq(q)(i, j, k),
                              straight.state().eq(q)(i, j, k))
                        << q << " " << i << "," << j << "," << k;
                }
            }
        }
    }
    std::remove(path.c_str());
}

TEST(Restart, RejectsMismatchedShape) {
    CaseConfig c = standardized_benchmark_case(10, 1);
    Simulation sim(c);
    sim.initialize();
    const std::string path = testing::TempDir() + "/mfcpp_restart3.bin";
    sim.save_restart(path);

    CaseConfig other = standardized_benchmark_case(12, 1);
    Simulation wrong(other);
    wrong.initialize();
    EXPECT_THROW(wrong.load_restart(path), Error);
    EXPECT_THROW(wrong.load_restart("/nonexistent/r.bin"), Error);
    std::remove(path.c_str());
}

} // namespace
} // namespace mfc
