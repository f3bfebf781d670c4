#include <gtest/gtest.h>

#include "solver/case_config.hpp"

namespace mfc {
namespace {

TEST(CaseConfig, DefaultsValidate) {
    CaseConfig c = standardized_benchmark_case(16);
    EXPECT_NO_THROW(c.validate());
    EXPECT_EQ(c.layout().num_eqns(), 8);
    EXPECT_EQ(c.weno_order, 5);
    EXPECT_EQ(c.riemann_solver, RiemannSolverKind::HLLC);
    EXPECT_EQ(c.time_stepper, TimeStepper::RK3);
}

TEST(CaseConfig, BcCodesRoundTrip) {
    EXPECT_EQ(bc_from_int(-1), BcType::Periodic);
    EXPECT_EQ(bc_from_int(-2), BcType::Reflective);
    EXPECT_EQ(bc_from_int(-3), BcType::Extrapolation);
    EXPECT_THROW((void)bc_from_int(0), Error);
    EXPECT_EQ(to_string(BcType::Reflective), "reflective");
}

TEST(CaseConfig, ValidationCatchesBadWenoOrder) {
    CaseConfig c = standardized_benchmark_case(16);
    c.weno_order = 4;
    EXPECT_THROW(c.validate(), Error);
}

TEST(CaseConfig, ValidationCatchesFluidMismatch) {
    CaseConfig c = standardized_benchmark_case(16);
    c.fluids.pop_back();
    EXPECT_THROW(c.validate(), Error);
}

TEST(CaseConfig, ValidationCatchesBadGamma) {
    CaseConfig c = standardized_benchmark_case(16);
    c.fluids[0] = StiffenedGas(1.0, 0.0);
    EXPECT_THROW(c.validate(), Error);
}

TEST(CaseConfig, ValidationCatchesUnpairedPeriodic) {
    CaseConfig c = standardized_benchmark_case(16);
    c.bc[0] = {BcType::Periodic, BcType::Extrapolation};
    EXPECT_THROW(c.validate(), Error);
}

TEST(CaseConfig, ValidationCatchesAlphaSum) {
    CaseConfig c = standardized_benchmark_case(16);
    c.patches[0].alpha = {0.7, 0.7};
    EXPECT_THROW(c.validate(), Error);
}

TEST(CaseConfig, ValidationCatchesDegenerateY3D) {
    CaseConfig c = standardized_benchmark_case(16);
    c.grid.cells = Extents{16, 1, 16};
    EXPECT_THROW(c.validate(), Error);
}

TEST(CaseConfig, ValidationRequiresPatches) {
    CaseConfig c = standardized_benchmark_case(16);
    c.patches.clear();
    EXPECT_THROW(c.validate(), Error);
}

TEST(CaseConfig, DictRoundTrip) {
    const CaseConfig a = standardized_benchmark_case(16);
    const CaseDict d = dict_from_config(a);
    const CaseConfig b = config_from_dict(d);
    EXPECT_EQ(b.model, a.model);
    EXPECT_EQ(b.num_fluids, a.num_fluids);
    EXPECT_EQ(b.grid.cells, a.grid.cells);
    EXPECT_EQ(b.weno_order, a.weno_order);
    EXPECT_EQ(b.riemann_solver, a.riemann_solver);
    EXPECT_EQ(b.time_stepper, a.time_stepper);
    EXPECT_DOUBLE_EQ(b.dt, a.dt);
    EXPECT_EQ(b.t_step_stop, a.t_step_stop);
    EXPECT_EQ(b.patches.size(), a.patches.size());
    for (std::size_t p = 0; p < a.patches.size(); ++p) {
        EXPECT_EQ(b.patches[p].geometry, a.patches[p].geometry);
        EXPECT_DOUBLE_EQ(b.patches[p].pressure, a.patches[p].pressure);
        EXPECT_EQ(b.patches[p].alpha_rho, a.patches[p].alpha_rho);
    }
    EXPECT_EQ(b.bc, a.bc);
}

TEST(CaseConfig, UnknownKeysRejected) {
    CaseDict d = dict_from_config(standardized_benchmark_case(16));
    d["definitely_not_a_parameter"] = 1;
    EXPECT_THROW((void)config_from_dict(d), Error);
}

TEST(CaseConfig, IgrParametersRoundTrip) {
    CaseConfig a = standardized_benchmark_case(16);
    a.igr.enabled = true;
    a.igr.order = 3;
    a.igr.alf_factor = 25.0;
    a.igr.num_iters = 7;
    a.igr.iter_solver = 2;
    const CaseConfig b = config_from_dict(dict_from_config(a));
    EXPECT_TRUE(b.igr.enabled);
    EXPECT_EQ(b.igr.order, 3);
    EXPECT_DOUBLE_EQ(b.igr.alf_factor, 25.0);
    EXPECT_EQ(b.igr.num_iters, 7);
    EXPECT_EQ(b.igr.iter_solver, 2);
}

TEST(CaseConfig, RdmaAndCaseOptimizationFlags) {
    CaseConfig a = standardized_benchmark_case(16);
    a.rdma_mpi = true;
    a.case_optimization = true;
    const CaseConfig b = config_from_dict(dict_from_config(a));
    EXPECT_TRUE(b.rdma_mpi);
    EXPECT_TRUE(b.case_optimization);
}

TEST(Patch, HalfSpaceContainment) {
    GlobalGrid g{Extents{8, 8, 8}};
    Patch p;
    p.geometry = Patch::Geometry::HalfSpace;
    p.dir = 1;
    p.position = 0.5;
    EXPECT_TRUE(p.contains(g, {0.9, 0.2, 0.9}));
    EXPECT_FALSE(p.contains(g, {0.1, 0.7, 0.1}));
}

TEST(Patch, SphereIgnoresInactiveDimensions) {
    GlobalGrid g2{Extents{8, 8, 1}};
    Patch p;
    p.geometry = Patch::Geometry::Sphere;
    p.center = {0.5, 0.5, 0.5};
    p.radius = 0.2;
    // z distance would exclude this point in 3D, but z is inactive in 2D.
    EXPECT_TRUE(p.contains(g2, {0.5, 0.5, 0.0}));
    GlobalGrid g3{Extents{8, 8, 8}};
    EXPECT_FALSE(p.contains(g3, {0.5, 0.5, 0.0}));
}

TEST(Patch, BoxContainment) {
    GlobalGrid g{Extents{8, 8, 8}};
    Patch p;
    p.geometry = Patch::Geometry::Box;
    p.lo = {0.25, 0.25, 0.25};
    p.hi = {0.75, 0.75, 0.75};
    EXPECT_TRUE(p.contains(g, {0.5, 0.5, 0.5}));
    EXPECT_FALSE(p.contains(g, {0.8, 0.5, 0.5}));
    EXPECT_FALSE(p.contains(g, {0.75, 0.5, 0.5})); // hi is exclusive
}

TEST(CaseConfig, StandardizedCaseScalesDt) {
    const CaseConfig small = standardized_benchmark_case(32);
    const CaseConfig large = standardized_benchmark_case(64);
    EXPECT_NEAR(small.dt / large.dt, 2.0, 1e-12);
}

TEST(CaseConfig, StandardizedCaseRejectsTinyGrids) {
    EXPECT_THROW((void)standardized_benchmark_case(4), Error);
}

} // namespace
} // namespace mfc
