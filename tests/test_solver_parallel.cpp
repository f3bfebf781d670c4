#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <mutex>

#include "comm/cart.hpp"
#include "exec/exec.hpp"
#include "solver/launch.hpp"
#include "solver/simulation.hpp"
#include "toolchain/case_io.hpp"

namespace mfc {
namespace {

CaseConfig small_case_2d(int steps) {
    CaseConfig c;
    c.model = ModelKind::FiveEquation;
    c.num_fluids = 2;
    c.fluids = {{1.4, 0.0}, {1.6, 0.0}};
    c.grid.cells = Extents{16, 16, 1};
    c.dt = 5.0e-4;
    c.t_step_stop = steps;
    for (auto& b : c.bc) b = {BcType::Periodic, BcType::Periodic};
    const double eps = 1e-6;
    Patch bg;
    bg.alpha_rho = {1.0 * (1 - eps), 0.5 * eps};
    bg.alpha = {1 - eps, eps};
    bg.pressure = 1.0;
    c.patches.push_back(bg);
    Patch blob;
    blob.geometry = Patch::Geometry::Sphere;
    blob.center = {0.4, 0.6, 0.5};
    blob.radius = 0.2;
    blob.alpha_rho = {1.0 * eps, 0.5 * (1 - eps)};
    blob.alpha = {eps, 1 - eps};
    blob.pressure = 0.5;
    c.patches.push_back(blob);
    return c;
}

/// Gather each rank's interior into one global array keyed by global
/// indices (test-side; production gathers use Communicator::gather).
struct GlobalCollector {
    std::mutex mutex;
    std::map<std::tuple<int, int, int>, double> values;

    void put(const LocalBlock& b, const Field& f) {
        const std::lock_guard<std::mutex> lock(mutex);
        for (int k = 0; k < b.cells.nz; ++k) {
            for (int j = 0; j < b.cells.ny; ++j) {
                for (int i = 0; i < b.cells.nx; ++i) {
                    values[{b.global_index(0, i), b.global_index(1, j),
                            b.global_index(2, k)}] = f(i, j, k);
                }
            }
        }
    }
};

class ParallelEquivalence : public testing::TestWithParam<int> {};

TEST_P(ParallelEquivalence, DecomposedRunMatchesSerial) {
    const int nranks = GetParam();
    const CaseConfig c = small_case_2d(10);

    // Serial reference.
    Simulation serial(c);
    serial.initialize();
    serial.run();

    // Decomposed run.
    GlobalCollector collected[2]; // alpha_rho1, energy
    comm::World world(nranks);
    world.run([&](comm::Communicator& comm) {
        const std::array<int, 3> dims = comm::dims_create(nranks, 2);
        comm::CartComm cart(comm, dims, {true, true, true});
        Simulation sim(c, cart);
        sim.initialize();
        sim.run();
        collected[0].put(sim.block(), sim.state().eq(sim.layout().cont(0)));
        collected[1].put(sim.block(), sim.state().eq(sim.layout().energy()));
    });

    const EquationLayout lay = serial.layout();
    ASSERT_EQ(collected[0].values.size(), 16u * 16u);
    for (const auto& [idx, v] : collected[0].values) {
        const auto [i, j, k] = idx;
        EXPECT_NEAR(v, serial.state().eq(lay.cont(0))(i, j, k),
                    1e-11 * (1.0 + std::abs(v)))
            << i << "," << j;
    }
    for (const auto& [idx, v] : collected[1].values) {
        const auto [i, j, k] = idx;
        EXPECT_NEAR(v, serial.state().eq(lay.energy())(i, j, k),
                    1e-11 * (1.0 + std::abs(v)));
    }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelEquivalence,
                         testing::Values(2, 4, 8));

TEST(Parallel, ConservationAcrossRanks) {
    const CaseConfig c = small_case_2d(20);
    comm::World world(4);
    world.run([&](comm::Communicator& comm) {
        comm::CartComm cart(comm, {2, 2, 1}, {true, true, true});
        Simulation sim(c, cart);
        sim.initialize();
        const auto before = sim.conserved_totals();
        sim.run();
        const auto after = sim.conserved_totals();
        for (std::size_t q = 0; q < before.size() - 2; ++q) { // skip alphas
            EXPECT_NEAR(after[q], before[q], 1e-11 * (1.0 + std::abs(before[q])));
        }
    });
}

TEST(Parallel, NonPeriodicDecomposedRunMatchesSerial) {
    CaseConfig c = small_case_2d(10);
    for (auto& b : c.bc) b = {BcType::Extrapolation, BcType::Extrapolation};

    Simulation serial(c);
    serial.initialize();
    serial.run();

    GlobalCollector got;
    comm::World world(4);
    world.run([&](comm::Communicator& comm) {
        comm::CartComm cart(comm, {2, 2, 1}, {false, false, false});
        Simulation sim(c, cart);
        sim.initialize();
        sim.run();
        got.put(sim.block(), sim.state().eq(sim.layout().cont(1)));
    });

    const EquationLayout lay = serial.layout();
    for (const auto& [idx, v] : got.values) {
        const auto [i, j, k] = idx;
        EXPECT_NEAR(v, serial.state().eq(lay.cont(1))(i, j, k),
                    1e-11 * (1.0 + std::abs(v)));
    }
}

TEST(Parallel, ReflectiveWallsAcrossRanks) {
    CaseConfig c = small_case_2d(10);
    for (auto& b : c.bc) b = {BcType::Reflective, BcType::Reflective};

    Simulation serial(c);
    serial.initialize();
    serial.run();

    GlobalCollector got;
    comm::World world(2);
    world.run([&](comm::Communicator& comm) {
        comm::CartComm cart(comm, {1, 2, 1}, {false, false, false});
        Simulation sim(c, cart);
        sim.initialize();
        sim.run();
        got.put(sim.block(), sim.state().eq(sim.layout().mom(1)));
    });

    const EquationLayout lay = serial.layout();
    for (const auto& [idx, v] : got.values) {
        const auto [i, j, k] = idx;
        EXPECT_NEAR(v, serial.state().eq(lay.mom(1))(i, j, k),
                    1e-11 * (1.0 + std::abs(v)));
    }
}

TEST(Parallel, ViscousDecomposedRunMatchesSerial) {
    // The viscous cross-derivatives read edge/corner ghosts; this pins
    // down the dimension-interleaved halo + BC fill.
    CaseConfig c = small_case_2d(8);
    c.viscous = true;
    c.viscosity = {0.02, 0.01};
    for (auto& b : c.bc) b = {BcType::Extrapolation, BcType::Extrapolation};

    Simulation serial(c);
    serial.initialize();
    serial.run();

    GlobalCollector got;
    comm::World world(4);
    world.run([&](comm::Communicator& comm) {
        comm::CartComm cart(comm, {2, 2, 1}, {false, false, false});
        Simulation sim(c, cart);
        sim.initialize();
        sim.run();
        got.put(sim.block(), sim.state().eq(sim.layout().mom(1)));
    });

    const EquationLayout lay = serial.layout();
    for (const auto& [idx, v] : got.values) {
        const auto [i, j, k] = idx;
        EXPECT_NEAR(v, serial.state().eq(lay.mom(1))(i, j, k),
                    1e-11 * (1.0 + std::abs(v)))
            << i << "," << j;
    }
}

TEST(Parallel, AdaptiveDtDecomposedRunMatchesSerial) {
    CaseConfig c = small_case_2d(6);
    c.adaptive_dt = true;
    c.cfl = 0.3;

    Simulation serial(c);
    serial.initialize();
    serial.run();

    GlobalCollector got;
    comm::World world(4);
    world.run([&](comm::Communicator& comm) {
        comm::CartComm cart(comm, {2, 2, 1}, {true, true, true});
        Simulation sim(c, cart);
        sim.initialize();
        sim.run();
        got.put(sim.block(), sim.state().eq(sim.layout().energy()));
        EXPECT_DOUBLE_EQ(sim.last_dt(), serial.last_dt());
    });

    const EquationLayout lay = serial.layout();
    for (const auto& [idx, v] : got.values) {
        const auto [i, j, k] = idx;
        EXPECT_NEAR(v, serial.state().eq(lay.energy())(i, j, k),
                    1e-11 * (1.0 + std::abs(v)));
    }
}

TEST(Parallel, ThreeDimensionalEightRanks) {
    CaseConfig c;
    c.model = ModelKind::FiveEquation;
    c.num_fluids = 2;
    c.fluids = {{1.4, 0.0}, {1.6, 0.0}};
    c.grid.cells = Extents{12, 12, 12};
    c.dt = 5.0e-4;
    c.t_step_stop = 5;
    for (auto& b : c.bc) b = {BcType::Periodic, BcType::Periodic};
    const double eps = 1e-6;
    Patch bg;
    bg.alpha_rho = {1.0 * (1 - eps), 0.5 * eps};
    bg.alpha = {1 - eps, eps};
    bg.pressure = 1.0;
    c.patches.push_back(bg);
    Patch blob;
    blob.geometry = Patch::Geometry::Sphere;
    blob.center = {0.5, 0.5, 0.5};
    blob.radius = 0.25;
    blob.alpha_rho = {1.0 * eps, 0.5 * (1 - eps)};
    blob.alpha = {eps, 1 - eps};
    blob.pressure = 0.5;
    c.patches.push_back(blob);

    Simulation serial(c);
    serial.initialize();
    serial.run();

    GlobalCollector got;
    comm::World world(8);
    world.run([&](comm::Communicator& comm) {
        comm::CartComm cart(comm, {2, 2, 2}, {true, true, true});
        Simulation sim(c, cart);
        sim.initialize();
        sim.run();
        got.put(sim.block(), sim.state().eq(sim.layout().energy()));
    });

    const EquationLayout lay = serial.layout();
    ASSERT_EQ(got.values.size(), 12u * 12u * 12u);
    for (const auto& [idx, v] : got.values) {
        const auto [i, j, k] = idx;
        EXPECT_NEAR(v, serial.state().eq(lay.energy())(i, j, k),
                    1e-11 * (1.0 + std::abs(v)));
    }
}

// --- the case launcher -------------------------------------------------

/// tests/data/sod.case: a 1D case with extrapolation ends.
CaseConfig sod_case() {
    return config_from_dict(toolchain::parse_case_text(R"(
model_eqns   = euler
num_fluids   = 1
nx           = 100
dt           = 1e-3
t_step_stop  = 50
bc_x_beg     = -3
bc_x_end     = -3
num_patches  = 2
patch1_geometry   = domain
patch1_alpha_rho1 = 0.125
patch1_pressure   = 0.1
patch2_geometry   = halfspace
patch2_position   = 0.5
patch2_alpha_rho1 = 1.0
patch2_pressure   = 1.0
)"));
}

TEST(Launch, TopologySpreadsRanksOverActiveAxesOnly) {
    CaseConfig c1 = sod_case();
    CaseConfig c2 = small_case_2d(1);
    c2.bc[1] = {BcType::Reflective, BcType::Reflective};
    CaseConfig c3 = standardized_benchmark_case(12, 1);
    c3.bc[0] = {BcType::Periodic, BcType::Periodic};
    for (const CaseConfig* c : {&c1, &c2, &c3}) {
        const int active = c->grid.dims();
        for (const int ranks : {1, 2, 3, 4, 8}) {
            const CaseTopology t = case_topology(*c, ranks);
            EXPECT_EQ(t.dims[0] * t.dims[1] * t.dims[2], ranks);
            for (int d = active; d < 3; ++d) {
                EXPECT_EQ(t.dims[static_cast<std::size_t>(d)], 1)
                    << active << "D case, " << ranks << " ranks, axis " << d;
            }
            if (active == 3) {
                EXPECT_EQ(t.dims, comm::dims_create(ranks, 3));
            }
            for (std::size_t d = 0; d < 3; ++d) {
                EXPECT_EQ(t.periodic[d], c->bc[d][0] == BcType::Periodic);
            }
        }
    }
}

TEST(Launch, TimedRunHashIsTheSameAtEveryRanksByThreads) {
    for (const CaseConfig& c : {sod_case(), small_case_2d(4),
                                standardized_benchmark_case(12, 3)}) {
        std::vector<std::uint64_t> hashes;
        for (const auto& [ranks, threads] :
             {std::pair{1, 1}, std::pair{2, 1}, std::pair{2, 2},
              std::pair{4, 1}}) {
            exec::set_num_threads(threads);
            const LaunchResult r =
                run_timed(c, {.ranks = ranks, .warmup_steps = 1, .hash = true});
            exec::set_num_threads(1);
            EXPECT_GT(r.wall_s, 0.0);
            EXPECT_EQ(r.steps, 1 + c.t_step_stop);
            hashes.push_back(r.state_hash);
        }
        for (const std::uint64_t h : hashes) EXPECT_EQ(h, hashes.front());
    }
}

TEST(Launch, WarmupStaysOutOfTheWindow) {
    const telemetry::SwitchScope zones(telemetry::enabled,
                                       telemetry::set_enabled, true);
    const CaseConfig c = small_case_2d(3);
    for (const int ranks : {1, 2}) {
        const LaunchResult r =
            run_timed(c, {.ranks = ranks, .warmup_steps = 2, .zones = true});
        const telemetry::ZoneStats* step = r.zones.find("step");
        ASSERT_NE(step, nullptr);
        // The cross-rank view sums calls over ranks.
        EXPECT_EQ(step->calls, ranks * c.t_step_stop) << ranks << " ranks";
        EXPECT_EQ(r.steps, 2 + c.t_step_stop);
    }
}

} // namespace
} // namespace mfc
