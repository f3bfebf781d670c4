#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "comm/cart.hpp"
#include "core/field.hpp"
#include "exec/exec.hpp"
#include "simd/simd.hpp"
#include "solver/case_config.hpp"
#include "solver/launch.hpp"
#include "solver/simulation.hpp"

namespace mfc {
namespace {

// ---------------------------------------------------------------------------
// Layout invariance: the padded pencil-contiguous SoA layout is read in
// place by every sweep — along x-pencils, and across x-adjacent pencils
// with halving tail blocks in y/z. How many cells one vector op covers
// (the SIMD width) and which thread runs a pencil must not change a bit:
// every run must reproduce the W = 1, one-thread state, across models,
// reconstructions, Riemann solvers, thread counts, and rank
// decompositions (sync and overlap).
// ---------------------------------------------------------------------------

/// Final interior state of a serial run, flattened in (eq, k, j, i)
/// order via operator(), so padding cells stay out of the comparison.
std::vector<double> interior_state(const CaseConfig& c) {
    Simulation sim(c);
    sim.initialize();
    sim.run();
    const auto& state = sim.state();
    const Extents cells = c.grid.cells;
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(state.num_eqns()) *
                static_cast<std::size_t>(c.grid.total_cells()));
    for (int q = 0; q < state.num_eqns(); ++q) {
        const Field& f = state.eq(q);
        for (int k = 0; k < cells.nz; ++k)
            for (int j = 0; j < cells.ny; ++j)
                for (int i = 0; i < cells.nx; ++i) out.push_back(f(i, j, k));
    }
    return out;
}

/// The serial acceptance sweep: every SIMD width and thread count must
/// memcmp-equal the W = 1, one-thread run.
void expect_layout_parity(const CaseConfig& c) {
    const int prev_width = simd::width();
    simd::set_width(1);
    exec::set_num_threads(1);
    const std::vector<double> reference = interior_state(c);
    for (const int w : {1, 2, 4, 8}) {
        for (const int threads : {1, 4}) {
            simd::set_width(w);
            exec::set_num_threads(threads);
            const std::vector<double> state = interior_state(c);
            exec::set_num_threads(1);
            ASSERT_EQ(reference.size(), state.size());
            EXPECT_EQ(std::memcmp(reference.data(), state.data(),
                                  reference.size() * sizeof(double)),
                      0)
                << "width " << w << ", threads " << threads;
        }
    }
    simd::set_width(prev_width);
}

CaseConfig layout_case() {
    return standardized_benchmark_case(/*cells_per_dim=*/10,
                                       /*t_step_stop=*/3);
}

// The five model/reconstruction/Riemann combos from the benchmark suite.

TEST(LayoutParity, FiveEqnWeno5JsHllc) { expect_layout_parity(layout_case()); }

TEST(LayoutParity, WenoVariantZ) {
    CaseConfig c = layout_case();
    c.weno_variant = WenoVariant::Z;
    c.validate();
    expect_layout_parity(c);
}

TEST(LayoutParity, Weno3Hll) {
    CaseConfig c = layout_case();
    c.weno_order = 3;
    c.riemann_solver = RiemannSolverKind::HLL;
    c.validate();
    expect_layout_parity(c);
}

TEST(LayoutParity, SixEquation) {
    CaseConfig c = layout_case();
    c.model = ModelKind::SixEquation;
    c.validate();
    expect_layout_parity(c);
}

TEST(LayoutParity, IgrJacobi) {
    CaseConfig c = layout_case();
    c.igr.enabled = true;
    c.igr.order = 5;
    c.igr.alf_factor = 10.0;
    c.igr.num_iters = 4;
    c.igr.num_warm_start_iters = 4;
    c.igr.iter_solver = 1;
    c.validate();
    expect_layout_parity(c);
}

// ---------------------------------------------------------------------------
// Decomposed runs: the halo pack/unpack path works on x-runs whose
// length is the interior slab width, not the padded row — the global
// state hash must equal the serial run's at every rank count, with the
// synchronous and the overlapped (task-graph) RHS alike.
// ---------------------------------------------------------------------------

std::uint64_t decomposed_hash(const CaseConfig& c, int nranks, bool overlap) {
    std::uint64_t hash = 0;
    const CaseTopology topo = case_topology(c, nranks);
    comm::World world(nranks);
    world.run([&](comm::Communicator& comm) {
        comm::CartComm cart(comm, topo.dims, topo.periodic);
        Simulation sim(c, cart);
        sim.set_overlap(overlap);
        sim.initialize();
        sim.run();
        const std::uint64_t mine = sim.global_state_hash();
        if (comm.rank() == 0) hash = mine;
    });
    return hash;
}

TEST(LayoutParity, DecomposedSyncAndOverlap) {
    const CaseConfig c = layout_case();
    Simulation serial(c);
    serial.initialize();
    serial.run();
    const std::uint64_t reference = serial.global_state_hash();
    for (const int nranks : {1, 2, 4}) {
        for (const bool overlap : {false, true}) {
            EXPECT_EQ(decomposed_hash(c, nranks, overlap), reference)
                << nranks << " ranks, overlap " << overlap;
        }
    }
}

} // namespace
} // namespace mfc
