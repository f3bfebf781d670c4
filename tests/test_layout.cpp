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
// Layout parity: the padded pencil-contiguous SoA layout must be an
// implementation detail. Every simulation state produced with padded
// rows (the default) must be bitwise identical to the legacy unpadded
// layout, across models, reconstructions, Riemann solvers, SIMD widths,
// thread counts, and rank decompositions (sync and overlap). Padding
// only changes where interior cells live in memory — never their values.
// ---------------------------------------------------------------------------

/// RAII toggle for the global Field row-padding mode. Only Fields
/// resized while the toggle is live pick up the layout, so each
/// simulation must be constructed inside the guard's scope.
class PaddingGuard {
  public:
    explicit PaddingGuard(bool pad) : prev_(field_row_padding()) {
        set_field_row_padding(pad);
    }
    ~PaddingGuard() { set_field_row_padding(prev_); }
    PaddingGuard(const PaddingGuard&) = delete;
    PaddingGuard& operator=(const PaddingGuard&) = delete;

  private:
    bool prev_;
};

/// Final interior state of a serial run, flattened in (eq, k, j, i)
/// order via operator() — layout-independent by construction, so the
/// vectors from both layouts can be memcmp'd even though the backing
/// raw() buffers differ in size.
std::vector<double> interior_state(const CaseConfig& c, bool padded) {
    PaddingGuard guard(padded);
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

/// The serial acceptance sweep: padded and legacy layouts must agree
/// bitwise at every SIMD width and thread count.
void expect_layout_parity(const CaseConfig& c) {
    const int prev_width = simd::width();
    for (const int w : {1, 2, 4, 8}) {
        for (const int threads : {1, 4}) {
            simd::set_width(w);
            exec::set_num_threads(threads);
            const std::vector<double> legacy = interior_state(c, false);
            const std::vector<double> padded = interior_state(c, true);
            exec::set_num_threads(1);
            ASSERT_EQ(legacy.size(), padded.size());
            EXPECT_EQ(std::memcmp(legacy.data(), padded.data(),
                                  legacy.size() * sizeof(double)),
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
// length is the interior slab width, not the padded row — the per-rank
// state hash must not depend on the layout at any rank count, with the
// synchronous and the overlapped (task-graph) RHS alike.
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> decomposed_hashes(const CaseConfig& c, int nranks,
                                             bool overlap, bool padded) {
    PaddingGuard guard(padded);
    std::vector<std::uint64_t> hashes(static_cast<std::size_t>(nranks), 0);
    const CaseTopology topo = case_topology(c, nranks);
    comm::World world(nranks);
    world.run([&](comm::Communicator& comm) {
        comm::CartComm cart(comm, topo.dims, topo.periodic);
        Simulation sim(c, cart);
        sim.set_overlap(overlap);
        sim.initialize();
        sim.run();
        hashes[static_cast<std::size_t>(comm.rank())] = sim.state_hash();
    });
    return hashes;
}

TEST(LayoutParity, DecomposedSyncAndOverlap) {
    const CaseConfig c = layout_case();
    for (const int nranks : {1, 2, 4}) {
        for (const bool overlap : {false, true}) {
            const auto legacy = decomposed_hashes(c, nranks, overlap, false);
            const auto padded = decomposed_hashes(c, nranks, overlap, true);
            ASSERT_EQ(legacy.size(), padded.size());
            for (std::size_t r = 0; r < legacy.size(); ++r) {
                EXPECT_EQ(legacy[r], padded[r])
                    << "rank " << r << " of " << nranks << ", overlap "
                    << overlap;
            }
        }
    }
}

} // namespace
} // namespace mfc
