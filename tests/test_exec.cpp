#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "comm/cart.hpp"
#include "comm/comm.hpp"
#include "exec/exec.hpp"
#include "solver/simulation.hpp"
#include "telemetry/telemetry.hpp"

namespace mfc {
namespace {

/// Restores the worker count on scope exit so thread-count experiments
/// cannot leak into other tests.
struct ThreadScope {
    explicit ThreadScope(int n) : prev_(exec::num_threads()) {
        exec::set_num_threads(n);
    }
    ~ThreadScope() { exec::set_num_threads(prev_); }
    int prev_;
};

/// Restores the chunk-partition policy on scope exit so static/steal
/// A/B tests cannot leak into other tests.
struct PartitionScope {
    explicit PartitionScope(exec::Partition p) : prev_(exec::partition()) {
        exec::set_partition(p);
    }
    ~PartitionScope() { exec::set_partition(prev_); }
    exec::Partition prev_;
};

TEST(Exec, EmptyRangeNeverInvokesBody) {
    ThreadScope threads(4);
    std::atomic<int> calls{0};
    exec::parallel_for("test_empty", 0, 0, [&](long long, long long) {
        calls.fetch_add(1);
    });
    exec::parallel_for("test_empty", 5, 5, [&](long long, long long) {
        calls.fetch_add(1);
    });
    exec::parallel_for("test_empty", 5, 2, [&](long long, long long) {
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 0);
}

TEST(Exec, FewerRowsThanThreadsCoversEachRowOnce) {
    ThreadScope threads(8);
    std::vector<std::atomic<int>> hits(3);
    exec::parallel_for("test_small", 0, 3, [&](long long lo, long long hi) {
        for (long long t = lo; t < hi; ++t) {
            hits[static_cast<std::size_t>(t)].fetch_add(1);
        }
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Exec, FullRangeCoverageWithDisjointChunks) {
    ThreadScope threads(4);
    const long long n = 1003; // not divisible by the thread count
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    exec::parallel_for("test_cover", 0, n, [&](long long lo, long long hi) {
        for (long long t = lo; t < hi; ++t) {
            hits[static_cast<std::size_t>(t)].fetch_add(1);
        }
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Exec, WorkStealingExecutesEveryRowExactlyOnce) {
    // The exactly-once contract of the stealing scheduler: unique chunk
    // indices come from a single fetch_add per slot plus the steal
    // fetch_add, so no row may ever run twice or be skipped — even when
    // the cost profile forces heavy stealing (the first quarter of the
    // rows is ~100x more expensive than the rest).
    ThreadScope threads(4);
    PartitionScope part(exec::Partition::Steal);
    const long long n = 4096;
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
        std::atomic<long long> total{0};
        exec::parallel_for("test_steal_once", 0, n,
                           [&](long long lo, long long hi) {
                               for (long long t = lo; t < hi; ++t) {
                                   volatile double sink = 0.0;
                                   const int cost = t < n / 4 ? 1000 : 10;
                                   for (int i = 0; i < cost; ++i) {
                                       sink = sink + 1.0 / (1.0 + i);
                                   }
                                   hits[static_cast<std::size_t>(t)]
                                       .fetch_add(1, std::memory_order_relaxed);
                                   total.fetch_add(1,
                                                   std::memory_order_relaxed);
                               }
                           });
        EXPECT_EQ(total.load(), n) << "rep " << rep;
        for (long long t = 0; t < n; ++t) {
            ASSERT_EQ(hits[static_cast<std::size_t>(t)].load(), 1)
                << "row " << t << ", rep " << rep;
        }
    }
}

TEST(Exec, NestedParallelForAttributesRowsToExecutingThread) {
    // A nested parallel_for issued from inside a dispatched (possibly
    // stolen) chunk degrades to inline execution but must still open the
    // nested label's zone on the executing thread, so stolen rows
    // are attributed under the thread that actually ran them. A spin
    // barrier on each slot's first chunk forces every slot — dispatcher
    // and workers — through the nested loop, so the merged profile must
    // contain the worker-side "t_outer/t_inner" path.
    ThreadScope threads(4);
    PartitionScope part(exec::Partition::Steal);
    telemetry::set_enabled(true);
    const telemetry::Report before = telemetry::zone_report();
    const int nslots = 4;
    std::atomic<int> arrivals{0};
    // n = 8 rows -> 8 single-row chunks over 4 slots; slot s starts at
    // row 2s, so the even rows are the four slots' first chunks.
    exec::parallel_for("t_outer", 0, 8, [&](long long lo, long long hi) {
        for (long long t = lo; t < hi; ++t) {
            if (t % 2 == 0) {
                arrivals.fetch_add(1);
                while (arrivals.load() < nslots) std::this_thread::yield();
            }
            exec::parallel_for("t_inner", 0, 4, [](long long ilo,
                                                   long long ihi) {
                volatile double sink = 0.0;
                for (long long i = ilo; i < ihi; ++i) {
                    sink = sink + static_cast<double>(i);
                }
            });
        }
    });
    const telemetry::Report r =
        telemetry::delta(before, telemetry::zone_report());
    telemetry::set_enabled(false);
    EXPECT_NE(r.find("t_outer/t_inner"), nullptr)
        << "no worker recorded the nested zone under its own label";
}

TEST(Exec, NestedParallelForRunsInline) {
    ThreadScope threads(4);
    std::atomic<int> outer_chunks{0};
    std::atomic<int> inner_total{0};
    std::atomic<int> inner_was_inline{0};
    exec::parallel_for("test_outer", 0, 8, [&](long long lo, long long hi) {
        outer_chunks.fetch_add(1);
        EXPECT_TRUE(exec::in_parallel());
        // The nested loop must degrade to one inline chunk on this
        // thread (no deadlock, no second dispatch).
        exec::parallel_for("test_inner", 0, 4,
                           [&](long long ilo, long long ihi) {
                               if (ilo == 0 && ihi == 4)
                                   inner_was_inline.fetch_add(1);
                               inner_total.fetch_add(
                                   static_cast<int>(ihi - ilo));
                           });
        (void)lo;
        (void)hi;
    });
    EXPECT_FALSE(exec::in_parallel());
    EXPECT_GE(outer_chunks.load(), 1);
    EXPECT_EQ(inner_total.load(), 4 * outer_chunks.load());
    EXPECT_EQ(inner_was_inline.load(), outer_chunks.load());
}

TEST(Exec, OrderedReduceIsThreadCountInvariant) {
    // A floating-point sum is non-associative, so this only passes if the
    // chunk grid and combine order are independent of the thread count —
    // the determinism contract of ordered_reduce.
    const long long n = 10'000;
    const auto run = [&] {
        return exec::ordered_reduce<double>(
            "test_reduce", 0, n, 0.0,
            [](long long lo, long long hi) {
                double s = 0.0;
                for (long long t = lo; t < hi; ++t) {
                    s += 1.0 / (1.0 + static_cast<double>(t));
                }
                return s;
            },
            [](double a, double b) { return a + b; });
    };
    double serial = 0.0;
    {
        ThreadScope threads(1);
        serial = run();
    }
    for (const int nt : {2, 3, 4, 7}) {
        ThreadScope threads(nt);
        EXPECT_EQ(serial, run()) << "threads=" << nt;
    }
}

TEST(Exec, OrderedReduceEmptyRangeReturnsIdentity) {
    const double r = exec::ordered_reduce<double>(
        "test_reduce_empty", 3, 3, -1.5,
        [](long long, long long) { return 99.0; },
        [](double a, double b) { return a + b; });
    EXPECT_EQ(r, -1.5);
}

TEST(Exec, ArenaFramesStackAndGrowthKeepsPointersValid) {
    exec::Arena& arena = exec::scratch_arena();
    exec::Arena::Frame outer(arena);
    double* a = outer.doubles(100);
    a[0] = 1.0;
    a[99] = 2.0;
    {
        exec::Arena::Frame inner(arena);
        // Force slab growth: far larger than one slab.
        double* big = inner.doubles(1 << 18);
        big[0] = 3.0;
        big[(1 << 18) - 1] = 4.0;
        // Growth must not move previously returned blocks.
        EXPECT_EQ(a[0], 1.0);
        EXPECT_EQ(a[99], 2.0);
    }
    // The inner frame released its slabs; the outer block is intact and
    // a fresh allocation is zero-filled.
    EXPECT_EQ(a[0], 1.0);
    double* b = outer.doubles(50);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(b[i], 0.0);
}

/// 2D two-phase shock-bubble interaction: both sweep directions active,
/// genuinely two-dimensional data (no symmetry that could mask a
/// chunk-boundary bug).
CaseConfig two_phase_2d_case() {
    CaseConfig c;
    c.model = ModelKind::FiveEquation;
    c.num_fluids = 2;
    c.fluids = {{1.4, 0.0}, {1.6, 0.0}};
    c.grid.cells = Extents{32, 32, 1};
    c.dt = 2.0e-4;
    c.t_step_stop = 8;
    c.bc = {{{BcType::Extrapolation, BcType::Extrapolation},
             {BcType::Extrapolation, BcType::Extrapolation},
             {BcType::Periodic, BcType::Periodic}}};
    const double eps = 1e-6;
    Patch ambient;
    ambient.alpha_rho = {1.0 * (1 - eps), 1.0 * eps};
    ambient.alpha = {1 - eps, eps};
    ambient.pressure = 1.0;
    c.patches.push_back(ambient);
    Patch bubble;
    bubble.geometry = Patch::Geometry::Sphere;
    bubble.center = {0.6, 0.5, 0.5};
    bubble.radius = 0.2;
    bubble.alpha_rho = {0.125 * eps, 0.125 * (1 - eps)};
    bubble.alpha = {eps, 1 - eps};
    bubble.pressure = 0.1;
    c.patches.push_back(bubble);
    Patch shock;
    shock.geometry = Patch::Geometry::HalfSpace;
    shock.position = 0.2;
    shock.alpha_rho = {2.0 * (1 - eps), 2.0 * eps};
    shock.alpha = {1 - eps, eps};
    shock.velocity = {0.5, 0.0, 0.0};
    shock.pressure = 2.5;
    c.patches.push_back(shock);
    return c;
}

std::uint64_t run_case_hash(int nthreads) {
    ThreadScope threads(nthreads);
    Simulation sim(two_phase_2d_case());
    sim.initialize();
    sim.run();
    return sim.state_hash();
}

TEST(Exec, StaticAndStealPartitionsAreBitwiseIdentical) {
    // Stealing changes which thread runs a chunk, never the chunk grid,
    // so a full simulation and an ordered reduction must agree bitwise
    // between the two policies.
    const auto reduce = [] {
        return exec::ordered_reduce<double>(
            "test_part_reduce", 0, 5000, 0.0,
            [](long long lo, long long hi) {
                double s = 0.0;
                for (long long t = lo; t < hi; ++t) {
                    s += 1.0 / (1.0 + static_cast<double>(t));
                }
                return s;
            },
            [](double a, double b) { return a + b; });
    };
    std::uint64_t steal_hash = 0;
    std::uint64_t static_hash = 0;
    double steal_sum = 0.0;
    double static_sum = 0.0;
    {
        PartitionScope part(exec::Partition::Steal);
        steal_hash = run_case_hash(4);
        ThreadScope threads(4);
        steal_sum = reduce();
    }
    {
        PartitionScope part(exec::Partition::Static);
        static_hash = run_case_hash(4);
        ThreadScope threads(4);
        static_sum = reduce();
    }
    EXPECT_EQ(steal_hash, static_hash);
    EXPECT_EQ(steal_sum, static_sum);
}

TEST(Exec, ThreadedSimulationIsBitwiseIdenticalToSerial) {
    // The headline determinism claim: --threads N reproduces --threads 1
    // bitwise (FNV-1a over every interior double), because chunk bodies
    // are partition-independent and reductions use the ordered tree.
    const std::uint64_t serial = run_case_hash(1);
    EXPECT_EQ(serial, run_case_hash(2));
    EXPECT_EQ(serial, run_case_hash(4));
}

TEST(Exec, ThreadedIgrSimulationIsBitwiseIdenticalToSerial) {
    // Same contract on the IGR path (elliptic Jacobi rows + igr sweeps).
    const auto run_igr = [](int nthreads) {
        ThreadScope threads(nthreads);
        CaseConfig c = two_phase_2d_case();
        c.igr.enabled = true;
        c.igr.order = 5;
        c.igr.alf_factor = 10.0;
        c.igr.num_iters = 3;
        c.igr.num_warm_start_iters = 3;
        c.igr.iter_solver = 1;
        c.t_step_stop = 5;
        c.validate();
        Simulation sim(c);
        sim.initialize();
        sim.run();
        return sim.state_hash();
    };
    const std::uint64_t serial = run_igr(1);
    EXPECT_EQ(serial, run_igr(4));
}

// --- hybrid ranks x threads parity --------------------------------------

/// Small variant of the shock-bubble case so the full R x T sweep stays
/// affordable under TSan: 24x24 interior, decomposable by 1/2/4 ranks.
CaseConfig hybrid_case() {
    CaseConfig c = two_phase_2d_case();
    c.grid.cells = Extents{24, 24, 1};
    c.t_step_stop = 5;
    return c;
}

/// Decomposition-invariant hash of one hybrid run: R simMPI rank threads
/// (each bound to its own worker team by comm::World) of T worker
/// threads each. Rank 0's global_state_hash is the fingerprint.
std::uint64_t hybrid_hash(const CaseConfig& c, int ranks, int threads,
                          bool overlap) {
    ThreadScope scope(threads);
    const std::array<bool, 3> periodic = {c.bc[0][0] == BcType::Periodic,
                                          c.bc[1][0] == BcType::Periodic,
                                          c.bc[2][0] == BcType::Periodic};
    std::uint64_t h = 0;
    comm::World world(ranks);
    world.run([&](comm::Communicator& comm) {
        const std::array<int, 3> dims = comm::dims_create(ranks, 2);
        comm::CartComm cart(comm, dims, periodic);
        Simulation sim(c, cart);
        sim.set_overlap(overlap);
        sim.initialize();
        sim.run();
        const std::uint64_t mine = sim.global_state_hash();
        if (comm.rank() == 0) h = mine;
    });
    return h;
}

/// The acceptance sweep: every ranks x threads decomposition, sync and
/// overlap, must reproduce the serial (no-cart, one-thread) run bitwise.
void expect_hybrid_parity(const CaseConfig& c) {
    std::uint64_t serial = 0;
    {
        ThreadScope scope(1);
        Simulation sim(c);
        sim.initialize();
        sim.run();
        serial = sim.global_state_hash();
    }
    for (const bool overlap : {false, true}) {
        for (const int ranks : {1, 2, 4}) {
            for (const int threads : {1, 2, 4}) {
                EXPECT_EQ(serial, hybrid_hash(c, ranks, threads, overlap))
                    << "ranks " << ranks << ", threads " << threads
                    << (overlap ? ", overlap" : ", sync");
            }
        }
    }
}

TEST(HybridParity, FiveEquationShockBubble) {
    expect_hybrid_parity(hybrid_case());
}

TEST(HybridParity, IgrEllipticSolve) {
    CaseConfig c = hybrid_case();
    c.igr.enabled = true;
    c.igr.order = 5;
    c.igr.alf_factor = 10.0;
    c.igr.num_iters = 3;
    c.igr.num_warm_start_iters = 3;
    c.igr.iter_solver = 1;
    c.validate();
    expect_hybrid_parity(c);
}

TEST(HybridParity, SixEquationModel) {
    CaseConfig c = hybrid_case();
    c.model = ModelKind::SixEquation;
    expect_hybrid_parity(c);
}

} // namespace
} // namespace mfc
