#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "comm/cart.hpp"
#include "core/error.hpp"
#include "exec/exec.hpp"
#include "resilience/fault.hpp"
#include "sched/sched.hpp"
#include "solver/launch.hpp"
#include "solver/simulation.hpp"
#include "telemetry/telemetry.hpp"

namespace mfc {
namespace {

using namespace std::chrono_literals;

// --- TaskGraph unit tests -----------------------------------------------

TEST(TaskGraph, LinearChainRunsInOrder) {
    sched::TaskGraph g;
    std::vector<int> order;
    const auto a = g.add("a", [&] { order.push_back(0); });
    const auto b = g.add("b", [&] { order.push_back(1); });
    const auto c = g.add("c", [&] { order.push_back(2); });
    g.edge(a, b);
    g.edge(b, c);
    g.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(g.trace(), (std::vector<sched::TaskGraph::NodeId>{a, b, c}));
}

TEST(TaskGraph, IndependentNodesRunInIdOrder) {
    // Deterministic tie-break: among runnable compute nodes the lowest id
    // runs first, regardless of insertion quirks.
    sched::TaskGraph g;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        g.add("n", [&order, i] { order.push_back(i); });
    }
    g.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TaskGraph, DiamondDependencies) {
    sched::TaskGraph g;
    std::vector<char> order;
    const auto a = g.add("a", [&] { order.push_back('a'); });
    const auto b = g.add("b", [&] { order.push_back('b'); });
    const auto c = g.add("c", [&] { order.push_back('c'); });
    const auto d = g.add("d", [&] { order.push_back('d'); });
    g.edge(a, b);
    g.edge(a, c);
    g.edge(b, d);
    g.edge(c, d);
    g.run();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order.front(), 'a');
    EXPECT_EQ(order.back(), 'd');
}

TEST(TaskGraph, PollableIsTestPolledBetweenComputeNodes) {
    // A pollable that needs several polls to complete: compute nodes keep
    // the scheduler busy, so the pollable must see nonblocking test polls
    // before any blocking wait.
    sched::TaskGraph g;
    int polls = 0;
    bool saw_nonblocking = false;
    const auto p = g.add_pollable("comm", [&](bool block) {
        ++polls;
        if (!block) saw_nonblocking = true;
        return block || polls >= 3;
    });
    int computed = 0;
    for (int i = 0; i < 4; ++i) {
        g.add("work", [&] { ++computed; });
    }
    const auto gated = g.add("gated", [&] {
        EXPECT_GE(polls, 1);
        ++computed;
    });
    g.edge(p, gated);
    g.run();
    EXPECT_EQ(computed, 5);
    EXPECT_TRUE(saw_nonblocking);
    EXPECT_GE(g.stats()[static_cast<std::size_t>(p)].polls, 1);
}

TEST(TaskGraph, BlockingPollWhenNothingElseRunnable) {
    // With no compute node runnable the scheduler must hard-block on the
    // pollable (block = true) instead of spinning.
    sched::TaskGraph g;
    bool blocked = false;
    const auto p = g.add_pollable("comm", [&](bool block) {
        if (block) blocked = true;
        return block;
    });
    bool after = false;
    const auto tail = g.add("tail", [&] { after = true; });
    g.edge(p, tail);
    g.run();
    EXPECT_TRUE(blocked);
    EXPECT_TRUE(after);
}

TEST(TaskGraph, CycleIsDetected) {
    sched::TaskGraph g;
    const auto a = g.add("a", [] {});
    const auto b = g.add("b", [] {});
    g.edge(a, b);
    g.edge(b, a);
    EXPECT_THROW(g.run(), Error);
}

TEST(TaskGraph, GraphIsSingleUse) {
    sched::TaskGraph g;
    g.add("a", [] {});
    g.run();
    EXPECT_THROW(g.run(), Error);
}

TEST(TaskGraph, StatsRecordExecutionWindows) {
    sched::TaskGraph g;
    const auto a = g.add("first", [] {});
    const auto b = g.add("second", [] {});
    g.edge(a, b);
    g.run();
    const auto& st = g.stats();
    ASSERT_EQ(st.size(), 2u);
    EXPECT_STREQ(st[static_cast<std::size_t>(a)].name, "first");
    EXPECT_STREQ(st[static_cast<std::size_t>(b)].name, "second");
    for (const auto& s : st) {
        EXPECT_GE(s.ready_ns, 0);
        EXPECT_GE(s.done_ns, s.ready_ns);
        EXPECT_GE(s.exec_ns, 0);
    }
    // b becomes ready only once a is done.
    EXPECT_GE(st[static_cast<std::size_t>(b)].ready_ns,
              st[static_cast<std::size_t>(a)].done_ns);
}

TEST(TaskGraph, IndependentReadyNodesRunConcurrentlyOnTeam) {
    // With a worker team bound, a batch of independent ready compute
    // nodes executes concurrently (each node occupies its own team
    // slot), while completion — stats, trace, successor release — stays
    // in id order. Each node waits until all three are simultaneously
    // in flight, which can only resolve if the scheduler really ran
    // them on distinct threads.
    const int prev_threads = exec::num_threads();
    exec::set_num_threads(4);
    sched::TaskGraph g;
    std::atomic<int> inside{0};
    std::atomic<int> peak{0};
    std::atomic<bool> released{false};
    const auto body = [&] {
        const int now = inside.fetch_add(1) + 1;
        int seen = peak.load();
        while (seen < now && !peak.compare_exchange_weak(seen, now)) {
        }
        // Latched: the third node in flight releases everyone, so the
        // wait cannot outlive the rendezvous it is probing for.
        if (now == 3) released.store(true);
        for (long long spin = 0; !released.load() && spin < 40'000'000;
             ++spin) {
            std::this_thread::yield();
        }
        inside.fetch_sub(1);
    };
    const auto a = g.add("a", body);
    const auto b = g.add("b", body);
    const auto c = g.add("c", body);
    g.run();
    exec::set_num_threads(prev_threads);
    EXPECT_GE(peak.load(), 2);
    EXPECT_EQ(g.trace(),
              (std::vector<sched::TaskGraph::NodeId>{a, b, c}));
}

// --- overlap graph vs synchronous path ----------------------------------

CaseConfig overlap_case_2d(int steps) {
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

CaseConfig overlap_case_3d(int steps) {
    CaseConfig c = overlap_case_2d(steps);
    c.grid.cells = Extents{12, 12, 12};
    c.patches[1].center = {0.5, 0.5, 0.5};
    c.patches[1].radius = 0.25;
    return c;
}

/// Per-rank state hashes of a decomposed run (nranks == 1 still goes
/// through World + CartComm so the overlap and sync runs see identical
/// decompositions).
std::vector<std::uint64_t> decomposed_hashes(const CaseConfig& c, int nranks,
                                             bool overlap) {
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

/// The acceptance sweep: overlap must be bitwise-identical to the
/// synchronous path at every rank and thread count.
void expect_overlap_parity(const CaseConfig& c) {
    for (const int nranks : {1, 2, 4}) {
        for (const int threads : {1, 4}) {
            exec::set_num_threads(threads);
            const auto sync_h = decomposed_hashes(c, nranks, false);
            const auto over_h = decomposed_hashes(c, nranks, true);
            exec::set_num_threads(1);
            ASSERT_EQ(sync_h.size(), over_h.size());
            for (std::size_t r = 0; r < sync_h.size(); ++r) {
                EXPECT_EQ(sync_h[r], over_h[r])
                    << "rank " << r << " of " << nranks << ", threads "
                    << threads;
            }
        }
    }
}

TEST(OverlapParity, PeriodicFiveEquation) {
    expect_overlap_parity(overlap_case_2d(6));
}

TEST(OverlapParity, ExtrapolationBoundaries) {
    CaseConfig c = overlap_case_2d(6);
    for (auto& b : c.bc) b = {BcType::Extrapolation, BcType::Extrapolation};
    expect_overlap_parity(c);
}

TEST(OverlapParity, ViscousCrossDerivatives) {
    // Viscous sources read edge/corner ghosts — pins the edges from the
    // sources node back to every prim_ghost slab.
    CaseConfig c = overlap_case_2d(5);
    c.viscous = true;
    c.viscosity = {0.02, 0.01};
    for (auto& b : c.bc) b = {BcType::Extrapolation, BcType::Extrapolation};
    expect_overlap_parity(c);
}

TEST(OverlapParity, IgrSigmaJoinsTheGraph) {
    CaseConfig c = overlap_case_2d(5);
    c.igr.enabled = true;
    expect_overlap_parity(c);
}

TEST(OverlapParity, SixEquationModel) {
    CaseConfig c = overlap_case_2d(5);
    c.model = ModelKind::SixEquation;
    expect_overlap_parity(c);
}

TEST(OverlapParity, ThreeDimensional) {
    expect_overlap_parity(overlap_case_3d(3));
}

TEST(OverlapParity, SerialBlockMatchesSyncPath) {
    // cart == nullptr: the graph degenerates to the BC chain plus the
    // core/shell sweeps; still must be bitwise-identical.
    const CaseConfig c = overlap_case_2d(6);
    Simulation sync_sim(c);
    sync_sim.initialize();
    sync_sim.run();
    Simulation over_sim(c);
    over_sim.set_overlap(true);
    over_sim.initialize();
    over_sim.run();
    EXPECT_EQ(sync_sim.state_hash(), over_sim.state_hash());
    ASSERT_NE(over_sim.overlap(), nullptr);
    EXPECT_TRUE(over_sim.overlap()->graph_active());
}

TEST(OverlapParity, CharacteristicWenoFallsBackToSync) {
    CaseConfig c;
    c.model = ModelKind::Euler;
    c.num_fluids = 1;
    c.fluids = {{1.4, 0.0}};
    c.grid.cells = Extents{16, 16, 1};
    c.dt = 5.0e-4;
    c.t_step_stop = 4;
    for (auto& b : c.bc) b = {BcType::Extrapolation, BcType::Extrapolation};
    c.char_decomp = true;
    Patch bg;
    bg.alpha_rho = {1.0};
    bg.pressure = 1.0;
    c.patches.push_back(bg);
    Patch blast;
    blast.geometry = Patch::Geometry::Sphere;
    blast.center = {0.5, 0.5, 0.5};
    blast.radius = 0.2;
    blast.alpha_rho = {1.0};
    blast.pressure = 5.0;
    c.patches.push_back(blast);
    Simulation sync_sim(c);
    sync_sim.initialize();
    sync_sim.run();
    Simulation over_sim(c);
    over_sim.set_overlap(true);
    over_sim.initialize();
    over_sim.run();
    EXPECT_EQ(sync_sim.state_hash(), over_sim.state_hash());
    ASSERT_NE(over_sim.overlap(), nullptr);
    EXPECT_FALSE(over_sim.overlap()->graph_active());
}

// --- graph ordering and overlap accounting ------------------------------

TEST(OverlapGraph, NoBoundaryWorkBeforeItsHaloWait) {
    const CaseConfig c = overlap_case_2d(2);
    comm::World world(4);
    world.run([&](comm::Communicator& comm) {
        comm::CartComm cart(comm, {2, 2, 1}, {true, true, true});
        Simulation sim(c, cart);
        sim.set_overlap(true);
        sim.initialize();
        sim.run();

        ASSERT_NE(sim.overlap(), nullptr);
        const auto& nodes = sim.overlap()->last_nodes();
        const auto& trace = sim.overlap()->last_trace();
        ASSERT_FALSE(trace.empty());

        auto pos = [&](const std::string& name) {
            for (std::size_t t = 0; t < trace.size(); ++t) {
                const auto id = static_cast<std::size_t>(trace[t]);
                if (nodes[id].name == name) return static_cast<long>(t);
            }
            return -1L;
        };
        const char* dims[2][4] = {
            {"halo_post_x", "halo_wait_x", "bc_x", "shell_x"},
            {"halo_post_y", "halo_wait_y", "bc_y", "shell_y"},
        };
        for (const auto& d : dims) {
            const long post = pos(d[0]), wait = pos(d[1]), bc = pos(d[2]),
                       shell = pos(d[3]);
            ASSERT_GE(post, 0) << d[0];
            ASSERT_GE(wait, 0) << d[1];
            ASSERT_GE(bc, 0) << d[2];
            ASSERT_GE(shell, 0) << d[3];
            EXPECT_LT(post, wait);
            EXPECT_LT(wait, bc);
            EXPECT_LT(bc, shell);
        }
    });
}

TEST(OverlapGraph, TelemetryAccumulatesAcrossRuns) {
    // The per-run accounting moved into the telemetry registry: graph
    // runs, halo bytes, and communication exposure are read back as a
    // snapshot delta over the run window.
    const CaseConfig c = overlap_case_2d(3);
    const bool was_armed = telemetry::armed();
    telemetry::set_armed(true);
    const telemetry::Snapshot before = telemetry::snapshot();
    long long evals = 0;
    comm::World world(2);
    world.run([&](comm::Communicator& comm) {
        comm::CartComm cart(comm, {2, 1, 1}, {true, true, true});
        Simulation sim(c, cart);
        sim.set_overlap(true);
        sim.initialize();
        sim.run();
        ASSERT_NE(sim.overlap(), nullptr);
        if (comm.rank() == 0) evals = sim.rhs_evals();
    });
    const telemetry::Snapshot d =
        telemetry::delta(before, telemetry::snapshot());
    if (!was_armed) telemetry::set_armed(false);
    // Every rank runs the graph once per RHS evaluation; the registry is
    // process-wide, so the count is ranks x rhs_evals.
    EXPECT_EQ(d.value("sched.graph_runs"), 2 * evals);
    EXPECT_GT(d.value("sched.nodes_executed"), 0);
    EXPECT_GT(d.value("halo.bytes.x"), 0);
    const double in_flight =
        static_cast<double>(d.value("sched.comm_in_flight_ns"));
    const double exposed =
        static_cast<double>(d.value("sched.comm_exposed_ns"));
    EXPECT_GE(in_flight, 0.0);
    const double ratio =
        in_flight > 0.0 ? std::max(0.0, in_flight - exposed) / in_flight : 0.0;
    EXPECT_GE(ratio, 0.0);
    EXPECT_LE(ratio, 1.0);
}

// --- resilience through the nonblocking path ----------------------------

comm::ResilienceConfig fast_detector() {
    comm::ResilienceConfig rc;
    rc.armed = true;
    rc.op_timeout = 2ms;
    rc.max_retries = 3;
    return rc;
}

TEST(OverlapChaos, CorruptedHaloIsDiagnosedThroughNonblockingPath) {
    // A corrupted halo payload must be caught by the checksum detector
    // even when the exchange goes through isend/irecv + test/wait instead
    // of the synchronous sendrecv.
    resilience::FaultPlan plan;
    plan.seed = 29;
    plan.faults.push_back(
        resilience::FaultSpec{resilience::FaultKind::Corrupt, 0, 1, 1.0, 0});
    resilience::FaultInjector inj(plan, 2);

    const CaseConfig c = overlap_case_2d(4);
    comm::World world(2);
    world.set_resilience(fast_detector());
    world.set_fault_hook(&inj);
    bool diagnosed = false;
    try {
        world.run([&](comm::Communicator& comm) {
            comm::CartComm cart(comm, {2, 1, 1}, {true, true, true});
            Simulation sim(c, cart);
            sim.set_overlap(true);
            sim.initialize();
            for (int s = 0; s < c.t_step_stop; ++s) {
                inj.on_step(comm.rank(), s);
                sim.step();
            }
        });
    } catch (const comm::RankFailure& rf) {
        diagnosed = true;
        EXPECT_EQ(rf.failed_rank(), 0);
        EXPECT_EQ(rf.cause(), comm::RankFailure::Cause::Corruption);
    }
    EXPECT_TRUE(diagnosed);
}

} // namespace
} // namespace mfc
