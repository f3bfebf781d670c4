#include "solver/launch.hpp"

#include <optional>
#include <vector>

#include "comm/cart.hpp"
#include "core/error.hpp"
#include "solver/simulation.hpp"
#include "telemetry/report.hpp"

namespace mfc {

CaseTopology case_topology(const CaseConfig& config, int ranks) {
    CaseTopology t;
    t.dims = comm::dims_create(ranks, config.grid.dims());
    for (std::size_t d = 0; d < 3; ++d) {
        t.periodic[d] = config.bc[d][0] == BcType::Periodic;
    }
    return t;
}

LaunchResult run_timed(const CaseConfig& config, const LaunchOptions& options) {
    MFC_REQUIRE(options.ranks >= 1, "launch: ranks must be positive");
    MFC_REQUIRE(options.warmup_steps >= 0,
                "launch: warm-up steps must be non-negative");
    std::optional<telemetry::SwitchScope> armed;
    if (options.metrics) {
        armed.emplace(telemetry::armed, telemetry::set_armed, true);
    }
    const bool zones_on = telemetry::enabled();

    LaunchResult r;
    telemetry::Snapshot before;
    const auto prepare = [&](Simulation& sim) {
        sim.set_overlap(options.overlap);
        sim.initialize();
        for (int s = 0; s < options.warmup_steps; ++s) sim.step();
        sim.reset_instrumentation();
    };
    const auto report = [&](const Simulation& sim, std::uint64_t hash) {
        r.wall_s = sim.wall_seconds();
        r.grindtime_ns = sim.grindtime();
        r.rhs_evals = sim.rhs_evals();
        r.steps = sim.steps_done();
        r.state_hash = hash;
    };

    if (options.ranks == 1) {
        Simulation sim(config);
        prepare(sim);
        if (options.reset_telemetry) telemetry::reset();
        if (options.metrics) before = telemetry::snapshot();
        // Merged across threads: worker-side kernel zones (per-thread
        // attribution of the pencil sweeps) fold into one tree.
        const telemetry::Report zones_before =
            options.zones ? telemetry::zone_report() : telemetry::Report{};
        sim.run();
        if (options.zones) {
            r.zones = telemetry::delta(zones_before, telemetry::zone_report());
        }
        report(sim, options.hash ? sim.global_state_hash() : 0);
    } else {
        // Each rank keeps its own window's zones in its own slot for the
        // cross-rank reduction after the join, so no profiler byte
        // crosses the instrumented communicator.
        const CaseTopology topo = case_topology(config, options.ranks);
        std::vector<telemetry::Report> windows(
            options.zones ? static_cast<std::size_t>(options.ranks) : 0);
        comm::World world(options.ranks);
        world.run([&](comm::Communicator& comm) {
            comm::CartComm cart(comm, topo.dims, topo.periodic);
            Simulation sim(config, cart);
            prepare(sim);
            // Start the timed run together. A process-wide window (reset,
            // registry snapshot) opens on rank 0 between two barriers,
            // with every rank idle; reset() also needs no zone open, so
            // zones stay off while the ranks meet, which keeps the
            // barriers out of the profile.
            if (options.reset_telemetry) telemetry::set_enabled(false);
            comm.barrier();
            if (options.reset_telemetry || options.metrics) {
                if (comm.rank() == 0) {
                    if (options.reset_telemetry) telemetry::reset();
                    if (options.metrics) before = telemetry::snapshot();
                }
                comm.barrier();
            }
            if (options.reset_telemetry) telemetry::set_enabled(zones_on);
            const telemetry::Report zones_before =
                options.zones ? telemetry::thread_zone_report()
                              : telemetry::Report{};
            sim.run();
            if (options.zones) {
                windows[static_cast<std::size_t>(comm.rank())] =
                    telemetry::delta(zones_before,
                                     telemetry::thread_zone_report());
            }
            // Collective: every rank sends its block to rank 0.
            const std::uint64_t hash =
                options.hash ? sim.global_state_hash() : 0;
            if (comm.rank() == 0) report(sim, hash);
        });
        if (options.zones) r.zones = telemetry::reduce_ranks(windows);
    }
    // Ranks are threads of this process, so the process-wide registry
    // delta already is the all-rank sum.
    if (options.metrics) {
        r.metrics = telemetry::delta(before, telemetry::snapshot());
    }
    return r;
}

} // namespace mfc
