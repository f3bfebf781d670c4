#include "ensemble/job.hpp"

#include <exception>
#include <utility>

#include "core/error.hpp"
#include "post/derived.hpp"
#include "resilience/chaos.hpp"
#include "solver/simulation.hpp"
#include "telemetry/telemetry.hpp"
#include "toolchain/bench_suite.hpp"
#include "toolchain/golden.hpp"

namespace mfc::ensemble {

std::string to_string(JobKind kind) {
    switch (kind) {
    case JobKind::Regression: return "regression";
    case JobKind::Bench: return "bench";
    case JobKind::Chaos: return "chaos";
    case JobKind::Uq: return "uq";
    }
    MFC_ASSERT(false);
}

namespace {

/// Flatten a post-layer field's interior in x-fastest order — the
/// deterministic UQ observable layout the moment accumulator consumes.
std::vector<double> flatten_interior(const Field& f) {
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(f.extents().cells()));
    for (int k = 0; k < f.nz(); ++k) {
        for (int j = 0; j < f.ny(); ++j) {
            for (int i = 0; i < f.nx(); ++i) out.push_back(f(i, j, k));
        }
    }
    return out;
}

/// Top exclusive phase of the job's window on the calling thread (a
/// delta of two thread_zone_report()s) — per-job attribution that stays
/// correct with concurrent jobs because zone state is thread-local and
/// nested parallel_for regions run inline on the worker executing the job.
void attribute_phases(const telemetry::Report& window, JobResult& r) {
    double best = 0.0;
    double total = 0.0;
    for (const telemetry::ZoneStats& z : window.zones) {
        if (z.exclusive_ns <= 0.0) continue;
        total += z.exclusive_ns;
        if (z.exclusive_ns > best) {
            best = z.exclusive_ns;
            r.top_phase = z.path;
        }
    }
    r.top_phase_pct = total > 0.0 ? 100.0 * best / total : 0.0;
}

void run_simulation_job(const JobSpec& spec, JobResult& r) {
    const CaseConfig config = config_from_dict(spec.params);
    Simulation sim(config);
    sim.initialize();
    sim.run();
    r.state_hash = sim.state_hash();
    r.wall_s = sim.wall_seconds();
    r.grindtime_ns = sim.grindtime();
    r.passed = true;

    if (spec.kind == JobKind::Uq) {
        // The UQ observable: the mixture pressure field of the final
        // state, computed through the post layer. Per-cell mean/variance
        // over all samples is accumulated by the MomentFieldAccumulator.
        r.sample = flatten_interior(
            post::pressure(config.layout(), config.fluids, sim.state()));
    }
    if (!spec.golden_path.empty()) {
        const toolchain::GoldenFile golden =
            toolchain::GoldenFile::load(spec.golden_path);
        const toolchain::GoldenFile current(sim.flattened_outputs());
        const toolchain::CompareResult cmp =
            toolchain::compare_golden(golden, current);
        r.passed = cmp.ok;
        if (!cmp.ok) r.detail = cmp.message;
    }
}

void run_bench_job(const JobSpec& spec, JobResult& r) {
    // One timed repetition of a named benchmark case. The simulation is
    // run directly (not through BenchSuite::run_case) so the campaign
    // never toggles the global profiler state from a worker thread while
    // other jobs hold zones open.
    const toolchain::BenchSuite suite(spec.bench_mem_gb, /*ranks=*/1);
    const CaseConfig config = suite.case_config(spec.bench_case);
    Simulation sim(config);
    sim.initialize();
    sim.step(); // warm-up: first-touch and cold caches stay untimed
    sim.reset_instrumentation();
    sim.run();
    r.wall_s = sim.wall_seconds();
    r.grindtime_ns = sim.grindtime();
    r.passed = r.wall_s > 0.0 && sim.steps_done() > config.t_step_stop;
    if (!r.passed) r.detail = "benchmark run did not complete";
}

void run_chaos_job(const JobSpec& spec, JobResult& r) {
    const CaseConfig config = config_from_dict(spec.params);
    resilience::ChaosOptions opts;
    opts.trials = 1;
    opts.seed = spec.chaos_seed;
    opts.reference_check = true;
    opts.recovery.ranks = spec.chaos_ranks;
    opts.recovery.checkpoint_interval = 3;
    opts.recovery.checkpoint_dir = spec.scratch_dir;
    // Unique checkpoint prefix per job: concurrent chaos trials must not
    // overwrite each other's slots.
    opts.recovery.tag = "ens_" + spec.id;
    const resilience::ChaosReport rep = resilience::run_campaign(config, opts);
    r.passed = rep.all_clear();
    r.state_hash = rep.reference_hash;
    r.detail = "detected " + std::to_string(rep.faults_detected) + "/" +
               std::to_string(rep.faults_detectable) + " rollbacks " +
               std::to_string(rep.rollbacks + rep.cold_restarts) +
               " replayed " + std::to_string(rep.steps_replayed);
}

} // namespace

JobResult execute_job(const JobSpec& spec) {
    JobResult r;
    r.index = spec.index;
    r.id = spec.id;
    r.kind = spec.kind;
    // The worker's "ensemble_campaign" chunk zone stays open across the
    // job, so it drops out of the delta; attribute_phases reads only the
    // zones the job entered, not total_ns.
    const bool attribute = telemetry::enabled();
    const telemetry::Report before =
        attribute ? telemetry::thread_zone_report() : telemetry::Report{};
    try {
        switch (spec.kind) {
        case JobKind::Regression:
        case JobKind::Uq: run_simulation_job(spec, r); break;
        case JobKind::Bench: run_bench_job(spec, r); break;
        case JobKind::Chaos: run_chaos_job(spec, r); break;
        }
    } catch (const std::exception& e) {
        r.passed = false;
        r.detail = std::string("job failed: ") + e.what();
    }
    if (attribute) {
        attribute_phases(
            telemetry::delta(before, telemetry::thread_zone_report()), r);
    }
    return r;
}

} // namespace mfc::ensemble
