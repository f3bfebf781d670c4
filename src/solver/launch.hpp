#pragma once

#include <array>
#include <cstdint>

#include "solver/case_config.hpp"
#include "telemetry/telemetry.hpp"

namespace mfc {

/// The process box a case runs on: ranks per axis, and which axes wrap.
struct CaseTopology {
    std::array<int, 3> dims{1, 1, 1};
    std::array<bool, 3> periodic{};
};

/// How `ranks` ranks split a case: dims_create over the case's active
/// axes only (validate() keeps them a prefix: x, then y, then z), so a
/// 1D or 2D case is never split along an axis of one cell; each axis is
/// periodic exactly when its BCs are. On a 3D case the box is
/// dims_create(ranks, 3).
[[nodiscard]] CaseTopology case_topology(const CaseConfig& config, int ranks);

/// What one timed launch of a case runs and collects.
struct LaunchOptions {
    /// 1 runs the serial Simulation; R > 1 runs R simMPI ranks on
    /// case_topology(config, R), each bound to its own worker team.
    int ranks = 1;
    /// Untimed steps before the window: cold caches and first-touch
    /// allocation stay out of the grindtime.
    int warmup_steps = 0;
    /// Route RHS evaluations through the task-graph scheduler.
    bool overlap = false;
    /// Collect the decomposition-invariant global state hash (a gather
    /// to rank 0 after the run).
    bool hash = false;
    /// Collect the zones entered during the timed run. Zones must be
    /// enabled (telemetry::set_enabled) for there to be any.
    bool zones = false;
    /// Collect the registry delta from the start of the timed run to the
    /// end of the launch (hash gather included); metrics are armed for
    /// the launch.
    bool metrics = false;
    /// telemetry::reset() at the start of the timed run, dropping the
    /// warm-up's zones, trace events and counter samples. Only a caller
    /// that owns the whole process may ask for it (mfc profile).
    bool reset_telemetry = false;
};

/// Rank 0's numbers of one timed launch.
struct LaunchResult {
    double wall_s = 0.0;
    double grindtime_ns = 0.0;
    long long rhs_evals = 0;
    int steps = 0; ///< steps completed, warm-up included
    std::uint64_t state_hash = 0;
    /// The timed run's zones: merged across threads at R = 1, the
    /// reduce_ranks() cross-rank view at R > 1.
    telemetry::Report zones;
    telemetry::Snapshot metrics;
};

/// Time a case the one way every verb does: construct, initialize(),
/// warm up, reset the instrumentation, start together (a barrier at
/// R > 1), run(), and report rank 0's wall time, grindtime and RHS
/// evaluations plus whatever `options` asks to collect.
[[nodiscard]] LaunchResult run_timed(const CaseConfig& config,
                                     const LaunchOptions& options);

} // namespace mfc
