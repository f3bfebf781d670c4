#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "core/yaml.hpp"
#include "telemetry/telemetry.hpp"

namespace mfc::telemetry {

/// Per-phase grindtime decomposition: each zone's *exclusive* wall time
/// expressed in the paper's figure of merit — ns per grid point, per
/// equation, per RHS evaluation — so the phases sum to the run's total
/// grindtime and a regression can be pinned on the kernel that caused it.
struct PhaseGrind {
    std::string path;
    int depth = 0;
    std::int64_t calls = 0;
    double exclusive_ns = 0.0;
    double grind_ns = 0.0; ///< exclusive_ns / (points * eqns * rhs_evals)
    /// Per-rank spread of grind_ns (reduce_ranks reports); equal to
    /// grind_ns otherwise.
    double min_grind_ns = 0.0;
    double max_grind_ns = 0.0;
    double percent = 0.0;  ///< share of the total measured time
    std::int64_t bytes = 0;
};

struct GrindDecomposition {
    std::vector<PhaseGrind> phases; ///< path order (subtrees contiguous)
    double total_ns = 0.0;
    double total_grind_ns = 0.0; ///< == sum of phases[i].grind_ns
};

[[nodiscard]] GrindDecomposition
grind_decomposition(const Report& report, std::int64_t grid_points,
                    std::int64_t equations, std::int64_t rhs_evals);

/// Human-readable phase table: path (indented), calls, exclusive time,
/// grindtime share. Phases below `min_percent` of the total are elided.
[[nodiscard]] TextTable decomposition_table(const GrindDecomposition& d,
                                            double min_percent = 0.0);

/// The `phases:` node written into bench YAML summaries: one map entry
/// per zone path with {grind_ns, pct, calls} scalars.
[[nodiscard]] Yaml phases_yaml(const GrindDecomposition& d);

/// Cross-rank view of a decomposed run. `ranks[r]` is rank r's window
/// report (a delta of its thread_zone_report()): ranks are threads of one
/// process, so each rank stores its report in its own slot and the caller
/// reduces after World::run joins, with no message on the instrumented
/// comm layer. Per path, calls and bytes sum over ranks, times are rank
/// means, and min/max_exclusive_ns carry the per-rank spread, so load
/// imbalance (boundary ranks skip sends) is visible per phase. A rank
/// that never entered a zone counts 0 in its min. total_ns is the
/// rank-mean total.
[[nodiscard]] Report reduce_ranks(const std::vector<Report>& ranks);

/// Table for decomposed `mfc profile` runs: per-phase mean exclusive time
/// with the min/max spread across ranks.
[[nodiscard]] TextTable rank_spread_table(const Report& reduced);

} // namespace mfc::telemetry
