#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/table.hpp"
#include "core/yaml.hpp"
#include "solver/case_config.hpp"
#include "telemetry/report.hpp"

namespace mfc::toolchain {

/// One benchmark case's measured performance.
struct BenchCaseResult {
    std::string name;
    long long cells = 0;
    int eqns = 0;
    int steps = 0;
    int warmup_steps = 0;
    int ranks = 1;
    double wall_s = 0.0;
    double grindtime_ns = 0.0;
    /// Grindtime decomposition; decomposed runs carry the per-rank
    /// spread in min/max. Empty when profiling is off.
    std::vector<telemetry::PhaseGrind> phases;
};

/// Tunables riding along with the --mem/-n sizing arguments.
struct BenchOptions {
    /// Untimed steps run before the measurement so the first timed step
    /// does not pay cold-cache and first-touch allocation cost.
    int warmup_steps = 1;
    /// Collect the per-phase grindtime decomposition (telemetry zones)
    /// and emit it as the `phases:` section of the YAML summary.
    bool profile = true;
    /// When positive, run a chaos campaign of this many trials on a small
    /// standardized case and emit its deterministic counters as the
    /// `resilience:` section of the YAML summary, so fault-tolerance
    /// behavior can be compared across builds with bench_diff.
    int chaos_trials = 0;
    /// Worker threads per rank for the `cases:` section (--threads).
    /// Thread scaling is the 1xT rows of `rank_thread_grid`.
    int threads = 1;
    /// Rerun every case through the task-graph overlap scheduler
    /// (src/sched) as well as the synchronous path and emit an `overlap:`
    /// section: grindtime with and without --overlap, the measured
    /// overlap ratio (communication hidden / in flight), and whether the
    /// two runs were bitwise identical.
    bool overlap = false;
    /// Also emit the scheduling/timing classes of the telemetry registry
    /// in the summary's `metrics:` section (--timing). The deterministic
    /// class is always emitted; the non-deterministic classes are opt-in
    /// so the default summary stays byte-comparable.
    bool timing = false;
    /// Hybrid decompositions to sweep (--ranks-threads): (ranks, threads)
    /// pairs, each running all five cases at the *serial* problem size
    /// decomposed over R ranks of T worker threads, emitted as a
    /// `rank_thread_sweep:` section with the grindtime-optimal
    /// decomposition per case. Empty (the default) skips the sweep.
    std::vector<std::pair<int, int>> rank_thread_grid{};
};

/// Feasible R×T decompositions of this host for --ranks-threads auto:
/// power-of-two rank and thread counts with R*T within the hardware
/// concurrency (always at least 1x1).
[[nodiscard]] std::vector<std::pair<int, int>> auto_rank_thread_grid();

/// The automated benchmark suite (Section 5): five cases covering the
/// most commonly used features, each sized from a memory-per-rank target
/// and scalable to any rank count, with results summarized in a single
/// YAML file. Executed for real on this host through run_timed() —
/// serially for one rank, through simMPI threads otherwise.
class BenchSuite {
public:
    /// `mem_per_rank_gb` is the --mem argument (Table 2): approximate
    /// problem size per rank in GB of state memory.
    BenchSuite(double mem_per_rank_gb, int ranks, BenchOptions options = {});

    [[nodiscard]] static const std::vector<std::string>& case_names();

    /// The case configuration a named benchmark runs (sized per rank
    /// memory and rank count); exposed for tests and documentation.
    [[nodiscard]] CaseConfig case_config(const std::string& name) const;

    [[nodiscard]] BenchCaseResult run_case(const std::string& name) const;

    /// One sync + one overlap run of a named case on this suite's rank
    /// count, compared bitwise. Used by the `overlap:` section.
    struct OverlapCaseResult {
        double grind_sync_ns = 0.0;
        double grind_overlap_ns = 0.0;
        double overlap_ratio = 0.0;  ///< hidden / in-flight comm time
        double in_flight_ms = 0.0;   ///< summed across ranks
        bool hash_match = false;     ///< overlap bitwise == synchronous
    };
    [[nodiscard]] OverlapCaseResult
    run_overlap_case(const std::string& name) const;

    /// Run all five cases; `invocation` is recorded in the YAML summary
    /// ("a summary of the invocation used to run the benchmark").
    [[nodiscard]] Yaml run_all(const std::string& invocation) const;

private:
    /// case_config at an explicit rank count (the sweep sizes every
    /// decomposition from ranks=1 so grindtimes stay comparable).
    [[nodiscard]] CaseConfig case_config_sized(const std::string& name,
                                               int ranks) const;

    double mem_gb_;
    int ranks_;
    BenchOptions options_;
};

/// The bench_diff tool: compare two benchmark YAML summaries and render
/// the human-readable table (reference vs candidate grindtime, speedup).
/// When both summaries carry `phases:` sections, a final column names the
/// worst-regressing phase — the kernel to blame for a slowdown. Summaries
/// from older builds may lack `phases:`, `resilience:`, or whole cases;
/// every missing quantity degrades to an "n/a" cell, never a throw.
[[nodiscard]] TextTable bench_diff(const Yaml& reference, const Yaml& candidate);

/// Full bench_diff report: the grindtime table plus, when at least one
/// side carries a `resilience:` or `ensemble:` section, further tables
/// comparing the chaos-campaign and campaign-engine counters (a side or
/// key missing — e.g. a baseline predating `mfc bench --ensemble` —
/// renders as "n/a", never a throw).
///
/// When both sides carry a telemetry `metrics:` section, a final table
/// compares the registry counters with per-class tolerance bands:
/// deterministic metrics must agree within ±10%, scheduling metrics
/// within a 2x band, and timing metrics are informational. Every
/// out-of-band metric adds a FAIL row and increments `*failures` (when
/// given) — `mfc bench-diff` turns a non-zero count into exit code 1.
[[nodiscard]] std::string bench_diff_report(const Yaml& reference,
                                            const Yaml& candidate,
                                            int* failures = nullptr);

} // namespace mfc::toolchain
