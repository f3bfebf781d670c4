#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "solver/case_config.hpp"
#include "toolchain/test_suite.hpp"

namespace mfc::ensemble {

/// The heterogeneous work unit of a campaign. One JobSpec describes one
/// simulation request — a regression case, one benchmark repetition, one
/// chaos trial, or one uncertainty-quantification sample — in terms the
/// engine can schedule, hash for the result cache, and execute on any
/// worker.
enum class JobKind {
    Regression, ///< run a suite case dictionary, then its golden step
    Bench,      ///< one timed repetition of a named benchmark case
    Chaos,      ///< a fault-injection trial recovered via checkpoints
    Uq,         ///< one sampled parameter point producing an observable field
};

[[nodiscard]] std::string to_string(JobKind kind);

struct JobSpec {
    JobKind kind = JobKind::Regression;
    /// Unique human-readable id, e.g. "reg-1A2B3C4D" or "bench-igr_jacobi-2".
    /// Ids are used as YAML map keys in the campaign report, so they must
    /// not contain ':' (the parser splits keys at the first colon).
    std::string id;
    /// Case dictionary (regression, chaos, and UQ jobs).
    CaseDict params;
    /// Regression jobs: the golden ("" = pass is run-to-completion), what
    /// toolchain::golden_step does with it, and the case's trace for the
    /// golden-metadata.txt that Generate writes.
    std::string golden_path;
    toolchain::TestMode mode = toolchain::TestMode::Compare;
    std::string trace;

    // Bench jobs: named case from BenchSuite sized by mem_gb.
    std::string bench_case;
    double bench_mem_gb = 0.0002;

    // Chaos jobs: campaign seed, rank count, and checkpoint scratch dir.
    std::uint64_t chaos_seed = 1;
    int chaos_ranks = 2;
    std::string scratch_dir = ".";

    /// Bench timings change run to run, and a job that writes a golden
    /// must run to write it; everything else is deterministic and
    /// therefore cacheable.
    [[nodiscard]] bool cacheable() const {
        return kind != JobKind::Bench && mode == toolchain::TestMode::Compare;
    }
};

/// Outcome of one executed (or cache-served) job. Only deterministic
/// fields (passed, state_hash, detail, sample) enter the reproducible
/// part of the campaign report; timings feed the console/timing section.
struct JobResult {
    /// Campaign position: the job's index in the vector handed to
    /// Engine::run, stamped by the engine. Consumers observe results in
    /// index order, so every report is deterministic regardless of
    /// completion order.
    long long index = 0;
    std::string id;
    JobKind kind = JobKind::Regression;
    bool passed = false;
    bool from_cache = false;
    std::uint64_t key = 0; ///< cache key (job_key of the spec)
    std::string detail;    ///< failure reason or deterministic counters
    std::uint64_t state_hash = 0; ///< final-state fingerprint (0 for bench)
    /// UQ observable (flattened post-layer field); empty otherwise.
    std::vector<double> sample;

    // Non-deterministic measurements (never cached, never in the
    // reproducible report sections).
    double wall_s = 0.0;
    double grindtime_ns = 0.0;
    std::string top_phase;     ///< per-job zone attribution ("" when off)
    double top_phase_pct = 0.0;
};

/// Execute one job on the calling thread. Never throws: failures land in
/// {passed = false, detail}. Simulations inside the job may call
/// exec::parallel_for; when the caller is itself a pool worker the nested
/// region degrades to inline-serial (the exec try-lock path), so campaign
/// workers and pencil-kernel threads compose without deadlock.
[[nodiscard]] JobResult execute_job(const JobSpec& spec);

/// One regression job per case of `suite` in `cases`, in order: id
/// `reg-<UUID>`, the case's parameters and trace, its golden under the
/// suite's root, and `mode`. `mfc test` runs exactly these jobs.
[[nodiscard]] std::vector<JobSpec> regression_jobs(
    const toolchain::TestSuite& suite,
    std::span<const toolchain::TestCaseDef> cases, toolchain::TestMode mode);

} // namespace mfc::ensemble
