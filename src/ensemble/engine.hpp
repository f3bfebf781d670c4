#pragma once

#include <string>
#include <vector>

#include "core/yaml.hpp"
#include "ensemble/consumers.hpp"
#include "ensemble/job.hpp"

namespace mfc::ensemble {

struct EngineOptions {
    /// Campaign worker slots; 0 means one per exec pool thread. Only the
    /// repository benchmark sets it (to its thread count): a job's own
    /// loops run inline, so any other slot count only idles threads.
    int workers = 0;
    /// Result-cache directory; "" disables caching.
    std::string cache_dir;
    /// Stop the campaign at the first delivered failure.
    bool fail_fast = false;
    /// Stop once more than this many failures have been delivered
    /// (< 0 disables).
    int max_failures = -1;
    /// Add a non-deterministic `timing:` section (wall times, per-job
    /// phase attribution) to the report.
    bool timing = false;
};

/// Deterministic-except-where-noted campaign accounting. The cache split
/// (executed vs cached) depends on cache state and wall_s on scheduling;
/// everything else is reproducible for a fixed job list.
struct CampaignSummary {
    long long total = 0;     ///< jobs submitted
    long long delivered = 0; ///< results delivered to consumers (a prefix)
    long long executed = 0;  ///< delivered results computed fresh
    long long cached = 0;    ///< delivered results served from the cache
    long long passed = 0;
    long long failed = 0;
    long long cancelled = 0; ///< total - delivered (fail-fast / max-failures)
    /// Always 0: slots claim jobs from one shared cursor and steal
    /// nothing. Kept because the repository benchmark reads it.
    long long steals = 0;
    int workers = 0;
    double wall_s = 0.0;

    [[nodiscard]] bool ok() const { return failed == 0 && cancelled == 0; }
};

/// The campaign engine: worker slots layered on the exec worker pool.
///
/// One exec::parallel_for runs the slots. Each slot claims the next
/// index of the caller's job vector from one shared atomic cursor and
/// executes that job, until the vector is exhausted or the stop policy
/// (fail-fast / max-failures) has fired. Jobs are whole simulations; any
/// parallel_for they issue degrades to inline-serial via the exec
/// nested-dispatch guard, so the machine runs one simulation per slot
/// with no oversubscription and no deadlock.
///
/// Completed results enter a reorder buffer and are delivered to every
/// registered consumer strictly in job-index order. That single decision
/// buys all the determinism guarantees: reports are byte-identical across
/// worker counts and completion orders, streaming Welford moments match a
/// serial reference bitwise, and the fail-fast cutoff lands on the same
/// job every run (delivery halts at the triggering job; later results are
/// discarded and counted as cancelled).
class Engine {
public:
    explicit Engine(EngineOptions options) : options_(std::move(options)) {}

    /// Register a consumer (not owned; must outlive run()). Consumers
    /// receive results in index order, on whichever worker thread
    /// delivers, one at a time (the engine serializes delivery).
    void add_consumer(Consumer* consumer) { consumers_.push_back(consumer); }

    /// Execute the campaign. A job's index (JobResult::index) is its
    /// position in `jobs`. Deterministic report sections (summary, kinds,
    /// failures, consumer sections) are written into `report`; a
    /// `timing:` section is appended when EngineOptions::timing is set.
    CampaignSummary run(const std::vector<JobSpec>& jobs, Yaml& report);

private:
    EngineOptions options_;
    std::vector<Consumer*> consumers_;
};

} // namespace mfc::ensemble
