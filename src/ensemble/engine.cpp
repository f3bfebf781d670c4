#include "ensemble/engine.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <utility>

#include "ensemble/cache.hpp"
#include "exec/exec.hpp"
#include "telemetry/telemetry.hpp"

namespace mfc::ensemble {

namespace {

// Delivered-job accounting; all Det — for a fixed job list and cache
// state the delivered prefix is identical across worker counts, which is
// exactly the engine's determinism contract.
telemetry::Counter t_jobs_regression("ensemble.jobs.regression");
telemetry::Counter t_jobs_bench("ensemble.jobs.bench");
telemetry::Counter t_jobs_chaos("ensemble.jobs.chaos");
telemetry::Counter t_jobs_uq("ensemble.jobs.uq");
telemetry::Counter t_cache_hits("ensemble.cache_hits");
telemetry::Counter t_cache_misses("ensemble.cache_misses");

telemetry::Counter& kind_counter(JobKind kind) {
    switch (kind) {
    case JobKind::Regression: return t_jobs_regression;
    case JobKind::Bench: return t_jobs_bench;
    case JobKind::Chaos: return t_jobs_chaos;
    case JobKind::Uq: return t_jobs_uq;
    }
    return t_jobs_regression;
}

/// Non-deterministic per-job measurements kept aside for the optional
/// timing section.
struct TimingRow {
    std::string id;
    double wall_s = 0.0;
    double grindtime_ns = 0.0;
    std::string top_phase;
    double top_phase_pct = 0.0;
    bool from_cache = false;
};

} // namespace

CampaignSummary Engine::run(const std::vector<JobSpec>& jobs, Yaml& report) {
    const auto t0 = std::chrono::steady_clock::now();
    const int workers =
        options_.workers > 0 ? options_.workers : exec::num_threads();

    // The campaign's numbers (cache splits, jobs by kind) live in the
    // telemetry registry; arm it for the duration and report deltas over
    // this run's window so several campaigns can share a process.
    const bool was_armed = telemetry::armed();
    telemetry::set_armed(true);
    const telemetry::Snapshot snap_before = telemetry::snapshot();

    ResultCache cache(options_.cache_dir);
    PassFailTally tally(options_.fail_fast, options_.max_failures);

    // Reorder buffer: results arrive in completion order, leave in index
    // order. One mutex serializes delivery, so consumers never need locks.
    std::mutex deliver_m;
    std::map<long long, JobResult> pending;
    long long next_deliver = 0;
    long long delivered = 0;
    long long executed = 0;
    long long cached = 0;
    // Set under deliver_m once the stop policy fires; slots read it
    // without the lock to stop claiming jobs.
    std::atomic<bool> stop_requested{false};
    std::vector<TimingRow> timing_rows;

    const auto complete = [&](long long index, JobResult r) {
        const std::lock_guard<std::mutex> lk(deliver_m);
        // After a stop, the delivered set is frozen: discarding late
        // arrivals (rather than delivering whatever happened to finish)
        // keeps the report a deterministic prefix of the campaign.
        if (stop_requested.load(std::memory_order_relaxed)) return;
        r.index = index;
        pending.emplace(index, std::move(r));
        while (!pending.empty() && pending.begin()->first == next_deliver) {
            const JobResult& front = pending.begin()->second;
            if (front.from_cache) {
                ++cached;
                t_cache_hits.add(1);
            } else {
                ++executed;
                t_cache_misses.add(1);
            }
            kind_counter(front.kind).add(1);
            telemetry::record_event("job_delivered", front.index,
                                    static_cast<std::int64_t>(front.kind));
            tally.on_result(front);
            for (Consumer* c : consumers_) c->on_result(front);
            if (options_.timing) {
                timing_rows.push_back({front.id, front.wall_s,
                                       front.grindtime_ns, front.top_phase,
                                       front.top_phase_pct,
                                       front.from_cache});
            }
            ++delivered;
            ++next_deliver;
            pending.erase(pending.begin());
            if (tally.should_stop()) {
                stop_requested.store(true, std::memory_order_relaxed);
                break;
            }
        }
    };

    const auto run_one = [&](long long index) {
        const JobSpec& spec = jobs[static_cast<std::size_t>(index)];
        std::uint64_t key = 0;
        if (cache.enabled() && spec.cacheable()) {
            key = job_key(spec);
            if (auto hit = cache.lookup(spec, key)) {
                complete(index, std::move(*hit));
                return;
            }
        }
        JobResult r = execute_job(spec);
        r.key = key;
        if (cache.enabled()) cache.store(spec, r, key);
        complete(index, std::move(r));
    };

    // Every slot claims job indices from one cursor: fetch_add hands out
    // each index exactly once whichever slot takes it, and a slot stops
    // at the end of the vector or once the stop policy has fired. At one
    // thread the single inline call runs the whole campaign in order.
    const long long total = static_cast<long long>(jobs.size());
    std::atomic<long long> cursor{0};
    exec::parallel_for("ensemble_campaign", 0, workers,
                       [&](long long, long long) {
        while (!stop_requested.load(std::memory_order_relaxed)) {
            const long long i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= total) break;
            run_one(i);
        }
    });

    const telemetry::Snapshot campaign =
        telemetry::delta(snap_before, telemetry::snapshot());
    if (!was_armed) telemetry::set_armed(false);

    CampaignSummary s;
    s.total = total;
    s.delivered = delivered;
    s.executed = executed;
    s.cached = cached;
    s.passed = tally.passed();
    s.failed = tally.failed();
    s.cancelled = s.total - delivered;
    s.workers = workers;
    s.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();

    report["schema"].set(Value("mfc-ensemble-report-v1"));
    Yaml& summary = report["summary"];
    summary["total"].set(Value(s.total));
    summary["delivered"].set(Value(s.delivered));
    summary["passed"].set(Value(s.passed));
    summary["failed"].set(Value(s.failed));
    summary["cancelled"].set(Value(s.cancelled));
    // The one cache-state-dependent field in the deterministic sections:
    // 0 on a cold cache, the cacheable job count on a warm re-run.
    summary["cache_hits"].set(Value(s.cached));
    tally.finalize(report);
    for (Consumer* c : consumers_) c->finalize(report);

    // Canonical registry-sourced metrics, restricted to the engine's own
    // counters: everything under the prefix is invariant across worker
    // counts, so the report stays byte-identical across thread sweeps.
    // (exec/comm counters from inside jobs are worker-dependent here —
    // the campaign loop itself is a parallel_for — and stay out.)
    telemetry::metrics_yaml(report, campaign, /*include_timing=*/false,
                            "ensemble.");

    if (options_.timing) {
        Yaml& t = report["timing"];
        t["workers"].set(Value(s.workers));
        t["wall_s"].set(Value(s.wall_s));
        if (s.wall_s > 0.0) {
            t["jobs_per_s"].set(
                Value(static_cast<double>(s.delivered) / s.wall_s));
        }
        Yaml& rows = t["jobs"];
        for (const TimingRow& row : timing_rows) {
            Yaml& r = rows[row.id];
            r["wall_s"].set(Value(row.wall_s));
            if (row.from_cache) r["cached"].set(Value(true));
            if (row.grindtime_ns > 0.0) {
                r["grindtime_ns"].set(Value(row.grindtime_ns));
            }
            if (!row.top_phase.empty()) {
                r["top_phase"].set(Value(row.top_phase));
                r["top_phase_pct"].set(Value(row.top_phase_pct));
            }
        }
    }
    return s;
}

} // namespace mfc::ensemble
