#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/yaml.hpp"

namespace mfc::telemetry {

/// mfc::telemetry — the process's one observability runtime. It answers
/// three questions from one per-thread state behind one registry:
///
///   - *Where did the time go?* Zones: RAII scopes that nest into a
///     per-thread call tree of {calls, inclusive ns, exclusive ns, bytes}
///     (the phase profiler behind `mfc profile` and bench `phases:`).
///
///         void RhsEvaluator::evaluate(...) {
///             PROF_ZONE("rhs");
///             ...
///         }
///
///   - *What work was done?* Metrics: counters, high-water gauges and
///     log2 histograms declared once and bumped on the hot path.
///
///         static telemetry::Counter c_bytes("comm.bytes");
///         c_bytes.add(static_cast<std::int64_t>(bytes));
///
///   - *What happened just before it died?* The flight recorder: a
///     per-thread ring of the most recent {name, a0, a1} events (no wall
///     timestamps, so a dump of the same execution is bitwise-
///     reproducible), dumped to a postmortem YAML on a crash, sanitizer
///     abort, or resilience-detected RankFailure.
///
/// Each thread owns its zone tree, trace events, metric cells and ring,
/// so the hot path takes no lock and shares no write (simMPI ranks are
/// threads). The registry owns every thread's state, so data from joined
/// rank threads stays readable. One epoch, one clock and one thread-id
/// space serve everything: a Chrome-trace `tid` and a postmortem
/// `threadN` name the same thread, and zone and counter events share
/// one timeline.
///
/// Metrics merge in a fixed name-sorted order — the same ordered-merge
/// discipline as exec::ordered_reduce — and carry an emission class:
///   - Det:    counts and bytes fully determined by the workload
///             (byte-identical across reruns, thread counts, widths);
///   - Sched:  counts that depend on scheduling (steals, dispatches,
///             pool occupancy) — reproducible only in distribution;
///   - Timing: nanosecond totals — never deterministic.
/// YAML emission keeps the classes in separate subsections so reports
/// stay byte-comparable while still carrying timing data on request.

// --- Runtime control ------------------------------------------------------
//
// Three independent switches, because callers pay for them separately:
// campaign engines arm metrics for every tiny job without paying two
// clock reads per zone, and only trace exports pay memory per event.

/// Metrics and the flight recorder; disarmed updates cost one relaxed
/// atomic load.
[[nodiscard]] bool armed();
void set_armed(bool on);

/// Zones; a zone entered while disabled records nothing and costs one
/// relaxed atomic load.
[[nodiscard]] bool enabled();
void set_enabled(bool on);

/// Chrome-trace events: zone "X" events (while zones are enabled) and
/// per-step counter "C" samples (while metrics are armed).
[[nodiscard]] bool tracing();
void set_tracing(bool on);

/// Start a new epoch: every thread's zones, trace events, metric cells
/// and ring are discarded (lazily, on its next record), and trace
/// timestamps restart from zero. This ends every measurement window at
/// once, so only a caller that owns the whole process may use it — e.g.
/// `mfc profile` between its warm-up and its timed run — and only while
/// no thread has a zone open. Everything else windows by delta(): take a
/// snapshot or zone report before and after, and subtract.
void reset();

/// Scoped setting of one switch (enabled/set_enabled, armed/set_armed)
/// that restores the previous state on exit, so a measurement inside an
/// application that profiles (or not) leaves the switch as it found it.
class SwitchScope {
public:
    SwitchScope(bool (*get)(), void (*set)(bool), bool on)
        : set_(set), prev_(get()) {
        set(on);
    }
    SwitchScope(const SwitchScope&) = delete;
    SwitchScope& operator=(const SwitchScope&) = delete;
    ~SwitchScope() { set_(prev_); }

private:
    void (*set_)(bool);
    bool prev_;
};

/// The runtime's monotonic clock (zone timing, Timing-class metrics,
/// manual segment timing for add_child_ns).
[[nodiscard]] inline std::int64_t clock_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --- Metric kinds and classes ---------------------------------------------

enum class Kind : std::uint8_t { Counter, Gauge, Histogram };
enum class Klass : std::uint8_t { Det, Sched, Timing };

namespace detail {
/// Register (or look up) a metric by name; returns its cell offset.
/// Names must be string literals; re-registration with a different
/// kind/class is an error.
[[nodiscard]] std::uint32_t register_metric(const char* name, Kind kind,
                                            Klass klass);
void cell_add(std::uint32_t offset, std::int64_t v);
void cell_max(std::uint32_t offset, std::int64_t v);
void cell_bucket(std::uint32_t offset, std::int64_t v);
} // namespace detail

/// Monotonic counter; merge = sum across threads.
class Counter {
public:
    explicit Counter(const char* name, Klass klass = Klass::Det)
        : offset_(detail::register_metric(name, Kind::Counter, klass)) {}
    void add(std::int64_t v = 1) {
        if (armed()) detail::cell_add(offset_, v);
    }

private:
    std::uint32_t offset_;
};

/// High-water gauge; merge = max across threads.
class Gauge {
public:
    explicit Gauge(const char* name, Klass klass = Klass::Sched)
        : offset_(detail::register_metric(name, Kind::Gauge, klass)) {}
    void max(std::int64_t v) {
        if (armed()) detail::cell_max(offset_, v);
    }

private:
    std::uint32_t offset_;
};

/// Fixed 32-bucket log2 histogram. Bucket 0 counts v <= 0; bucket b in
/// [1, 31] counts v in [2^(b-1), 2^b); the last bucket absorbs the tail.
/// Merge = elementwise sum.
class Histogram {
public:
    static constexpr int kBuckets = 32;
    explicit Histogram(const char* name, Klass klass = Klass::Det)
        : offset_(detail::register_metric(name, Kind::Histogram, klass)) {}
    void record(std::int64_t v) {
        if (armed()) detail::cell_bucket(offset_, v);
    }
    [[nodiscard]] static int bucket_of(std::int64_t v);

private:
    std::uint32_t offset_;
};

// --- Metric snapshots -----------------------------------------------------

struct MetricValue {
    std::string name;
    Kind kind = Kind::Counter;
    Klass klass = Klass::Det;
    std::int64_t value = 0;               ///< counter sum / gauge max
    std::vector<std::int64_t> buckets;    ///< histogram only
};

struct Snapshot {
    /// Sorted by name (the deterministic merge order).
    std::vector<MetricValue> metrics;

    [[nodiscard]] const MetricValue* find(const std::string& name) const;
    /// Scalar value of a metric, 0 if absent.
    [[nodiscard]] std::int64_t value(const std::string& name) const;
};

/// Merge every thread's cells for the current epoch. The hot path is
/// wait-free, so cells of running threads read slightly stale values;
/// call while instrumented threads are quiescent for exact totals.
[[nodiscard]] Snapshot snapshot();

/// after - before, metric-wise: counters and histograms subtract, gauges
/// keep `after`'s value (a high-water mark has no meaningful delta).
/// Emission sites report deltas over their measured window so one
/// process can serve several instrumented runs.
[[nodiscard]] Snapshot delta(const Snapshot& before, const Snapshot& after);

/// Emit `snap` into root["metrics"]: a `deterministic:` map always, and
/// `scheduling:`/`timing:` maps when include_timing is set. Keys are the
/// metric names (already sorted); histograms render as "b<i>:<count>"
/// pairs of the non-empty buckets. A non-empty prefix keeps only metrics
/// whose name starts with it.
void metrics_yaml(Yaml& root, const Snapshot& snap, bool include_timing,
                  const std::string& prefix = "");

// --- Zones ----------------------------------------------------------------

/// Bulk-credit `ns` of time and `calls` entries to a named child of the
/// calling thread's innermost open zone (a root zone if none is open).
/// Inner loops whose bodies run for microseconds cannot afford a scoped
/// Zone per iteration; they time segments with clock_ns() and credit
/// each phase once per loop. Bulk-credited children emit no trace
/// events. No-op while zones are disabled.
void add_child_ns(const char* name, std::int64_t ns, std::int64_t calls = 1);

/// One aggregated zone. `path` is the '/'-joined chain of zone names from
/// the root ("step/rhs/weno_x"); exclusive time is inclusive time minus
/// the inclusive time of the zone's children, so exclusive times sum to
/// the total measured time with no double counting.
struct ZoneStats {
    std::string path;
    std::string name;
    int depth = 0;
    std::int64_t calls = 0;
    double inclusive_ns = 0.0;
    double exclusive_ns = 0.0;
    /// Spread of exclusive_ns across ranks in a reduce_ranks() report;
    /// equal to exclusive_ns in any other report.
    double min_exclusive_ns = 0.0;
    double max_exclusive_ns = 0.0;
    std::int64_t bytes = 0;
};

struct Report {
    /// Sorted by path, which keeps each subtree contiguous and parents
    /// before their children.
    std::vector<ZoneStats> zones;
    /// Sum of root-zone inclusive time: the total measured wall time.
    double total_ns = 0.0;

    [[nodiscard]] const ZoneStats* find(const std::string& path) const;
};

/// Merge every thread's zones for the current epoch. The hot path is
/// lock-free, so call this only while the profiled threads are
/// quiescent (after World::run joins, or between barriers).
[[nodiscard]] Report zone_report();

/// The calling thread only — each simMPI rank's private profile.
[[nodiscard]] Report thread_zone_report();

/// The zones entered between two reports of the same threads: calls,
/// times and bytes subtract per path, and paths without a call in the
/// window drop out. A zone left open across the window (entered before
/// `before`, still open at `after`) drops out too, since its calls do
/// not change; the zones it entered in the window are still reported,
/// but total_ns sums only root zones, so it then misses them.
[[nodiscard]] Report delta(const Report& before, const Report& after);

namespace detail {
struct ThreadState;
/// Open `name` on the calling thread; returns its state for zone_end.
[[nodiscard]] ThreadState* zone_begin(const char* name);
void zone_end(ThreadState& st);
void zone_add_bytes(ThreadState& st, std::int64_t bytes);
} // namespace detail

/// RAII scoped zone. `name` must be a string literal (children are keyed
/// by pointer, so re-entry is an O(children) scan).
class Zone {
public:
    explicit Zone(const char* name)
        : st_(enabled() ? detail::zone_begin(name) : nullptr) {}
    Zone(const Zone&) = delete;
    Zone& operator=(const Zone&) = delete;
    ~Zone() {
        if (st_ != nullptr) detail::zone_end(*st_);
    }

    /// Attribute moved bytes (halo payloads, collective payloads) to the
    /// zone, feeding the bytes column of the report.
    void add_bytes(std::int64_t bytes) {
        if (st_ != nullptr) detail::zone_add_bytes(*st_, bytes);
    }

private:
    detail::ThreadState* st_;
};

// --- Flight recorder ------------------------------------------------------

/// Append a structured event to the calling thread's ring. `name` must be
/// a string literal; the two payload slots carry event-defined integers
/// (a step index, a byte count, a rank). No-op while disarmed.
void record_event(const char* name, std::int64_t a0 = 0, std::int64_t a1 = 0);

/// Label the calling thread in postmortem dumps ("rank0", "main").
/// Threads with equal labels are ordered by registration.
void set_thread_label(const std::string& label);

/// Postmortem YAML (schema mfc-postmortem-v1): per-thread event tails,
/// oldest first, threads sorted by (label, registration order). Events
/// carry no wall timestamps, so the same execution dumps bitwise
/// identically across reruns.
[[nodiscard]] std::string postmortem_yaml(const std::string& reason);

/// Write postmortem_yaml(reason) to the configured path; no-op when no
/// path is set. Called on resilience-detected RankFailure and from the
/// crash handlers.
void dump_postmortem(const std::string& reason);

/// Configure the postmortem destination and install the crash handlers
/// (SIGSEGV/SIGABRT + std::terminate) on first use. An empty path
/// disables dumping. The MFC_POSTMORTEM environment variable seeds the
/// path at first arm.
void set_postmortem_path(const std::string& path);
[[nodiscard]] std::string postmortem_path();

// --- Chrome trace ---------------------------------------------------------

/// Record the value of every Det/Sched counter and gauge as a counter
/// sample of the calling thread; called once per solver step. No-op
/// unless armed and tracing.
void sample_counters();

/// The current epoch's trace as Chrome's JSON-array format (load via
/// chrome://tracing or Perfetto): zone "X" events, one `tid` per thread,
/// and counter "C" samples, one track per metric. Timestamps are
/// microseconds since the epoch began.
[[nodiscard]] std::string chrome_trace_json();
void write_chrome_trace(const std::string& path);

} // namespace mfc::telemetry

#define MFC_ZONE_CONCAT2(a, b) a##b
#define MFC_ZONE_CONCAT(a, b) MFC_ZONE_CONCAT2(a, b)
/// Scoped zone covering the rest of the enclosing block.
#define PROF_ZONE(name) \
    ::mfc::telemetry::Zone MFC_ZONE_CONCAT(mfc_zone_, __LINE__) { name }
