#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

#include "core/error.hpp"

namespace mfc::telemetry {

namespace detail {

namespace {

std::atomic<bool> g_armed{false};
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_epoch{1};
/// Trace timestamp origin of the current epoch.
std::atomic<std::int64_t> g_epoch_t0{clock_ns()};

/// Upper bound on registered cells (counters/gauges take one, histograms
/// 32). The registry is append-only and fixed-capacity so thread shards
/// never reallocate under concurrent updates.
constexpr std::uint32_t kMaxCells = 1024;
/// Flight-recorder ring depth per thread.
constexpr std::uint32_t kRingSlots = 256;
/// Cap on retained trace events per thread (~16 MB at 32 B/event); zones
/// past the cap still accumulate, they just stop appending events.
/// Counter samples (one batch per solver step) are not capped, so the
/// counter tracks cover the whole run.
constexpr std::size_t kMaxTraceEvents = 1u << 19;

} // namespace

struct MetricInfo {
    const char* name = nullptr;
    Kind kind = Kind::Counter;
    Klass klass = Klass::Det;
    std::uint32_t offset = 0;
    std::uint32_t cells = 1;
};

struct RingEvent {
    const char* name = nullptr;
    std::int64_t a0 = 0;
    std::int64_t a1 = 0;
};

/// One accumulated zone node in a thread's call tree.
struct Node {
    const char* name = nullptr;
    int parent = -1;
    int depth = 0;
    std::int64_t calls = 0;
    std::int64_t inclusive_ns = 0;
    std::int64_t child_ns = 0;
    std::int64_t bytes = 0;
    /// Children keyed by name pointer; zone entry does a linear scan,
    /// which beats hashing for the handful of children real trees have.
    std::vector<std::pair<const char*, int>> children;
};

struct Frame {
    int node = -1;
    std::int64_t start_ns = 0;
};

/// One Chrome-trace event: a zone ('X', arg = duration in ns) or a
/// counter sample ('C', arg = the metric's value).
struct TraceEvent {
    const char* name = nullptr;
    std::int64_t ts_ns = 0;
    std::int64_t arg = 0;
    char ph = 'X';
};

/// Everything one thread records. Only the owning thread writes. The
/// epoch and the metric cells are relaxed atomics because other threads'
/// sample_counters() and crash-time dumps read them while their owners
/// run (race-free, TSan-clean); everything else is read under the
/// registry lock while the owner is quiescent (after World::run joins,
/// or between barriers). A zone pair therefore costs two clock reads
/// plus vector bookkeeping, no lock.
struct ThreadState {
    std::atomic<std::uint64_t> epoch{0};
    std::uint32_t tid = 0;
    std::string label;
    std::vector<Node> nodes; ///< roots have parent == -1
    std::vector<std::pair<const char*, int>> roots;
    std::vector<Frame> stack;
    std::vector<TraceEvent> events;
    std::atomic<std::int64_t> cells[kMaxCells] = {};
    RingEvent ring[kRingSlots];
    std::uint64_t ring_head = 0; ///< total events recorded this epoch

    void clear() {
        nodes.clear();
        roots.clear();
        stack.clear();
        events.clear();
        for (auto& c : cells) c.store(0, std::memory_order_relaxed);
        ring_head = 0;
    }
};

namespace {

/// Owns the metric table and every thread's state, so data stays
/// readable after simMPI rank threads join. Leaked deliberately:
/// thread-exit destructors must never race a dying registry.
struct Registry {
    std::mutex mutex;
    std::vector<MetricInfo> metrics;
    std::uint32_t next_cell = 0;
    std::vector<std::unique_ptr<ThreadState>> states; ///< index == tid
};

Registry& registry() {
    static Registry* r = new Registry;
    return *r;
}

ThreadState& state() {
    thread_local ThreadState* st = [] {
        Registry& reg = registry();
        const std::lock_guard<std::mutex> lock(reg.mutex);
        reg.states.push_back(std::make_unique<ThreadState>());
        reg.states.back()->tid =
            static_cast<std::uint32_t>(reg.states.size() - 1);
        return reg.states.back().get();
    }();
    return *st;
}

/// The calling thread's state, after lazily dropping a previous epoch's
/// data: the first record after reset() clears, so reset() needs no
/// rendezvous with the recording threads.
ThreadState& fresh_state() {
    ThreadState& st = state();
    const std::uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
    if (st.epoch.load(std::memory_order_relaxed) != epoch) {
        st.clear();
        st.epoch.store(epoch, std::memory_order_relaxed);
    }
    return st;
}

/// The current-epoch states (registry lock held).
std::vector<const ThreadState*> live_states(const Registry& reg) {
    const std::uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
    std::vector<const ThreadState*> out;
    for (const auto& st : reg.states) {
        if (st->epoch.load(std::memory_order_relaxed) == epoch) {
            out.push_back(st.get());
        }
    }
    return out;
}

/// Cell `offset + cell` of one metric merged over `states`: the max for
/// gauges, the sum otherwise.
std::int64_t merged_cell(const std::vector<const ThreadState*>& states,
                         const MetricInfo& info, std::uint32_t cell) {
    std::int64_t v = 0;
    for (const ThreadState* st : states) {
        const std::int64_t c =
            st->cells[info.offset + cell].load(std::memory_order_relaxed);
        v = info.kind == Kind::Gauge ? std::max(v, c) : v + c;
    }
    return v;
}

int find_child(const std::vector<std::pair<const char*, int>>& children,
               const char* name) {
    for (const auto& [n, idx] : children) {
        if (n == name) return idx;
    }
    return -1;
}

/// Find or create `name` as a child of the innermost open zone (or as a
/// root).
int resolve_child(ThreadState& st, const char* name) {
    const int parent = st.stack.empty() ? -1 : st.stack.back().node;
    const auto siblings = [&]() -> std::vector<std::pair<const char*, int>>& {
        return parent < 0 ? st.roots
                          : st.nodes[static_cast<std::size_t>(parent)].children;
    };
    int idx = find_child(siblings(), name);
    if (idx < 0) {
        idx = static_cast<int>(st.nodes.size());
        Node node;
        node.name = name;
        node.parent = parent;
        node.depth = static_cast<int>(st.stack.size());
        st.nodes.push_back(node);
        // st.nodes may have reallocated; re-resolve the sibling list.
        siblings().emplace_back(name, idx);
    }
    return idx;
}

} // namespace

std::uint32_t register_metric(const char* name, Kind kind, Klass klass) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const MetricInfo& m : reg.metrics) {
        if (std::strcmp(m.name, name) == 0) {
            MFC_REQUIRE(m.kind == kind && m.klass == klass,
                        std::string("telemetry: metric re-registered with a "
                                    "different kind/class: ") +
                            name);
            return m.offset;
        }
    }
    MetricInfo info;
    info.name = name;
    info.kind = kind;
    info.klass = klass;
    info.cells = kind == Kind::Histogram
                     ? static_cast<std::uint32_t>(Histogram::kBuckets)
                     : 1u;
    MFC_REQUIRE(reg.next_cell + info.cells <= kMaxCells,
                "telemetry: metric cell capacity exhausted");
    info.offset = reg.next_cell;
    reg.next_cell += info.cells;
    reg.metrics.push_back(info);
    return info.offset;
}

void cell_add(std::uint32_t offset, std::int64_t v) {
    fresh_state().cells[offset].fetch_add(v, std::memory_order_relaxed);
}

void cell_max(std::uint32_t offset, std::int64_t v) {
    std::atomic<std::int64_t>& cell = fresh_state().cells[offset];
    if (v > cell.load(std::memory_order_relaxed)) {
        cell.store(v, std::memory_order_relaxed);
    }
}

void cell_bucket(std::uint32_t offset, std::int64_t v) {
    const auto b = static_cast<std::uint32_t>(Histogram::bucket_of(v));
    fresh_state().cells[offset + b].fetch_add(1, std::memory_order_relaxed);
}

ThreadState* zone_begin(const char* name) {
    ThreadState& st = fresh_state();
    st.stack.push_back(Frame{resolve_child(st, name), clock_ns()});
    return &st;
}

void zone_end(ThreadState& st) {
    MFC_ASSERT(!st.stack.empty());
    const Frame frame = st.stack.back();
    st.stack.pop_back();
    const std::int64_t elapsed = clock_ns() - frame.start_ns;
    Node& node = st.nodes[static_cast<std::size_t>(frame.node)];
    node.calls += 1;
    node.inclusive_ns += elapsed;
    if (node.parent >= 0) {
        st.nodes[static_cast<std::size_t>(node.parent)].child_ns += elapsed;
    }
    if (g_tracing.load(std::memory_order_relaxed) &&
        st.events.size() < kMaxTraceEvents) {
        st.events.push_back(TraceEvent{node.name, frame.start_ns, elapsed, 'X'});
    }
}

void zone_add_bytes(ThreadState& st, std::int64_t bytes) {
    if (!st.stack.empty()) {
        st.nodes[static_cast<std::size_t>(st.stack.back().node)].bytes += bytes;
    }
}

} // namespace detail

// --- Runtime control ------------------------------------------------------

bool armed() { return detail::g_armed.load(std::memory_order_relaxed); }

bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

bool tracing() { return detail::g_tracing.load(std::memory_order_relaxed); }

void set_tracing(bool on) {
    detail::g_tracing.store(on, std::memory_order_relaxed);
}

void reset() {
    detail::g_epoch_t0.store(clock_ns(), std::memory_order_relaxed);
    detail::g_epoch.fetch_add(1, std::memory_order_relaxed);
}

int Histogram::bucket_of(std::int64_t v) {
    if (v <= 0) return 0;
    int b = 1;
    while (v > 1 && b < kBuckets - 1) {
        v >>= 1;
        ++b;
    }
    return b;
}

void record_event(const char* name, std::int64_t a0, std::int64_t a1) {
    if (!armed()) return;
    detail::ThreadState& st = detail::fresh_state();
    detail::RingEvent& slot =
        st.ring[st.ring_head % detail::kRingSlots];
    slot.name = name;
    slot.a0 = a0;
    slot.a1 = a1;
    ++st.ring_head;
}

void set_thread_label(const std::string& label) {
    detail::Registry& reg = detail::registry();
    detail::ThreadState& st = detail::state();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    st.label = label;
}

// --- Metric snapshots -----------------------------------------------------

const MetricValue* Snapshot::find(const std::string& name) const {
    const auto it = std::lower_bound(
        metrics.begin(), metrics.end(), name,
        [](const MetricValue& m, const std::string& n) { return m.name < n; });
    if (it != metrics.end() && it->name == name) return &*it;
    return nullptr;
}

std::int64_t Snapshot::value(const std::string& name) const {
    const MetricValue* m = find(name);
    return m != nullptr ? m->value : 0;
}

Snapshot snapshot() {
    detail::Registry& reg = detail::registry();
    Snapshot snap;
    const std::lock_guard<std::mutex> lock(reg.mutex);
    const std::vector<const detail::ThreadState*> states =
        detail::live_states(reg);
    snap.metrics.reserve(reg.metrics.size());
    for (const detail::MetricInfo& info : reg.metrics) {
        MetricValue mv;
        mv.name = info.name;
        mv.kind = info.kind;
        mv.klass = info.klass;
        if (info.kind == Kind::Histogram) {
            for (std::uint32_t b = 0; b < info.cells; ++b) {
                mv.buckets.push_back(detail::merged_cell(states, info, b));
            }
        } else {
            mv.value = detail::merged_cell(states, info, 0);
        }
        snap.metrics.push_back(std::move(mv));
    }
    std::sort(snap.metrics.begin(), snap.metrics.end(),
              [](const MetricValue& a, const MetricValue& b) {
                  return a.name < b.name;
              });
    return snap;
}

Snapshot delta(const Snapshot& before, const Snapshot& after) {
    Snapshot out = after;
    for (MetricValue& m : out.metrics) {
        const MetricValue* prev = before.find(m.name);
        if (prev == nullptr || m.kind == Kind::Gauge) continue;
        if (m.kind == Kind::Histogram) {
            for (std::size_t b = 0;
                 b < m.buckets.size() && b < prev->buckets.size(); ++b) {
                m.buckets[b] -= prev->buckets[b];
            }
        } else {
            m.value -= prev->value;
        }
    }
    return out;
}

namespace {

std::string histogram_text(const std::vector<std::int64_t>& buckets) {
    std::string out;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b] == 0) continue;
        if (!out.empty()) out += ' ';
        out += 'b' + std::to_string(b) + ':' + std::to_string(buckets[b]);
    }
    return out.empty() ? std::string("empty") : out;
}

void emit_class(Yaml& section, const Snapshot& snap, Klass klass,
                const std::string& prefix) {
    for (const MetricValue& m : snap.metrics) {
        if (m.klass != klass) continue;
        if (!prefix.empty() && m.name.rfind(prefix, 0) != 0) continue;
        if (m.kind == Kind::Histogram) {
            section[m.name].set(Value(histogram_text(m.buckets)));
        } else {
            section[m.name].set(Value(m.value));
        }
    }
}

} // namespace

void metrics_yaml(Yaml& root, const Snapshot& snap, bool include_timing,
                  const std::string& prefix) {
    Yaml& metrics = root["metrics"];
    emit_class(metrics["deterministic"], snap, Klass::Det, prefix);
    if (include_timing) {
        emit_class(metrics["scheduling"], snap, Klass::Sched, prefix);
        emit_class(metrics["timing"], snap, Klass::Timing, prefix);
    }
}

// --- Zones ----------------------------------------------------------------

void add_child_ns(const char* name, std::int64_t ns, std::int64_t calls) {
    if (!enabled()) return;
    detail::ThreadState& st = detail::fresh_state();
    detail::Node& node =
        st.nodes[static_cast<std::size_t>(detail::resolve_child(st, name))];
    node.calls += calls;
    node.inclusive_ns += ns;
    if (node.parent >= 0) {
        st.nodes[static_cast<std::size_t>(node.parent)].child_ns += ns;
    }
}

const ZoneStats* Report::find(const std::string& path) const {
    const auto it = std::lower_bound(
        zones.begin(), zones.end(), path,
        [](const ZoneStats& z, const std::string& p) { return z.path < p; });
    if (it != zones.end() && it->path == path) return &*it;
    return nullptr;
}

namespace {

/// Merge thread trees into one path-keyed report. std::map's
/// lexicographic order keeps subtrees contiguous ("a" < "a/b" < "a/c").
Report build_report(const std::vector<const detail::ThreadState*>& states) {
    std::map<std::string, ZoneStats> merged;
    Report report;
    for (const detail::ThreadState* st : states) {
        std::vector<std::string> paths(st->nodes.size());
        for (std::size_t n = 0; n < st->nodes.size(); ++n) {
            const detail::Node& node = st->nodes[n];
            paths[n] = node.parent < 0
                           ? std::string(node.name)
                           : paths[static_cast<std::size_t>(node.parent)] +
                                 "/" + node.name;
            ZoneStats& z = merged[paths[n]];
            z.path = paths[n];
            z.name = node.name;
            z.depth = node.depth;
            z.calls += node.calls;
            z.inclusive_ns += static_cast<double>(node.inclusive_ns);
            z.exclusive_ns +=
                static_cast<double>(node.inclusive_ns - node.child_ns);
            z.bytes += node.bytes;
            if (node.parent < 0) {
                report.total_ns += static_cast<double>(node.inclusive_ns);
            }
        }
    }
    report.zones.reserve(merged.size());
    for (auto& [path, z] : merged) {
        z.min_exclusive_ns = z.max_exclusive_ns = z.exclusive_ns;
        report.zones.push_back(std::move(z));
    }
    return report;
}

} // namespace

Report zone_report() {
    detail::Registry& reg = detail::registry();
    std::vector<const detail::ThreadState*> states;
    {
        const std::lock_guard<std::mutex> lock(reg.mutex);
        states = detail::live_states(reg);
    }
    return build_report(states);
}

Report thread_zone_report() { return build_report({&detail::fresh_state()}); }

Report delta(const Report& before, const Report& after) {
    Report out;
    for (ZoneStats z : after.zones) {
        if (const ZoneStats* b = before.find(z.path)) {
            z.calls -= b->calls;
            z.inclusive_ns -= b->inclusive_ns;
            z.exclusive_ns -= b->exclusive_ns;
            z.bytes -= b->bytes;
        }
        if (z.calls == 0) continue;
        z.min_exclusive_ns = z.max_exclusive_ns = z.exclusive_ns;
        if (z.depth == 0) out.total_ns += z.inclusive_ns;
        out.zones.push_back(std::move(z));
    }
    return out;
}

// --- Flight recorder dump -------------------------------------------------

namespace {

std::mutex g_postmortem_mutex;
std::string g_postmortem_path; // NOLINT(runtime/string)
std::once_flag g_handlers_once;
std::terminate_handler g_prev_terminate = nullptr;

void crash_dump(const char* reason) {
    // Best-effort from a signal/terminate context: allocation and file
    // I/O are not async-signal-safe, but the process is dying anyway and
    // a truncated postmortem beats none.
    dump_postmortem(reason);
}

void signal_handler(int sig) {
    crash_dump(sig == SIGSEGV ? "signal:SIGSEGV" : "signal:SIGABRT");
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

[[noreturn]] void terminate_handler() {
    crash_dump("terminate");
    if (g_prev_terminate != nullptr) g_prev_terminate();
    std::abort();
}

void install_crash_handlers() {
    std::call_once(g_handlers_once, [] {
        std::signal(SIGSEGV, signal_handler);
        std::signal(SIGABRT, signal_handler);
        g_prev_terminate = std::set_terminate(terminate_handler);
    });
}

} // namespace

void set_armed(bool on) {
    if (on) {
        const std::lock_guard<std::mutex> lock(g_postmortem_mutex);
        if (g_postmortem_path.empty()) {
            const char* env = std::getenv("MFC_POSTMORTEM");
            if (env != nullptr && env[0] != '\0') {
                g_postmortem_path = env;
                install_crash_handlers();
            }
        }
    }
    detail::g_armed.store(on, std::memory_order_relaxed);
}

void set_postmortem_path(const std::string& path) {
    const std::lock_guard<std::mutex> lock(g_postmortem_mutex);
    g_postmortem_path = path;
    if (!path.empty()) install_crash_handlers();
}

std::string postmortem_path() {
    const std::lock_guard<std::mutex> lock(g_postmortem_mutex);
    return g_postmortem_path;
}

std::string postmortem_yaml(const std::string& reason) {
    detail::Registry& reg = detail::registry();
    Yaml root;
    Yaml& pm = root["postmortem"];
    pm["schema"].set(Value("mfc-postmortem-v1"));
    pm["reason"].set(Value(reason));
    {
        const std::lock_guard<std::mutex> lock(reg.mutex);
        struct ThreadDump {
            std::string label;
            const detail::ThreadState* st = nullptr;
        };
        std::vector<ThreadDump> dumps;
        for (const detail::ThreadState* st : detail::live_states(reg)) {
            if (st->ring_head == 0) continue;
            dumps.push_back(ThreadDump{
                st->label.empty() ? "thread" + std::to_string(st->tid)
                                  : st->label,
                st});
        }
        std::sort(dumps.begin(), dumps.end(),
                  [](const ThreadDump& a, const ThreadDump& b) {
                      return a.label != b.label ? a.label < b.label
                                                : a.st->tid < b.st->tid;
                  });
        Yaml& threads = pm["threads"];
        for (const ThreadDump& d : dumps) {
            std::string key = d.label;
            while (threads.contains(key)) key += "+"; // duplicate labels
            Yaml& t = threads[key];
            t["events_recorded"].set(
                Value(static_cast<long long>(d.st->ring_head)));
            Yaml& events = t["events"];
            const std::uint64_t head = d.st->ring_head;
            const std::uint64_t first =
                head > detail::kRingSlots ? head - detail::kRingSlots : 0;
            for (std::uint64_t i = first; i < head; ++i) {
                const detail::RingEvent& e =
                    d.st->ring[i % detail::kRingSlots];
                events.push_back(Yaml(Value(
                    std::string(e.name) + " " + std::to_string(e.a0) + " " +
                    std::to_string(e.a1))));
            }
        }
    }
    metrics_yaml(pm, snapshot(), /*include_timing=*/false);
    return root.dump();
}

void dump_postmortem(const std::string& reason) {
    const std::string path = postmortem_path();
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out.good()) return; // never throw from a crash path
    out << postmortem_yaml(reason);
}

// --- Chrome trace ---------------------------------------------------------

void sample_counters() {
    if (!armed() || !tracing()) return;
    const std::int64_t ts = clock_ns();
    detail::ThreadState& st = detail::fresh_state();
    detail::Registry& reg = detail::registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    const std::vector<const detail::ThreadState*> states =
        detail::live_states(reg);
    for (const detail::MetricInfo& info : reg.metrics) {
        if (info.kind == Kind::Histogram || info.klass == Klass::Timing) {
            continue;
        }
        // Registered names are string literals, so the event can keep
        // the pointer.
        st.events.push_back(detail::TraceEvent{
            info.name, ts, detail::merged_cell(states, info, 0), 'C'});
    }
}

std::string chrome_trace_json() {
    // The Trace Event Format's JSON-array flavor. Names are zone and
    // metric string literals, so no JSON escaping is required.
    struct Row {
        const detail::TraceEvent* e = nullptr;
        std::uint32_t tid = 0;
    };
    std::vector<Row> rows;
    detail::Registry& reg = detail::registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const detail::ThreadState* st : detail::live_states(reg)) {
        for (const detail::TraceEvent& e : st->events) {
            rows.push_back(Row{&e, st->tid});
        }
    }
    std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        return a.e->ts_ns < b.e->ts_ns;
    });
    const std::int64_t t0 =
        detail::g_epoch_t0.load(std::memory_order_relaxed);
    std::string out = "[\n";
    bool first = true;
    char buf[256];
    for (const Row& r : rows) {
        const double ts_us = static_cast<double>(r.e->ts_ns - t0) * 1.0e-3;
        if (r.e->ph == 'X') {
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"cat\":\"mfc\",\"ph\":\"X\","
                          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%u}",
                          r.e->name, ts_us,
                          static_cast<double>(r.e->arg) * 1.0e-3, r.tid);
        } else {
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"cat\":\"mfc\",\"ph\":\"C\","
                          "\"ts\":%.3f,\"pid\":0,\"args\":{\"value\":%lld}}",
                          r.e->name, ts_us, static_cast<long long>(r.e->arg));
        }
        if (!first) out += ",\n";
        first = false;
        out += buf;
    }
    out += "\n]\n";
    return out;
}

void write_chrome_trace(const std::string& path) {
    std::ofstream out(path);
    MFC_REQUIRE(out.good(), "telemetry: cannot open trace file: " + path);
    out << chrome_trace_json();
    MFC_REQUIRE(out.good(), "telemetry: trace write failed: " + path);
}

} // namespace mfc::telemetry
