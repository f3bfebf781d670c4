#include "exec/exec.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "core/error.hpp"
#include "simd/simd.hpp"
#include "telemetry/telemetry.hpp"

#ifndef MFCPP_TILE_ROWS
#define MFCPP_TILE_ROWS 16
#endif

namespace {

// exec.rows counts loop iterations handed to parallel_for — the total is
// independent of how they were chunked, so it is deterministic across
// thread counts. Everything that depends on scheduling stays in the
// Sched class: dispatch/inline splits, chunks executed away from their
// preferred slot (steals), empty-handed steal attempts (idle_chunks),
// and the per-dispatch / cross-team occupancy high-water marks.
mfc::telemetry::Counter t_rows("exec.rows");
mfc::telemetry::Counter t_dispatches("exec.dispatches",
                                     mfc::telemetry::Klass::Sched);
mfc::telemetry::Counter t_inline_runs("exec.inline_runs",
                                      mfc::telemetry::Klass::Sched);
mfc::telemetry::Counter t_steals("exec.steals",
                                 mfc::telemetry::Klass::Sched);
mfc::telemetry::Counter t_idle_chunks("exec.idle_chunks",
                                      mfc::telemetry::Klass::Sched);
mfc::telemetry::Gauge t_occupancy("exec.pool_occupancy");
mfc::telemetry::Gauge t_team_occupancy("exec.team_occupancy");
mfc::telemetry::Gauge t_arena_high("exec.arena_high_water_doubles");

} // namespace

namespace mfc::exec {

namespace {

constexpr int kMaxThreads = 256;
constexpr int kMaxTeams = 64;
/// Steal mode oversubscribes the chunk grid by this factor so uneven
/// per-chunk cost leaves stealable remainders instead of stragglers.
constexpr int kStealChunksPerSlot = 4;

int initial_num_threads() {
    const char* env = std::getenv("MFC_NUM_THREADS");
    if (env == nullptr || *env == '\0') return 1;
    const long n = std::strtol(env, nullptr, 10);
    return static_cast<int>(std::clamp<long>(n, 1, kMaxThreads));
}

int initial_core_budget() {
    const char* env = std::getenv("MFC_CORE_BUDGET");
    if (env == nullptr || *env == '\0') return kMaxThreads;
    const long n = std::strtol(env, nullptr, 10);
    return static_cast<int>(std::clamp<long>(n, 0, kMaxThreads));
}

int initial_partition() {
    const char* env = std::getenv("MFC_EXEC_PARTITION");
    if (env != nullptr && std::strcmp(env, "static") == 0) {
        return static_cast<int>(Partition::Static);
    }
    return static_cast<int>(Partition::Steal);
}

std::atomic<int>& partition_cell() {
    static std::atomic<int> cell{initial_partition()};
    return cell;
}

int initial_tile_rows() {
    const char* env = std::getenv("MFC_TILE_ROWS");
    if (env == nullptr || *env == '\0') return MFCPP_TILE_ROWS;
    const long n = std::strtol(env, nullptr, 10);
    return static_cast<int>(std::clamp<long>(n, 1, 256));
}

std::atomic<int>& tile_rows_cell() {
    static std::atomic<int> cell{initial_tile_rows()};
    return cell;
}

thread_local bool t_in_parallel = false;
/// > 0 while the calling thread is executing chunks of a dispatched
/// region (worker or dispatcher slot). Distinguishes "inline because
/// nested inside a (possibly stolen) chunk" from "inline because serial"
/// so the nested loop's rows can be attributed to the executing thread.
thread_local int t_chunk_depth = 0;

/// Marks the calling thread as inside a parallel region for the scope.
class ParallelScope {
public:
    ParallelScope() : prev_(t_in_parallel) { t_in_parallel = true; }
    ParallelScope(const ParallelScope&) = delete;
    ParallelScope& operator=(const ParallelScope&) = delete;
    ~ParallelScope() { t_in_parallel = prev_; }

private:
    bool prev_;
};

class Pool;

/// One worker team: a dispatcher (the thread bound to the team) plus
/// lazily spawned workers parked on a condition variable between
/// regions. At most one dispatcher owns a team at a time (try-lock);
/// contending callers — nested regions, a concurrent thread sharing the
/// team — run their loop inline instead of queueing, which cannot
/// deadlock. Chunks are handed out through per-slot atomic cursors:
/// slot s prefers the contiguous range [start(s), end(s)), and a slot
/// that drains its range steals from the fullest peer. fetch_add issues
/// every chunk index exactly once no matter who grabs it, and chunk
/// boundaries never depend on stealing — only *who* runs a chunk does.
class Team {
public:
    Team(Pool& pool, int id) : pool_(pool), id_(id) {}
    ~Team() {
        const std::lock_guard<std::mutex> own(owner_);
        join_workers();
    }

    /// Dispatch chunk(c) for c in [0, nchunks); returns false when the
    /// team could not be acquired or has no usable workers (caller runs
    /// inline).
    bool dispatch(const char* label, int nchunks,
                  const std::function<void(int)>& chunk);

    /// Blocks until any in-flight dispatch drains, then joins workers
    /// (returning their budget reservations). Used on reconfiguration.
    void quiesce() {
        const std::lock_guard<std::mutex> own(owner_);
        join_workers();
    }

private:
    void ensure_workers(int count); // owner_ held
    void join_workers();            // owner_ held
    void worker_loop(int slot, std::uint64_t seen);
    void run_slot(int slot);

    Pool& pool_;
    int id_ = 0;
    int reserved_ = 0; ///< workers drawn from the process-wide budget

    std::mutex owner_; ///< serializes dispatchers and reconfiguration

    std::mutex m_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> workers_;
    const char* label_ = nullptr;
    const std::function<void(int)>* task_ = nullptr;
    int nchunks_ = 0;
    int nslots_ = 1;
    bool steal_ = false;
    int pending_ = 0;
    std::uint64_t generation_ = 0;
    bool stop_ = false;

    // Per-slot chunk cursors: slot s owns [nchunks*s/nslots,
    // nchunks*(s+1)/nslots) and advances cursor_[s] by fetch_add; thieves
    // advance a victim's cursor the same way. An increment past end_[s]
    // is a wasted index (counted as an idle chunk), never a reuse.
    std::array<std::atomic<int>, kMaxThreads> cursor_;
    std::array<int, kMaxThreads> end_{};
};

thread_local Team* t_team = nullptr;

/// Process-wide execution state: the team registry, the per-team thread
/// width, and the core budget all teams draw workers from.
class Pool {
public:
    static Pool& instance() {
        static Pool pool;
        return pool;
    }

    [[nodiscard]] int threads() {
        std::call_once(env_once_, [this] {
            configured_.store(initial_num_threads(),
                              std::memory_order_relaxed);
        });
        return configured_.load(std::memory_order_relaxed);
    }

    void set_threads(int n) {
        MFC_REQUIRE(n >= 1 && n <= kMaxThreads,
                    "exec: thread count must be in [1, " +
                        std::to_string(kMaxThreads) + "]");
        std::call_once(env_once_, [] {});
        // Quiesce every team so the new width applies uniformly; each
        // quiesce blocks until that team's in-flight dispatch drains.
        const std::lock_guard<std::mutex> tl(teams_mu_);
        if (n == configured_.load(std::memory_order_relaxed)) return;
        for (auto& t : teams_) {
            if (t) t->quiesce();
        }
        configured_.store(n, std::memory_order_relaxed);
    }

    [[nodiscard]] int budget() {
        return budget_.load(std::memory_order_relaxed);
    }

    void set_budget(int n) {
        MFC_REQUIRE(n >= 0 && n <= kMaxThreads,
                    "exec: core budget must be in [0, " +
                        std::to_string(kMaxThreads) + "]");
        budget_.store(n, std::memory_order_relaxed);
    }

    /// Reserve up to `want` worker slots from the budget; returns the
    /// number granted (possibly 0).
    int reserve_workers(int want) {
        int cur = reserved_.load(std::memory_order_relaxed);
        for (;;) {
            const int avail = std::max(0, budget() - cur);
            const int grant = std::min(want, avail);
            if (grant == 0) return 0;
            if (reserved_.compare_exchange_weak(cur, cur + grant,
                                                std::memory_order_relaxed)) {
                return grant;
            }
        }
    }

    void release_workers(int n) {
        reserved_.fetch_sub(n, std::memory_order_relaxed);
    }

    /// Tracks how many teams are inside a dispatch right now; the
    /// high-water mark is the rank-level occupancy of hybrid runs.
    void note_team_active(int delta) {
        const int now =
            active_teams_.fetch_add(delta, std::memory_order_relaxed) + delta;
        if (delta > 0) t_team_occupancy.max(now);
    }

    [[nodiscard]] Team& team(int id) {
        const int slot = ((id % kMaxTeams) + kMaxTeams) % kMaxTeams;
        {
            const std::lock_guard<std::mutex> tl(teams_mu_);
            if (!teams_[static_cast<std::size_t>(slot)]) {
                teams_[static_cast<std::size_t>(slot)] =
                    std::make_unique<Team>(*this, slot);
            }
        }
        return *teams_[static_cast<std::size_t>(slot)];
    }

    [[nodiscard]] Team& current() {
        return t_team != nullptr ? *t_team : team(0);
    }

private:
    Pool() = default;

    std::once_flag env_once_;
    std::atomic<int> configured_{1};
    std::atomic<int> budget_{initial_core_budget()};
    std::atomic<int> reserved_{0};
    std::atomic<int> active_teams_{0};
    std::mutex teams_mu_;
    // Destroyed first (reverse declaration order): each Team joins its
    // workers while the budget counters above are still alive.
    std::array<std::unique_ptr<Team>, kMaxTeams> teams_;
};

bool Team::dispatch(const char* label, int nchunks,
                    const std::function<void(int)>& chunk) {
    if (t_in_parallel) return false;
    if (!owner_.try_lock()) return false;
    const std::lock_guard<std::mutex> own(owner_, std::adopt_lock);
    const int target = pool_.threads();
    if (target <= 1 || nchunks <= 1) return false;
    ensure_workers(target - 1);
    const int nslots =
        std::min(static_cast<int>(workers_.size()) + 1, nchunks);
    if (nslots <= 1) return false; // budget granted no workers

    {
        const std::lock_guard<std::mutex> lk(m_);
        label_ = label;
        task_ = &chunk;
        nchunks_ = nchunks;
        nslots_ = nslots;
        steal_ = partition() == Partition::Steal;
        for (int s = 0; s < nslots; ++s) {
            cursor_[static_cast<std::size_t>(s)].store(
                nchunks * s / nslots, std::memory_order_relaxed);
            end_[static_cast<std::size_t>(s)] = nchunks * (s + 1) / nslots;
        }
        pending_ = nslots - 1;
        ++generation_;
    }
    work_cv_.notify_all();
    pool_.note_team_active(+1);
    t_occupancy.max(nslots);

    run_slot(0); // the dispatching thread starts on the first chunk range

    {
        std::unique_lock<std::mutex> lk(m_);
        done_cv_.wait(lk, [this] { return pending_ == 0; });
        task_ = nullptr;
    }
    pool_.note_team_active(-1);
    return true;
}

void Team::ensure_workers(int count) {
    // owner_ held. Workers only ever grow up to configured-1, bounded by
    // what the process-wide budget grants this team — R teams of T
    // threads never spawn past the budget combined. Each worker starts
    // having "seen" the current generation — it must wait for the
    // upcoming dispatch, not wake on a stale one (whose task_ is already
    // gone).
    while (static_cast<int>(workers_.size()) < count) {
        if (pool_.reserve_workers(1) < 1) return;
        ++reserved_;
        const int slot = static_cast<int>(workers_.size()) + 1;
        std::uint64_t start_gen = 0;
        {
            const std::lock_guard<std::mutex> lk(m_);
            start_gen = generation_;
        }
        workers_.emplace_back(
            [this, slot, start_gen] { worker_loop(slot, start_gen); });
    }
}

void Team::join_workers() {
    {
        const std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
        ++generation_;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
    pool_.release_workers(reserved_);
    reserved_ = 0;
    {
        const std::lock_guard<std::mutex> lk(m_);
        stop_ = false;
    }
}

void Team::worker_loop(int slot, std::uint64_t seen) {
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(m_);
            work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
            if (stop_) return;
            seen = generation_;
            if (slot >= nslots_) continue; // not needed this region
        }
        run_slot(slot);
        {
            const std::lock_guard<std::mutex> lk(m_);
            --pending_;
        }
        done_cv_.notify_one();
    }
}

void Team::run_slot(int slot) {
    const ParallelScope scope;
    ++t_chunk_depth;
    const auto drain = [this, slot] {
        // Own range first: chunk c's identity (bounds, partial slot) is
        // fixed by the grid, so completion is owner-ordered no matter
        // who executes it — determinism never depends on the thief.
        int c = 0;
        while ((c = cursor_[static_cast<std::size_t>(slot)].fetch_add(
                    1, std::memory_order_relaxed)) <
               end_[static_cast<std::size_t>(slot)]) {
            (*task_)(c);
        }
        if (!steal_) return;
        // Steal loop: grab from the peer with the most chunks left; an
        // increment that lands past the victim's end is an idle grab
        // (bounded: one per visit), never a double execution.
        for (;;) {
            int victim = -1;
            int best = 0;
            for (int v = 0; v < nslots_; ++v) {
                if (v == slot) continue;
                const int rem =
                    end_[static_cast<std::size_t>(v)] -
                    cursor_[static_cast<std::size_t>(v)].load(
                        std::memory_order_relaxed);
                if (rem > best) {
                    best = rem;
                    victim = v;
                }
            }
            if (victim < 0) break;
            c = cursor_[static_cast<std::size_t>(victim)].fetch_add(
                1, std::memory_order_relaxed);
            if (c < end_[static_cast<std::size_t>(victim)]) {
                t_steals.add(1);
                (*task_)(c);
            } else {
                t_idle_chunks.add(1);
            }
        }
    };
    if (slot == 0) {
        // The dispatching thread is already inside the enclosing kernel
        // zone; its share is attributed there.
        drain();
    } else {
        // Per-thread phase attribution: workers record their chunk time
        // under a root zone named after the loop, which zone_report()
        // merges and the Chrome trace shows per tid.
        telemetry::Zone zone(label_);
        drain();
    }
    --t_chunk_depth;
}

} // namespace

int num_threads() { return Pool::instance().threads(); }

void set_num_threads(int n) { Pool::instance().set_threads(n); }

int core_budget() { return Pool::instance().budget(); }

void set_core_budget(int n) { Pool::instance().set_budget(n); }

Partition partition() {
    return static_cast<Partition>(
        partition_cell().load(std::memory_order_relaxed));
}

void set_partition(Partition p) {
    partition_cell().store(static_cast<int>(p), std::memory_order_relaxed);
}

int tile_rows() {
    return tile_rows_cell().load(std::memory_order_relaxed);
}

void set_tile_rows(int n) {
    MFC_REQUIRE(n >= 1 && n <= 256, "exec: tile rows must be in [1, 256]");
    tile_rows_cell().store(n, std::memory_order_relaxed);
}

TeamGuard::TeamGuard(int team_id) : prev_(t_team) {
    t_team = &Pool::instance().team(team_id);
}

TeamGuard::~TeamGuard() { t_team = static_cast<Team*>(prev_); }

bool in_parallel() { return t_in_parallel; }

namespace detail {

int reduce_chunks(long long n) {
    // Fixed grid: fine enough to balance any sane thread count, coarse
    // enough that partial overhead is negligible. Depends only on n.
    return static_cast<int>(std::min<long long>(n, 64));
}

void parallel_chunks(const char* label, int nchunks,
                     const std::function<void(int)>& chunk) {
    if (nchunks <= 0) return;
    Pool& pool = Pool::instance();
    if (nchunks > 1 && pool.threads() > 1 &&
        pool.current().dispatch(label, nchunks, chunk)) {
        return;
    }
    const ParallelScope scope;
    for (int c = 0; c < nchunks; ++c) chunk(c);
}

} // namespace detail

void parallel_for(const char* label, long long begin, long long end,
                  const ChunkFn& body) {
    const long long n = end - begin;
    if (n <= 0) return;
    t_rows.add(n);
    Pool& pool = Pool::instance();
    const int nthreads = pool.threads();
    if (nthreads <= 1 || t_in_parallel) {
        // Serial identity: one chunk, inline. With 1 thread no zones
        // open (profile-identical to a plain loop); nested inside a
        // dispatched — possibly stolen — chunk, the nested label's zone
        // opens on the executing thread so the rows are attributed to
        // whoever actually runs them.
        t_inline_runs.add(1);
        const ParallelScope scope;
        if (t_chunk_depth > 0) {
            telemetry::Zone zone(label);
            body(begin, end);
        } else {
            body(begin, end);
        }
        return;
    }
    // Steal mode oversubscribes the grid so uneven chunk cost leaves
    // stealable work; static mode keeps one chunk per slot. Either way
    // the grid depends only on (n, nthreads, mode) — never on which
    // thread runs a chunk — so results are partition-reproducible.
    const long long max_chunks =
        partition() == Partition::Steal
            ? static_cast<long long>(nthreads) * kStealChunksPerSlot
            : static_cast<long long>(nthreads);
    const int nchunks = static_cast<int>(std::min<long long>(n, max_chunks));
    const auto chunk = [&](int c) {
        const long long lo = begin + n * c / nchunks;
        const long long hi = begin + n * (c + 1) / nchunks;
        if (lo < hi) body(lo, hi);
    };
    if (pool.current().dispatch(label, nchunks, chunk)) {
        t_dispatches.add(1);
    } else {
        t_inline_runs.add(1);
        const ParallelScope scope;
        body(begin, end);
    }
}

double* Arena::alloc(std::size_t n) {
    if (n == 0) n = 1;
    // Round up to the alignment quantum: the bump pointer only ever moves
    // in whole 64-byte units, so every returned block inherits the slab's
    // alignment.
    n = (n + kAlignDoubles - 1) / kAlignDoubles * kAlignDoubles;
    while (true) {
        if (slab_ < slabs_.size()) {
            Slab& s = slabs_[slab_];
            if (used_ + n <= s.size) {
                double* p = s.data.get() + used_;
                used_ += n;
                std::fill(p, p + n, 0.0);
                MFC_DBG_ASSERT(simd::is_aligned(p));
                t_arena_high.max(static_cast<std::int64_t>(
                    slab_ * kSlabDoubles + used_));
                return p;
            }
            // Doesn't fit in the current slab: move to the next (existing
            // blocks stay put — slabs never reallocate).
            ++slab_;
            used_ = 0;
            continue;
        }
        const std::size_t size = std::max(n, kSlabDoubles);
        Slab s;
        s.data.reset(static_cast<double*>(::operator new(
            size * sizeof(double), std::align_val_t(kAlignBytes))));
        s.size = size;
        slabs_.push_back(std::move(s));
        slab_ = slabs_.size() - 1;
        used_ = 0;
    }
}

Arena& scratch_arena() {
    thread_local Arena arena;
    return arena;
}

} // namespace mfc::exec
