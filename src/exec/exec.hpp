#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <vector>

namespace mfc::exec {

/// mfc::exec — the thread-parallel execution layer under the pencil
/// kernels. The process owns a set of worker *teams*, each a disjoint
/// group of threads carved from one process-wide core budget; chunked
/// loops dispatch onto the calling thread's team with work-stealing
/// chunk scheduling:
///
///     exec::parallel_for("weno_x", 0, rows, [&](long long lo, long long hi) {
///         for (long long row = lo; row < hi; ++row) { ... }
///     });
///
/// Hybrid ranks×threads execution (`mfc run --ranks R --threads T`):
/// each simMPI rank thread binds its own team via TeamGuard (comm::World
/// does this automatically), so R dispatchers each drive T threads
/// without contending for a single pool — the single-node analogue of
/// one MPI rank per device filled with fine-grained parallelism.
///
/// Contracts the solver relies on:
///
///  - **Serial identity.** With num_threads() == 1 the body runs inline
///    on the calling thread as a single chunk [begin, end) — bitwise and
///    profile-identical to a plain loop. This is the default.
///  - **Partition independence.** Callers must make chunk bodies
///    independent (disjoint writes, no cross-row reads of written data),
///    so results do not depend on where chunk boundaries fall — nor on
///    which thread ran a chunk. This is what makes work-stealing safe:
///    stealing only changes *who* runs a chunk, never its bounds, so
///    every `--ranks R --threads T` reproduces serial bitwise.
///  - **Nested and concurrent safety.** A parallel_for issued from inside
///    a parallel region, or while another thread holds the calling
///    thread's team, degrades to the inline serial path instead of
///    deadlocking. Rank-level (simMPI) and row-level parallelism compose.
///  - **Deterministic reductions.** ordered_reduce splits [begin, end)
///    into a chunk grid that depends only on the range, evaluates the
///    per-chunk partials in parallel (chunk c's partial lands in slot c
///    no matter which thread computed it — owner-ordered completion),
///    and combines them on the calling thread in a fixed pairwise tree
///    order — run-to-run, thread-count- and rank-count-independent
///    results for any combine operation. Cross-rank reductions layer a
///    rank-ordered gather (comm::Communicator::allreduce) on top, so the
///    two levels compose deterministically.
///
/// Worker threads open a telemetry::Zone named after the loop label while
/// executing their chunks, so profiles and Chrome traces attribute kernel
/// time per thread; a nested parallel_for issued from inside a dispatched
/// (possibly stolen) chunk opens the nested label's zone on the executing
/// thread (see docs/performance.md).

/// Configured worker-team width (threads per team, >= 1). Initialized on
/// first use from the MFC_NUM_THREADS environment variable, default 1.
[[nodiscard]] int num_threads();

/// Set the per-team worker count (--threads N). Blocks until every team
/// is idle; call from the main thread at startup, not from inside
/// kernels.
void set_num_threads(int n);

/// Process-wide core budget: the total number of extra worker threads
/// all teams together may spawn. Teams that would exceed it run with the
/// slots the budget grants (down to dispatcher-only, i.e. inline).
/// Initialized from MFC_CORE_BUDGET, default 256 (the hard thread cap).
[[nodiscard]] int core_budget();
void set_core_budget(int n);

/// Chunk scheduling policy. There is one: the chunk grid is
/// oversubscribed and idle slots pull chunks from the fullest peer (see
/// parallel_for). Kept only because the repository benchmark prints it
/// in its provenance line, as it does tile_rows().
enum class Partition { Steal };
[[nodiscard]] constexpr Partition partition() { return Partition::Steal; }

/// Pencils per tile of ubench's `transpose_tile` reference copy (16 = two
/// 64-byte lines of doubles); the repository benchmark times that kernel
/// and prints this value in its provenance line.
[[nodiscard]] constexpr int tile_rows() { return 16; }

/// Binds the calling thread to worker team `team_id` for the guard's
/// lifetime (previous binding restored on destruction). Teams are
/// created lazily and persist for the process; threads that never bind
/// share team 0. comm::World::run binds rank r to team r, which is what
/// makes `--ranks R --threads T` a true R×T hybrid.
class TeamGuard {
public:
    explicit TeamGuard(int team_id);
    TeamGuard(const TeamGuard&) = delete;
    TeamGuard& operator=(const TeamGuard&) = delete;
    ~TeamGuard();

private:
    void* prev_;
};

/// True while the calling thread is executing a parallel_for/
/// ordered_reduce body (used by the nested-dispatch guard; exposed for
/// tests).
[[nodiscard]] bool in_parallel();

/// Chunk body: process rows [chunk_begin, chunk_end).
using ChunkFn = std::function<void(long long, long long)>;

/// Run `body` over [begin, end) split into contiguous chunks dispatched
/// on the calling thread's team, where slots that drain their own chunks
/// steal from their peers. Chunk boundaries depend only on the range and
/// the configured thread count — never on which thread runs a chunk. Empty
/// ranges return immediately; empty chunks are skipped. `label` must be
/// a string literal (zones are keyed by pointer).
void parallel_for(const char* label, long long begin, long long end,
                  const ChunkFn& body);

namespace detail {

/// Chunk grid for ordered reductions: depends only on the range length,
/// never on the thread count, so partial boundaries (hence any
/// non-associative combine) are reproducible across configurations.
[[nodiscard]] int reduce_chunks(long long n);

/// Dispatch `chunk(c)` for c in [0, nchunks) across the pool (or inline
/// when serial/nested/contended).
void parallel_chunks(const char* label, int nchunks,
                     const std::function<void(int)>& chunk);

} // namespace detail

/// Deterministic ordered reduction over [begin, end). `map` evaluates one
/// chunk ([lo, hi)) to a partial; `combine` folds two partials. Partials
/// are combined in a fixed pairwise tree (adjacent pairs, repeatedly), on
/// the calling thread, in chunk order — the result is identical run to
/// run and for every thread count, including 1.
template <class T, class Map, class Combine>
[[nodiscard]] T ordered_reduce(const char* label, long long begin,
                               long long end, T identity, Map map,
                               Combine combine) {
    const long long n = end - begin;
    if (n <= 0) return identity;
    const int nchunks = detail::reduce_chunks(n);
    std::vector<T> partial(static_cast<std::size_t>(nchunks), identity);
    detail::parallel_chunks(label, nchunks, [&](int c) {
        const long long lo = begin + n * c / nchunks;
        const long long hi = begin + n * (c + 1) / nchunks;
        if (lo < hi) partial[static_cast<std::size_t>(c)] = map(lo, hi);
    });
    // Fixed pairwise tree: (((p0 p1)(p2 p3))((p4 p5)...)) regardless of
    // how many threads produced the partials.
    std::size_t count = partial.size();
    while (count > 1) {
        std::size_t out = 0;
        for (std::size_t i = 0; i + 1 < count; i += 2) {
            partial[out++] = combine(partial[i], partial[i + 1]);
        }
        if (count % 2 == 1) partial[out++] = partial[count - 1];
        count = out;
    }
    return combine(identity, partial[0]);
}

/// Per-thread bump allocator for kernel row scratch. Allocations are
/// slab-backed: growing never moves previously returned blocks, so nested
/// frames (an inline-serialized nested parallel_for) keep their pointers
/// valid. Every returned block is 64-byte aligned (simd::kByteAlign, one
/// cache line / one 512-bit vector) — block sizes are rounded up to a
/// multiple of 8 doubles so the bump pointer never breaks the alignment —
/// making the row buffers safe targets for aligned vector loads and free
/// of split-line accesses. Typical use inside a chunk body:
///
///     exec::Arena::Frame frame(exec::scratch_arena());
///     double* row = frame.doubles(len);
///
/// The frame releases its allocations on scope exit.
class Arena {
public:
    /// RAII allocation scope; restores the arena to its state at
    /// construction.
    class Frame {
    public:
        explicit Frame(Arena& a)
            : arena_(a), slab_(a.slab_), used_(a.used_) {}
        Frame(const Frame&) = delete;
        Frame& operator=(const Frame&) = delete;
        ~Frame() {
            arena_.slab_ = slab_;
            arena_.used_ = used_;
        }

        /// Zero-initialized block of `n` doubles, valid for the frame's
        /// lifetime.
        [[nodiscard]] double* doubles(std::size_t n) {
            return arena_.alloc(n);
        }

    private:
        Arena& arena_;
        std::size_t slab_;
        std::size_t used_;
    };

private:
    [[nodiscard]] double* alloc(std::size_t n);

    static constexpr std::size_t kSlabDoubles = 1 << 15; // 256 KiB
    /// Alignment of every returned block, in bytes and in doubles.
    static constexpr std::size_t kAlignBytes = 64;
    static constexpr std::size_t kAlignDoubles = kAlignBytes / sizeof(double);

    struct AlignedDelete {
        void operator()(double* p) const {
            ::operator delete(static_cast<void*>(p),
                              std::align_val_t(kAlignBytes));
        }
    };
    struct Slab {
        std::unique_ptr<double, AlignedDelete> data;
        std::size_t size = 0;
    };
    std::vector<Slab> slabs_;
    std::size_t slab_ = 0; ///< index of the slab currently bumped
    std::size_t used_ = 0; ///< doubles used in that slab
};

/// The calling thread's scratch arena (thread-local: pool workers, simMPI
/// rank threads, and the main thread each own one).
[[nodiscard]] Arena& scratch_arena();

} // namespace mfc::exec
