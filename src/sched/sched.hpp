#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace mfc::sched {

/// mfc::sched — dependency-ordered task graph for one RHS evaluation
/// (ROADMAP item 1: communication/computation overlap). The solver
/// expresses each evaluation as nodes with explicit edges instead of
/// barriers: halo posts go out first, ghost-independent interior work
/// runs while messages are in flight, and boundary work is gated on the
/// halo wait that feeds it. A lone ready compute node executes on the
/// calling rank's thread and parallelizes internally over the rank's
/// src/exec worker team exactly as the synchronous path does; when
/// several independent compute nodes are ready together they execute
/// concurrently on the team (each body then runs its internal loops on
/// the serial-identical inline path). Either way the per-cell arithmetic
/// and its ordering are untouched and results stay bitwise identical.
///
/// Two node kinds:
///   - compute nodes: a closure run exactly once when every predecessor
///     has completed;
///   - pollable nodes: a closure `poll(bool block)` for in-flight
///     communication. Once ready, the scheduler test-polls it between
///     compute nodes (block = false) and only hard-blocks (block = true,
///     i.e. Request::wait) when no compute node is runnable — that gap
///     between "ready" and "complete" is where comm hides under compute.
///
/// Execution order is deterministic: among runnable compute nodes the
/// lowest id runs (and a concurrent ready batch completes) in id order,
/// so a graph always replays the same node sequence for a given
/// completion pattern; bitwise output identity is independent of the
/// completion pattern because nodes with overlapping write sets are
/// always ordered by edges.
class TaskGraph {
public:
    using NodeId = int;

    /// Per-node execution record, all timestamps in ns relative to the
    /// start of run(). `exec_ns` accumulates time spent inside the node
    /// body (for pollables: every poll, blocking or not) — for a comm
    /// node this is its *exposed* time, while `done_ns - ready_ns` spans
    /// the whole in-flight window.
    struct NodeStats {
        const char* name = nullptr;
        std::int64_t ready_ns = -1;
        std::int64_t done_ns = -1;
        std::int64_t exec_ns = 0;
        std::int64_t polls = 0;
    };

    /// Add a compute node. `name` must be a string literal (zones
    /// key on the pointer). Returns the node id; ids are dense and
    /// allocated in call order.
    NodeId add(const char* name, std::function<void()> fn);

    /// Add a pollable (communication) node. `poll(block)` returns true
    /// when the operation has completed; with block = true it must not
    /// return false.
    NodeId add_pollable(const char* name, std::function<bool(bool)> poll);

    /// Declare that `before` must complete before `after` starts.
    void edge(NodeId before, NodeId after);

    /// Execute the graph to completion (single use). Throws on a cycle;
    /// exceptions from node bodies propagate to the caller.
    void run();

    [[nodiscard]] std::size_t size() const { return nodes_.size(); }
    /// Valid after run().
    [[nodiscard]] const std::vector<NodeStats>& stats() const { return stats_; }
    /// Node ids in completion order; valid after run().
    [[nodiscard]] const std::vector<NodeId>& trace() const { return trace_; }

private:
    struct Node {
        const char* name = nullptr;
        std::function<void()> fn;           ///< compute body (or empty)
        std::function<bool(bool)> poll;     ///< pollable body (or empty)
        std::vector<NodeId> successors;
        int unmet = 0; ///< predecessors not yet complete
    };

    void complete(NodeId id, std::int64_t now_ns);

    std::vector<Node> nodes_;
    std::vector<NodeStats> stats_;
    std::vector<NodeId> trace_;
    bool ran_ = false;
};

} // namespace mfc::sched
