#include "sched/sched.hpp"

#include <algorithm>
#include <exception>
#include <vector>

#include "core/error.hpp"
#include "exec/exec.hpp"
#include "telemetry/telemetry.hpp"

namespace mfc::sched {

namespace {

// Graph and node counts are fixed by the configuration (Det); how often
// a pollable was test-polled depends on message timing (Sched).
telemetry::Counter t_graph_runs("sched.graph_runs");
telemetry::Counter t_nodes("sched.nodes_executed");
telemetry::Counter t_polls("sched.polls", telemetry::Klass::Sched);

} // namespace

TaskGraph::NodeId TaskGraph::add(const char* name, std::function<void()> fn) {
    MFC_ASSERT(!ran_);
    Node node;
    node.name = name;
    node.fn = std::move(fn);
    nodes_.push_back(std::move(node));
    return static_cast<NodeId>(nodes_.size()) - 1;
}

TaskGraph::NodeId TaskGraph::add_pollable(const char* name,
                                          std::function<bool(bool)> poll) {
    MFC_ASSERT(!ran_);
    Node node;
    node.name = name;
    node.poll = std::move(poll);
    nodes_.push_back(std::move(node));
    return static_cast<NodeId>(nodes_.size()) - 1;
}

void TaskGraph::edge(NodeId before, NodeId after) {
    MFC_ASSERT(!ran_);
    MFC_ASSERT(before >= 0 && before < static_cast<NodeId>(nodes_.size()));
    MFC_ASSERT(after >= 0 && after < static_cast<NodeId>(nodes_.size()));
    MFC_ASSERT(before != after);
    nodes_[static_cast<std::size_t>(before)].successors.push_back(after);
    ++nodes_[static_cast<std::size_t>(after)].unmet;
}

void TaskGraph::complete(NodeId id, std::int64_t now_ns) {
    stats_[static_cast<std::size_t>(id)].done_ns = now_ns;
    trace_.push_back(id);
    for (const NodeId succ : nodes_[static_cast<std::size_t>(id)].successors) {
        Node& s = nodes_[static_cast<std::size_t>(succ)];
        MFC_ASSERT(s.unmet > 0);
        if (--s.unmet == 0) {
            stats_[static_cast<std::size_t>(succ)].ready_ns = now_ns;
        }
    }
}

void TaskGraph::run() {
    MFC_REQUIRE(!ran_, "TaskGraph: graphs are single-use");
    ran_ = true;
    const std::size_t n = nodes_.size();
    stats_.assign(n, NodeStats{});
    trace_.clear();
    trace_.reserve(n);
    const std::int64_t t0 = telemetry::clock_ns();
    for (std::size_t i = 0; i < n; ++i) {
        stats_[i].name = nodes_[i].name;
        if (nodes_[i].unmet == 0) stats_[i].ready_ns = 0;
    }

    std::size_t done = 0;
    while (done < n) {
        // Test-poll every ready communication node first: completed
        // messages unlock their successors before the next compute node
        // is chosen, which is the whole overlap mechanism.
        bool progressed = false;
        for (std::size_t i = 0; i < n; ++i) {
            Node& node = nodes_[i];
            NodeStats& st = stats_[i];
            if (!node.poll || st.ready_ns < 0 || st.done_ns >= 0) continue;
            const std::int64_t begin = telemetry::clock_ns();
            bool finished;
            {
                telemetry::Zone zone(node.name);
                finished = node.poll(false);
            }
            const std::int64_t end = telemetry::clock_ns();
            st.exec_ns += end - begin;
            ++st.polls;
            if (finished) {
                complete(static_cast<NodeId>(i), end - t0);
                ++done;
                progressed = true;
            }
        }
        if (progressed) continue;

        // Runnable compute nodes next, gathered in id order.
        std::vector<NodeId> batch;
        for (std::size_t i = 0; i < n; ++i) {
            if (!nodes_[i].fn) continue;
            if (stats_[i].ready_ns >= 0 && stats_[i].done_ns < 0) {
                batch.push_back(static_cast<NodeId>(i));
            }
        }
        if (batch.size() == 1 || exec::num_threads() <= 1 ||
            exec::in_parallel()) {
            // Single ready node (or serial): run it here so its internal
            // parallel_for keeps the whole team.
            if (!batch.empty()) {
                const NodeId pick = batch.front();
                Node& node = nodes_[static_cast<std::size_t>(pick)];
                NodeStats& st = stats_[static_cast<std::size_t>(pick)];
                const std::int64_t begin = telemetry::clock_ns();
                {
                    telemetry::Zone zone(node.name);
                    node.fn();
                }
                const std::int64_t end = telemetry::clock_ns();
                st.exec_ns += end - begin;
                complete(pick, end - t0);
                ++done;
                continue;
            }
        } else if (batch.size() > 1) {
            // Several independent nodes are ready: execute them
            // concurrently on the calling rank's team. Ready-together
            // nodes have edge-independent (disjoint) write sets by the
            // graph contract, and each body's internal parallel_for
            // degrades to the serial-identical inline path, so per-node
            // arithmetic is unchanged. Completion is committed in node-id
            // order afterwards (owner-ordered), keeping trace() and
            // successor ready-stamps deterministic for a given readiness
            // pattern; exceptions rethrow lowest-id first.
            const std::size_t k = batch.size();
            std::vector<std::int64_t> node_begin(k, 0);
            std::vector<std::int64_t> node_end(k, 0);
            std::vector<std::exception_ptr> errors(k);
            exec::detail::parallel_chunks(
                "sched_nodes", static_cast<int>(k), [&](int b) {
                    Node& node =
                        nodes_[static_cast<std::size_t>(batch[static_cast<std::size_t>(b)])];
                    node_begin[static_cast<std::size_t>(b)] = telemetry::clock_ns();
                    try {
                        telemetry::Zone zone(node.name);
                        node.fn();
                    } catch (...) {
                        errors[static_cast<std::size_t>(b)] =
                            std::current_exception();
                    }
                    node_end[static_cast<std::size_t>(b)] = telemetry::clock_ns();
                });
            for (std::size_t b = 0; b < k; ++b) {
                if (errors[b]) std::rethrow_exception(errors[b]);
                const NodeId id = batch[b];
                stats_[static_cast<std::size_t>(id)].exec_ns +=
                    node_end[b] - node_begin[b];
                complete(id, node_end[b] - t0);
                ++done;
            }
            continue;
        }

        // No compute work left to hide behind: hard-block on the first
        // ready communication node.
        NodeId comm = -1;
        for (std::size_t i = 0; i < n; ++i) {
            if (!nodes_[i].poll) continue;
            if (stats_[i].ready_ns >= 0 && stats_[i].done_ns < 0) {
                comm = static_cast<NodeId>(i);
                break;
            }
        }
        MFC_REQUIRE(comm >= 0,
                    "TaskGraph: no runnable node — dependency cycle");
        Node& node = nodes_[static_cast<std::size_t>(comm)];
        NodeStats& st = stats_[static_cast<std::size_t>(comm)];
        const std::int64_t begin = telemetry::clock_ns();
        bool finished;
        {
            telemetry::Zone zone(node.name);
            finished = node.poll(true);
        }
        const std::int64_t end = telemetry::clock_ns();
        st.exec_ns += end - begin;
        ++st.polls;
        MFC_REQUIRE(finished, "TaskGraph: blocking poll did not complete");
        complete(comm, end - t0);
        ++done;
    }

    t_graph_runs.add(1);
    t_nodes.add(static_cast<std::int64_t>(n));
    std::int64_t polls = 0;
    for (const NodeStats& st : stats_) polls += st.polls;
    t_polls.add(polls);
}

} // namespace mfc::sched
