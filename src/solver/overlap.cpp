#include "solver/overlap.hpp"

#include "grid/grid.hpp"
#include "telemetry/telemetry.hpp"

namespace mfc {

namespace {

// Node names per dimension (string literals: zones are keyed by pointer).
constexpr const char* kPostName[3] = {"halo_post_x", "halo_post_y",
                                      "halo_post_z"};
constexpr const char* kWaitName[3] = {"halo_wait_x", "halo_wait_y",
                                      "halo_wait_z"};
constexpr const char* kBcName[3] = {"bc_x", "bc_y", "bc_z"};
constexpr const char* kPrimGhostName[3] = {"prim_ghost_x", "prim_ghost_y",
                                           "prim_ghost_z"};
constexpr const char* kCoreName[3] = {"core_x", "core_y", "core_z"};
constexpr const char* kShellName[3] = {"shell_x", "shell_y", "shell_z"};

/// Interior range of `dim` whose sweep stencils cannot reach a ghost
/// cell: [g, n - g). Empty when the block is too thin to have a
/// ghost-independent core along this dimension.
struct CoreRange {
    int lo = 0;
    int hi = 0;
};

} // namespace

OverlapRhs::OverlapRhs(const CaseConfig& config, const LocalBlock& block,
                       comm::CartComm* cart, const PhysicalFaces& faces,
                       RhsEvaluator& rhs)
    : lay_(config.layout()),
      bc_(config.bc),
      cart_(cart),
      faces_(faces),
      rhs_(&rhs),
      local_(block.cells) {
    int actives = 0;
    for (int d = 0; d < 3; ++d) {
        const bool act = extent(d) > 1;
        ghosts_[d] = act ? rhs.ghost_layers() : 0;
        if (act) ++actives;
    }
    // The graph covers every configuration whose sweeps it can span-split;
    // the rest (characteristic-wise WENO, 0-dimensional grids) keep the
    // synchronous reference composition.
    graph_active_ = rhs.supports_overlap() && actives > 0;
    if (cart_ == nullptr) faces_ = PhysicalFaces{}; // serial: all physical
}

int OverlapRhs::extent(int dim) const {
    return dim == 0 ? local_.nx : dim == 1 ? local_.ny : local_.nz;
}

void OverlapRhs::sync_fill_ghosts(StateArray& q) {
    // Replica of Simulation::fill_ghosts (the dimension-interleaved
    // exchange + BC fill) for configurations the graph does not cover.
    PROF_ZONE("ghosts");
    for (int d = 0; d < 3; ++d) {
        if (cart_ != nullptr) exchange_halos_dim(*cart_, q, d);
        PROF_ZONE("bc");
        apply_boundary_conditions_dim(lay_, bc_, faces_,
                                      /*serial_periodic=*/cart_ == nullptr, d,
                                      q);
    }
}

void OverlapRhs::convert_ghost_slabs(const StateArray& q, int dim) {
    // The two ghost slabs normal to `dim`, with the transverse extent of
    // the dimension-interleaved fill: dimensions below `dim` span their
    // extended range (their ghosts are already valid), dimensions above
    // stay interior (their ghost conversion happens in their own slab).
    // Together with the interior box the three slab pairs tile the
    // extended domain exactly once.
    int lo[3] = {0, 0, 0};
    int hi[3] = {local_.nx, local_.ny, local_.nz};
    for (int e = 0; e < dim; ++e) {
        lo[e] -= ghosts_[e];
        hi[e] += ghosts_[e];
    }
    const int g = ghosts_[dim];
    const int n = extent(dim);
    int slo[3] = {lo[0], lo[1], lo[2]};
    int shi[3] = {hi[0], hi[1], hi[2]};
    slo[dim] = -g;
    shi[dim] = 0;
    rhs_->convert_primitives(q, slo, shi);
    slo[dim] = n;
    shi[dim] = n + g;
    rhs_->convert_primitives(q, slo, shi);
}

void OverlapRhs::evaluate(StateArray& q, StateArray& dq) {
    if (!graph_active_) {
        sync_fill_ghosts(q);
        rhs_->evaluate(q, dq);
        return;
    }
    PROF_ZONE("rhs_graph");

    using NodeId = sched::TaskGraph::NodeId;
    sched::TaskGraph graph;

    // --- Halo/BC chain -------------------------------------------------
    // post_d -> wait_d -> bc_d -> post_{d+1} -> ...: a dimension's send
    // slabs span the extended range of the dimensions before it, so its
    // post is gated on the previous BC fill exactly like the synchronous
    // interleaving. The overlap is everything that runs while a wait is
    // merely posted, not blocked on.
    NodeId post_id[3] = {-1, -1, -1};
    NodeId wait_id[3] = {-1, -1, -1};
    NodeId bc_id[3] = {-1, -1, -1};
    NodeId prev_bc = -1;
    for (int d = 0; d < 3; ++d) {
        if (cart_ != nullptr && ghosts_[d] > 0) {
            post_id[d] = graph.add(kPostName[d], [this, &q, d] {
                channels_[d].post(*cart_, q, d);
            });
            wait_id[d] =
                graph.add_pollable(kWaitName[d], [this, &q, d](bool block) {
                    return channels_[d].ready(q, block);
                });
            graph.edge(post_id[d], wait_id[d]);
            if (prev_bc >= 0) graph.edge(prev_bc, post_id[d]);
        }
        bc_id[d] = graph.add(kBcName[d], [this, &q, d] {
            apply_boundary_conditions_dim(lay_, bc_, faces_,
                                          /*serial_periodic=*/cart_ == nullptr,
                                          d, q);
        });
        if (wait_id[d] >= 0) {
            graph.edge(wait_id[d], bc_id[d]);
        } else if (prev_bc >= 0) {
            graph.edge(prev_bc, bc_id[d]);
        }
        prev_bc = bc_id[d];
    }

    // --- Primitive conversion ------------------------------------------
    // Interior immediately (the overlap workhorse's input); each ghost
    // slab pair once its dimension's ghosts are complete. The conversion
    // is pointwise, so this tiling is bitwise-equal to the synchronous
    // whole-box pass.
    const NodeId prim_int = graph.add("prim_int", [this, &q] {
        const int lo[3] = {0, 0, 0};
        const int hi[3] = {local_.nx, local_.ny, local_.nz};
        rhs_->convert_primitives(q, lo, hi);
    });
    NodeId prim_ghost[3] = {-1, -1, -1};
    for (int d = 0; d < 3; ++d) {
        if (ghosts_[d] == 0) continue;
        prim_ghost[d] = graph.add(kPrimGhostName[d], [this, &q, d] {
            convert_ghost_slabs(q, d);
        });
        graph.edge(bc_id[d], prim_ghost[d]);
    }

    // --- IGR entropic pressure -----------------------------------------
    // The sigma source reads primitive gradients one ghost deep and the
    // elliptic solve couples the whole block, so it joins after every
    // primitive region; IGR's overlap window is the interior conversion
    // only.
    NodeId sigma = -1;
    if (rhs_->igr_enabled()) {
        sigma = graph.add("sigma", [this] { rhs_->compute_igr_sigma(); });
        graph.edge(prim_int, sigma);
        for (const NodeId pg : prim_ghost) {
            if (pg >= 0) graph.edge(pg, sigma);
        }
    }

    // --- Sweeps: ghost-independent core, halo-gated shell --------------
    // The core box keeps `ghosts` cells of margin along every active
    // dimension, so a core sweep's stencils never leave the interior: it
    // depends only on prim_int (and sigma) and runs while halos are in
    // flight. The shell (interior minus core) is covered exactly once
    // per sweep dimension by an onion of up to six spans. Core and shell
    // write disjoint cell sets, and each chain applies its x, y, z
    // contributions in sweep order, so per-cell accumulation is
    // identical to evaluate().
    CoreRange core[3];
    bool core_ok = true;
    for (int d = 0; d < 3; ++d) {
        core[d].lo = ghosts_[d];
        core[d].hi = extent(d) - ghosts_[d];
        if (extent(d) > 1 && core[d].hi <= core[d].lo) core_ok = false;
    }
    if (!core_ok) {
        // Block too thin for a ghost-independent interior: the "shell"
        // spans everything and the graph degenerates to halo-serialized
        // sweeps (still bitwise-correct, just nothing to hide behind).
        for (int d = 0; d < 3; ++d) {
            core[d].lo = 0;
            core[d].hi = 0;
        }
    }

    // Sweep-local coordinates: c along the sweep, (u, v) = (t1, t2).
    const auto udim = [](int d) { return d == 0 ? 1 : 0; };
    const auto vdim = [](int d) { return d == 2 ? 1 : 2; };

    NodeId prev_core = -1;
    NodeId prev_shell = -1;
    NodeId core_id[3] = {-1, -1, -1};
    NodeId shell_id[3] = {-1, -1, -1};
    bool first_sweep = true;
    for (int d = 0; d < 3; ++d) {
        if (!rhs_->dim_active(d)) continue;
        const CoreRange cc = core[d];
        const CoreRange cu = core[udim(d)];
        const CoreRange cv = core[vdim(d)];
        const int n_c = extent(d);
        const int n_u = extent(udim(d));
        const int n_v = extent(vdim(d));
        const bool accumulate = !first_sweep;
        first_sweep = false;

        if (core_ok) {
            const SweepSpan core_span{cc.lo, cc.hi, cu.lo, cu.hi,
                                      cv.lo, cv.hi};
            core_id[d] = graph.add(kCoreName[d], [this, d, core_span, &dq,
                                                  accumulate] {
                rhs_->sweep_span(d, core_span, dq, accumulate);
            });
            graph.edge(prim_int, core_id[d]);
            if (sigma >= 0) graph.edge(sigma, core_id[d]);
            if (prev_core >= 0) graph.edge(prev_core, core_id[d]);
            prev_core = core_id[d];
        }

        // Onion covering interior minus core for this sweep: full-depth
        // pencils outside the transverse core window, then the two
        // near-face cell bands inside it. Empty spans are skipped by
        // sweep_span; with an empty core the last two spans are the whole
        // block.
        const std::array<SweepSpan, 6> onion = core_ok
            ? std::array<SweepSpan, 6>{{
                  {0, n_c, 0, n_u, 0, cv.lo},
                  {0, n_c, 0, n_u, cv.hi, n_v},
                  {0, n_c, 0, cu.lo, cv.lo, cv.hi},
                  {0, n_c, cu.hi, n_u, cv.lo, cv.hi},
                  {0, cc.lo, cu.lo, cu.hi, cv.lo, cv.hi},
                  {cc.hi, n_c, cu.lo, cu.hi, cv.lo, cv.hi},
              }}
            : std::array<SweepSpan, 6>{{
                  {}, {}, {}, {}, {0, n_c, 0, n_u, 0, n_v}, {},
              }};
        shell_id[d] = graph.add(kShellName[d],
                                [this, d, onion, &dq, accumulate] {
            for (const SweepSpan& span : onion) {
                rhs_->sweep_span(d, span, dq, accumulate);
            }
        });
        graph.edge(prim_int, shell_id[d]);
        if (sigma >= 0) graph.edge(sigma, shell_id[d]);
        if (prim_ghost[d] >= 0) graph.edge(prim_ghost[d], shell_id[d]);
        if (prev_shell >= 0) graph.edge(prev_shell, shell_id[d]);
        prev_shell = shell_id[d];
    }

    // --- Sources -------------------------------------------------------
    // Viscous fluxes read cross-derivative (edge/corner) ghosts, so the
    // tail waits on every primitive region on top of the sweeps.
    const NodeId sources = graph.add("sources", [this, &dq] {
        rhs_->apply_sources(dq);
    });
    if (prev_core >= 0) graph.edge(prev_core, sources);
    if (prev_shell >= 0) graph.edge(prev_shell, sources);
    graph.edge(prim_int, sources);
    for (const NodeId pg : prim_ghost) {
        if (pg >= 0) graph.edge(pg, sources);
    }

    try {
        graph.run();
    } catch (...) {
        // A diagnosed peer failure (or any node error) leaves receives
        // posted; drop them so the channels can unwind cleanly.
        for (HaloChannel& ch : channels_) ch.cancel();
        throw;
    }

    // Overlap accounting goes straight to the telemetry registry — the
    // single source of truth read by bench, mfc run, and the tests. "In
    // flight" is the window from a halo post's completion to its wait's
    // completion; "exposed" is the time actually spent inside the wait
    // node; the difference is communication hidden under compute.
    static telemetry::Counter t_in_flight("sched.comm_in_flight_ns",
                                          telemetry::Klass::Timing);
    static telemetry::Counter t_exposed("sched.comm_exposed_ns",
                                        telemetry::Klass::Timing);
    const std::vector<sched::TaskGraph::NodeStats>& st = graph.stats();
    for (int d = 0; d < 3; ++d) {
        if (wait_id[d] < 0) continue;
        const auto& post = st[static_cast<std::size_t>(post_id[d])];
        const auto& wait = st[static_cast<std::size_t>(wait_id[d])];
        t_in_flight.add(wait.done_ns - post.done_ns);
        t_exposed.add(wait.exec_ns);
    }
    last_nodes_ = st;
    last_trace_ = graph.trace();
}

} // namespace mfc
