#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "core/field.hpp"
#include "grid/grid.hpp"
#include "numerics/igr.hpp"
#include "solver/case_config.hpp"

namespace mfc {

/// Sub-range of one directional sweep: cells [c_lo, c_hi) along the sweep
/// dimension, pencils [t1_lo, t1_hi) x [t2_lo, t2_hi) transverse to it
/// (t1 is the fast transverse index: y for an x-sweep, x otherwise).
/// Restricting a sweep to a span is bitwise-safe — per-cell arithmetic
/// never depends on where the cell sits inside the processed range — so
/// the task-graph RHS can split each sweep into a ghost-independent core
/// and a halo-dependent shell without perturbing results.
struct SweepSpan {
    int c_lo = 0, c_hi = 0;   ///< cells along the sweep dimension
    int t1_lo = 0, t1_hi = 0; ///< fast transverse pencil range
    int t2_lo = 0, t2_hi = 0; ///< slow transverse pencil range
    [[nodiscard]] bool empty() const {
        return c_hi <= c_lo || t1_hi <= t1_lo || t2_hi <= t2_lo;
    }
};

/// Right-hand-side assembly for the semi-discrete finite-volume system
///
///     d(cons)/dt = - sum_d (F_{f+1/2} - F_{f-1/2}) / dx_d + sources
///
/// with either WENO reconstruction + approximate Riemann fluxes (MFC's
/// default path) or IGR central fluxes with entropic-pressure
/// regularization (the "alternative numerics" of Section 6.3).
///
/// One evaluation of this operator is the unit of work in the grindtime
/// figure of merit: ns / (grid point * equation * RHS evaluation).
class RhsEvaluator {
public:
    /// `block` is the rank-local sub-block (the whole grid in serial
    /// runs); its offset supplies physical coordinates for space-dependent
    /// sources. Scratch storage is allocated once here.
    RhsEvaluator(const CaseConfig& config, const LocalBlock& block);

    /// Simulation time of the upcoming evaluation (consumed by
    /// time-dependent sources such as acoustic monopoles).
    void set_time(double t) { time_ = t; }

    /// Ghost layers the state arrays must carry for this configuration.
    [[nodiscard]] int ghost_layers() const { return ng_; }
    [[nodiscard]] static int ghost_layers_for(const CaseConfig& config);

    /// Evaluate d(cons)/dt into `dq` (interior cells). `cons` must have
    /// all ghost layers filled (halo exchange + physical BCs).
    void evaluate(const StateArray& cons, StateArray& dq);

    /// Entropic pressure of the last IGR evaluation (diagnostics/tests).
    [[nodiscard]] const Field& sigma() const { return sigma_; }

    /// Primitive state of the last evaluation (diagnostics/tests).
    [[nodiscard]] const StateArray& primitives() const { return prim_; }

    /// --- Span-restricted building blocks ------------------------------
    /// evaluate() above is the reference composition; the task-graph RHS
    /// (src/sched + solver/overlap) runs the *same* kernels over
    /// interior/boundary partitions of the block, interleaved with halo
    /// completion. Each piece is bitwise-identical to its share of the
    /// synchronous evaluation.

    /// Convert conservative to primitive variables over the cell box
    /// [lo, hi) (coordinates may be negative, i.e. ghost cells).
    void convert_primitives(const StateArray& cons, const int lo[3],
                            const int hi[3]);

    /// One directional sweep restricted to `span` (no-op when empty).
    /// Dispatches to the IGR, characteristic-WENO, or component-WENO
    /// kernel exactly as evaluate() would. With `accumulate` false the
    /// flux divergence assigns dq over the span; otherwise it accumulates.
    void sweep_span(int dim, const SweepSpan& span, StateArray& dq,
                    bool accumulate);

    /// Viscous fluxes, gravity, and monopole sources (the post-sweep tail
    /// of evaluate(), in the same order).
    void apply_sources(StateArray& dq);

    /// The whole-block span of a sweep along `dim` (what evaluate() runs).
    [[nodiscard]] SweepSpan full_span(int dim) const;

    /// Solve for the entropic pressure field (IGR only); must run before
    /// any IGR sweep_span of the evaluation.
    void compute_igr_sigma();

    /// Decomposed runs: which local faces adjoin another rank (not the
    /// global boundary) and how to fill sigma's one-deep face ghosts from
    /// the neighbor interiors (collective; invoked inside the elliptic
    /// solve every Jacobi iteration and once after it). With both set,
    /// the decomposed IGR path is bitwise-identical to the serial one;
    /// defaults (all faces global, no exchange) reproduce the serial
    /// clamped solve.
    void set_rank_interfaces(const IgrInterfaceMask& iface,
                             std::function<void(Field&)> sigma_exchange) {
        rank_iface_ = iface;
        sigma_exchange_ = std::move(sigma_exchange);
    }

    /// True when the sweep along `dim` has more than one cell.
    [[nodiscard]] bool dim_active(int dim) const;

    [[nodiscard]] bool igr_enabled() const { return igr_.enabled; }

    /// The overlap path covers the component-wise WENO and IGR kernels;
    /// the characteristic-wise path keeps the synchronous reference
    /// composition (its face fluxes run one face at a time and it is
    /// never communication-bound).
    [[nodiscard]] bool supports_overlap() const { return !char_decomp_; }

private:
    void compute_primitives(const StateArray& cons);
    /// Hyperbolic sweeps run as fused pencil kernels through one driver,
    /// sweep_pencils: x-sweeps read each pencil in place (field rows are
    /// SoA-contiguous along x), y/z sweeps stage tiles of x-adjacent
    /// pencils through a transpose tile. Per pencil the numerics path's
    /// row kernel writes the face fluxes and velocities, then the driver
    /// runs the divergence, W cells/faces at a time through the simd
    /// layer (W chosen at runtime by simd::dispatch; lanes map 1:1 to
    /// cells, so every width is bitwise identical — see
    /// docs/performance.md). With `accumulate` false the flux divergence
    /// *writes* dq (the first active sweep needs no pre-zeroed dq);
    /// later sweeps accumulate. The driver also owns the arena frame and
    /// the sampled phase credit to the child zones.
    struct PencilPath;
    template <int W, class RowFlux>
    void sweep_pencils(int dim, const SweepSpan& span, StateArray& dq,
                       bool accumulate, const PencilPath& path,
                       RowFlux&& row_flux);
    /// The row kernels: WENO edges, positivity, and Riemann fluxes;
    /// characteristic projection with the same kernels at W = 1; IGR
    /// interpolation, sigma, and central fluxes.
    template <int W>
    void sweep_weno_w(int dim, const SweepSpan& span, StateArray& dq,
                      bool accumulate);
    void sweep_weno_char(int dim, const SweepSpan& span, StateArray& dq,
                         bool accumulate);
    template <int W>
    void sweep_igr_w(int dim, const SweepSpan& span, StateArray& dq,
                     bool accumulate);
    void sweep_viscous(int dim, StateArray& dq);
    void add_body_forces(StateArray& dq);
    void add_monopole_sources(StateArray& dq);

    [[nodiscard]] double dx(int dim) const {
        return dx_[static_cast<std::size_t>(dim)];
    }

    EquationLayout lay_;
    std::vector<StiffenedGas> fluids_;
    GlobalGrid grid_;
    LocalBlock block_;
    Extents local_;
    int ng_;
    int weno_order_;
    double weno_eps_;
    WenoVariant weno_variant_ = WenoVariant::JS;
    bool char_decomp_ = false;
    std::vector<CaseConfig::Monopole> monopoles_;
    double time_ = 0.0;
    RiemannSolverKind riemann_;
    IgrParams igr_;
    bool viscous_ = false;
    std::vector<double> viscosity_;
    std::array<double, 3> gravity_{0, 0, 0};
    std::array<double, 3> dx_{1, 1, 1};

    StateArray prim_;
    Field sigma_;
    Field igr_source_;
    bool sigma_warm_ = false;
    IgrInterfaceMask rank_iface_{};
    std::function<void(Field&)> sigma_exchange_;

    // Row scratch (edge values, fluxes, transpose tiles) lives in
    // per-thread exec::scratch_arena() frames inside the sweep bodies, so
    // rows parallelize without sharing mutable state.
};

} // namespace mfc
