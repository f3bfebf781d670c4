#include "solver/rhs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "exec/exec.hpp"
#include "numerics/riemann.hpp"
#include "numerics/vec_igr.hpp"
#include "numerics/vec_riemann.hpp"
#include "numerics/vec_weno.hpp"
#include "numerics/weno.hpp"
#include "physics/characteristics.hpp"
#include "physics/vec_kernels.hpp"
#include "simd/simd.hpp"
#include "telemetry/telemetry.hpp"

namespace mfc {

namespace {

constexpr int kMaxEqns = 16;

// Segment-timing sample stride: the first and every kSampleStride-th
// later work unit of a chunk (a pencil of an x-sweep, a run of
// x-adjacent pencils of a y/z sweep) is timed and the per-chunk credit
// scaled by pencils/sampled pencils (pencils within a sweep do identical
// work). Each clock read costs tens of nanoseconds and a y/z run reads
// it three times per sweep position, so a denser sample shows up against
// the profiler's <2% overhead budget on small blocks.
constexpr long long kSampleStride = 16;

// Most x-adjacent pencils one y/z-sweep work unit covers: it bounds the
// scratch rings (2 x (3 neq + 1) rows of this many lanes, 50 KB for the
// standardized 8-equation case) on wide blocks. A multiple of every SIMD
// width, so a run cut at the cap has no halving tail.
constexpr long long kRunLanes = 128;

/// Scale a sampled segment total up to the whole chunk, then clamp the
/// estimates so they sum to no more than the chunk's measured wall time:
/// the sampled units may be slower than average (unit 0 is cache-cold), and
/// bulk-crediting children beyond the parent zone's elapsed time would
/// drive the parent's exclusive share negative.
void credit_scaled(const char* const* names, std::int64_t* ns, int count,
                   long long chunk_rows, long long sampled,
                   std::int64_t chunk_ns) {
    const double scale =
        static_cast<double>(chunk_rows) / std::max<long long>(1, sampled);
    double sum = 0.0;
    for (int i = 0; i < count; ++i) sum += static_cast<double>(ns[i]) * scale;
    const double cap =
        sum > static_cast<double>(chunk_ns) && sum > 0.0
            ? static_cast<double>(chunk_ns) / sum
            : 1.0;
    for (int i = 0; i < count; ++i) {
        telemetry::add_child_ns(names[i],
                           static_cast<std::int64_t>(
                               static_cast<double>(ns[i]) * scale * cap),
                           chunk_rows);
    }
}

// Per-direction zone names (string literals: zones are keyed by pointer).
constexpr const char* kWenoZone[3] = {"weno_x", "weno_y", "weno_z"};
constexpr const char* kIgrZone[3] = {"igr_x", "igr_y", "igr_z"};
constexpr const char* kViscousZone[3] = {"viscous_x", "viscous_y",
                                         "viscous_z"};

int extent_along(const Extents& e, int dim) {
    return dim == 0 ? e.nx : dim == 1 ? e.ny : e.nz;
}

bool active(const Extents& e, int dim) { return extent_along(e, dim) > 1; }

/// (i, j, k) of row-local cell `c` for a sweep along `dim` with
/// transverse indices (t1, t2) — t1 is the fast transverse index.
void cell_of(int dim, int c, int t1, int t2, int& i, int& j, int& k) {
    switch (dim) {
    case 0: i = c; j = t1; k = t2; return;
    case 1: i = t1; j = c; k = t2; return;
    default: i = t1; j = t2; k = c; return;
    }
}

/// Per-equation scratch rows: row q starts at base + q * pitch.
struct Rows {
    double* base = nullptr;
    std::ptrdiff_t pitch = 0;

    [[nodiscard]] double* operator[](int q) const { return base + q * pitch; }
    /// The same rows, starting `k` lanes later.
    [[nodiscard]] Rows shifted(int k) const { return {base + k, pitch}; }
};

/// One run of `len` lanes of a sweep, unit-stride in memory. In an
/// x-sweep the lanes run along one pencil: lane l is sweep index c + l of
/// pencil (t1, t2), and stencil neighbours are `stride` = 1 apart. In a
/// y/z sweep they run across x-adjacent pencils: lane l is pencil
/// (t1 + l, t2) at sweep index c, and stencil neighbours are the field's
/// stride along the sweep apart. Either way every lane evaluates the
/// same per-cell expression tree, so the grouping cannot change a bit.
struct PencilRun {
    int len = 0;
    std::ptrdiff_t stride = 1;
    bool along = true;          ///< lanes run along the pencil (x-sweep)
    int c = 0, t1 = 0, t2 = 0;  ///< lane 0's sweep index and pencil
    const double* cell[kMaxEqns] = {}; ///< primitives of lane 0's cell
};

/// Phase timestamps of one work unit: the driver closes each phase with
/// lap(i) after the stage that runs it. Only sampled units read the
/// clock.
struct PhaseClock {
    bool sample = false;
    std::int64_t last = 0;
    std::int64_t ns[3] = {0, 0, 0};

    void lap(int phase) {
        if (!sample) return;
        const std::int64_t now = telemetry::clock_ns();
        ns[phase] += now - last;
        last = now;
    }
};

/// Flux divergence + non-conservative sources for the W cells at lane
/// offset `o` of one run. Per equation, `f_lo`/`f_hi` hold the fluxes at
/// each lane's lower and upper face, `cell` the primitives and `dqp` the
/// right-hand side at lane 0; `u_lo`/`u_hi` are the face velocities. Per
/// cell and equation the operation sequence matches the scalar loop
/// exactly: flux difference first (assign via 0.0 - d when `accumulate`
/// is false, preserving the bit pattern of the former
/// fill(0.0)-then-subtract path), then the advection du term, then the
/// six-equation internal-energy term.
template <int W>
void divergence_block(const EquationLayout& lay, bool accumulate, int neq,
                      double inv_dx, const double* const* cell, Rows f_lo,
                      Rows f_hi, const double* u_lo, const double* u_hi,
                      double* const* dqp, int o) {
    using V = simd::vd<W>;
    const V inv(inv_dx);
    for (int q = 0; q < neq; ++q) {
        const V d = (V::load(f_hi[q] + o) - V::load(f_lo[q] + o)) * inv;
        double* dst = dqp[q] + o;
        if (accumulate) {
            (V::load(dst) - d).store(dst);
        } else {
            (V(0.0) - d).store(dst);
        }
    }
    const V du = (V::load(u_hi + o) - V::load(u_lo + o)) * inv;
    for (int f2 = 0; f2 < lay.num_adv(); ++f2) {
        const int qa = lay.adv(f2);
        const V av = V::load(cell[qa] + o);
        double* dst = dqp[qa] + o;
        (V::load(dst) + av * du).store(dst);
    }
    if (lay.model() == ModelKind::SixEquation) {
        for (int f2 = 0; f2 < lay.num_fluids(); ++f2) {
            const V a = V::load(cell[lay.adv(f2)] + o);
            const V p = V::load(cell[lay.internal_energy(f2)] + o);
            double* dst = dqp[lay.internal_energy(f2)] + o;
            (V::load(dst) - a * p * du).store(dst);
        }
    }
}

} // namespace

int RhsEvaluator::ghost_layers_for(const CaseConfig& config) {
    const int order = config.igr.enabled ? config.igr.order : config.weno_order;
    const int hyperbolic = weno_ghost_layers(order);
    // Viscous face fluxes need cell-centered velocity gradients on both
    // sides of every interior face: two ghost layers.
    return std::max(hyperbolic, config.viscous ? 2 : 0);
}

RhsEvaluator::RhsEvaluator(const CaseConfig& config, const LocalBlock& block)
    : lay_(config.layout()),
      fluids_(config.fluids),
      grid_(config.grid),
      block_(block),
      local_(block.cells),
      ng_(ghost_layers_for(config)),
      weno_order_(config.weno_order),
      weno_eps_(config.weno_eps),
      weno_variant_(config.weno_variant),
      char_decomp_(config.char_decomp),
      monopoles_(config.monopoles),
      riemann_(config.riemann_solver),
      igr_(config.igr),
      viscous_(config.viscous),
      viscosity_(config.viscosity),
      gravity_(config.gravity) {
    MFC_REQUIRE(lay_.num_eqns() <= kMaxEqns, "too many equations");
    for (int d = 0; d < 3; ++d) dx_[static_cast<std::size_t>(d)] = config.grid.dx(d);

    prim_ = StateArray(lay_.num_eqns(), local_, ng_);
    if (igr_.enabled) {
        sigma_ = Field(local_, 1);
        igr_source_ = Field(local_, 0);
    }
}

void RhsEvaluator::compute_primitives(const StateArray& cons) {
    // The full extended box: the dimension-interleaved ghost fill leaves
    // every ghost (face, edge, and corner) valid, so primitives are
    // converted everywhere the sweeps and viscous cross-derivatives may
    // read.
    const Field& ref = prim_.eq(0);
    const int lo[3] = {-ref.gx(), -ref.gy(), -ref.gz()};
    const int hi[3] = {local_.nx + ref.gx(), local_.ny + ref.gy(),
                       local_.nz + ref.gz()};
    convert_primitives(cons, lo, hi);
}

void RhsEvaluator::convert_primitives(const StateArray& cons, const int lo[3],
                                      const int hi[3]) {
    PROF_ZONE("prim_convert");
    const int neq = lay_.num_eqns();

    // Rows along x parallelize over the box's (j, k) plane; within a row
    // the conversion runs W cells per step (scalar tail at W = 1, same
    // kernel template — bitwise identical at any width, and the per-cell
    // conversion is position-independent, so any box partition of the
    // extended domain produces the same values).
    const int x0 = lo[0], y0 = lo[1], z0 = lo[2];
    const int len_x = hi[0] - lo[0];
    const int rows_y = hi[1] - lo[1];
    const long long rows = static_cast<long long>(rows_y) * (hi[2] - lo[2]);
    if (len_x <= 0 || rows <= 0) return;

    simd::dispatch([&](auto wc) {
        constexpr int W = wc();
        exec::parallel_for("prim_convert", 0, rows,
                           [&](long long row_lo, long long row_hi) {
            const double* src[kMaxEqns];
            double* dst[kMaxEqns];
            for (long long t = row_lo; t < row_hi; ++t) {
                const int j = y0 + static_cast<int>(t % rows_y);
                const int k = z0 + static_cast<int>(t / rows_y);
                for (int q = 0; q < neq; ++q) {
                    src[q] = cons.eq(q).ptr(x0, j, k);
                    dst[q] = prim_.eq(q).ptr(x0, j, k);
                }
                simd::for_blocks<W>(len_x, [&](auto wtag, int i) {
                    using BV = simd::vd<decltype(wtag)::value>;
                    BV cv[kMaxEqns], pv[kMaxEqns];
                    for (int q = 0; q < neq; ++q) cv[q] = BV::load(src[q] + i);
                    cons_to_prim_v<BV::width>(lay_, fluids_, cv, pv);
                    for (int q = 0; q < neq; ++q) pv[q].store(dst[q] + i);
                });
            }
        });
    });
}

void RhsEvaluator::evaluate(const StateArray& cons, StateArray& dq) {
    PROF_ZONE("rhs");
    compute_primitives(cons);
    // dq zeroing invariant: the first active hyperbolic sweep *assigns*
    // the flux divergence into every interior cell of every equation
    // (accumulate == false); every later sweep and source term
    // accumulates on top. Interior cells therefore need no pre-zero pass.
    // dq ghost cells are never written by any sweep and stay at their
    // allocation value (0.0); the Runge-Kutta axpy reads them, but every
    // ghost it produces is overwritten by fill_ghosts before any stencil
    // consumes it, so no stale value can reach the interior state.
    bool accumulate = false;
    if (igr_.enabled) compute_igr_sigma();
    for (int d = 0; d < 3; ++d) {
        if (!active(local_, d)) continue;
        telemetry::Zone zone(igr_.enabled ? kIgrZone[d] : kWenoZone[d]);
        sweep_span(d, full_span(d), dq, accumulate);
        accumulate = true;
    }
    if (!accumulate) {
        // Degenerate single-cell grid: no sweep ran, so the sources below
        // still need a zeroed dq.
        for (int q = 0; q < dq.num_eqns(); ++q) dq.eq(q).fill(0.0);
    }
    apply_sources(dq);
}

void RhsEvaluator::sweep_span(int dim, const SweepSpan& span, StateArray& dq,
                              bool accumulate) {
    if (span.empty()) return;
    if (igr_.enabled) {
        simd::dispatch(
            [&](auto wc) { sweep_igr_w<wc()>(dim, span, dq, accumulate); });
    } else if (char_decomp_) {
        sweep_weno_char(dim, span, dq, accumulate);
    } else {
        simd::dispatch(
            [&](auto wc) { sweep_weno_w<wc()>(dim, span, dq, accumulate); });
    }
}

SweepSpan RhsEvaluator::full_span(int dim) const {
    SweepSpan s;
    s.c_hi = extent_along(local_, dim);
    s.t1_hi = dim == 0 ? local_.ny : local_.nx;
    s.t2_hi = dim == 2 ? local_.ny : local_.nz;
    return s;
}

bool RhsEvaluator::dim_active(int dim) const { return active(local_, dim); }

void RhsEvaluator::apply_sources(StateArray& dq) {
    if (viscous_) {
        for (int d = 0; d < 3; ++d) {
            if (!active(local_, d)) continue;
            telemetry::Zone zone(kViscousZone[d]);
            sweep_viscous(d, dq);
        }
    }
    const bool has_gravity =
        gravity_[0] != 0.0 || gravity_[1] != 0.0 || gravity_[2] != 0.0;
    if (has_gravity) {
        PROF_ZONE("body_forces");
        add_body_forces(dq);
    }
    if (!monopoles_.empty()) {
        PROF_ZONE("monopoles");
        add_monopole_sources(dq);
    }
}

void RhsEvaluator::add_monopole_sources(StateArray& dq) {
    // Acoustic monopoles: a Gaussian-supported sinusoidal source on the
    // energy equation,
    //   dE/dt += mag * sin(2 pi f t) * exp(-|x - loc|^2 / support^2),
    // radiating pressure waves at the mixture sound speed.
    constexpr double kTwoPi = 6.283185307179586;
    for (const CaseConfig::Monopole& m : monopoles_) {
        const double amplitude =
            m.magnitude * std::sin(kTwoPi * m.frequency * time_);
        if (amplitude == 0.0) continue;
        const double inv_s2 = 1.0 / (m.support * m.support);
        for (int k = 0; k < local_.nz; ++k) {
            for (int j = 0; j < local_.ny; ++j) {
                for (int i = 0; i < local_.nx; ++i) {
                    double r2 = 0.0;
                    const int gidx[3] = {block_.global_index(0, i),
                                         block_.global_index(1, j),
                                         block_.global_index(2, k)};
                    for (int d = 0; d < 3; ++d) {
                        if ((d == 0 ? grid_.cells.nx : d == 1 ? grid_.cells.ny
                                                              : grid_.cells.nz) == 1) {
                            continue; // inactive dimension
                        }
                        const double delta =
                            grid_.center(d, gidx[d]) -
                            m.location[static_cast<std::size_t>(d)];
                        r2 += delta * delta;
                    }
                    const double g = std::exp(-r2 * inv_s2);
                    if (g < 1e-14) continue;
                    dq.eq(lay_.energy())(i, j, k) += amplitude * g;
                }
            }
        }
    }
}

void RhsEvaluator::sweep_viscous(int dim, StateArray& dq) {
    // Diffusive flux of the compressible Navier-Stokes stress
    //   tau = mu (grad u + grad u^T - (2/3)(div u) I)
    // in dimension-split face-flux form: at each face normal to `dim`,
    // the normal derivative is a compact two-point difference and the
    // transverse derivatives are averages of centered cell gradients.
    // Momentum gains d(tau_{a,dim})/dx_dim; energy gains d(tau.u)/dx_dim.
    const int n = extent_along(local_, dim);
    const double inv_dx = 1.0 / dx(dim);
    const int dims = lay_.dims();

    const int lim_t1 = dim == 0 ? local_.ny : local_.nx;
    const int lim_t2 = dim == 2 ? local_.ny : local_.nz;

    // Cell-centered velocity gradient du_a/dx_b via central differences.
    const auto cell_grad = [&](int i, int j, int k, int a, int b) {
        const Field& u = prim_.eq(lay_.mom(a));
        switch (b) {
        case 0:
            return active(local_, 0)
                       ? (u(i + 1, j, k) - u(i - 1, j, k)) / (2.0 * dx(0))
                       : 0.0;
        case 1:
            return active(local_, 1)
                       ? (u(i, j + 1, k) - u(i, j - 1, k)) / (2.0 * dx(1))
                       : 0.0;
        default:
            return active(local_, 2)
                       ? (u(i, j, k + 1) - u(i, j, k - 1)) / (2.0 * dx(2))
                       : 0.0;
        }
    };

    const auto mixture_mu = [&](int i, int j, int k) {
        if (lay_.model() == ModelKind::Euler) {
            return viscosity_[0];
        }
        double mu = 0.0;
        for (int f = 0; f < lay_.num_fluids(); ++f) {
            mu += prim_.eq(lay_.adv(f))(i, j, k) *
                  viscosity_[static_cast<std::size_t>(f)];
        }
        return mu;
    };

    const long long rows = static_cast<long long>(lim_t1) * lim_t2;
    exec::parallel_for(kViscousZone[dim], 0, rows, [&](long long lo,
                                                       long long hi) {
        exec::Arena::Frame frame(exec::scratch_arena());
        double* mom_flux = frame.doubles(static_cast<std::size_t>((n + 1) * dims));
        double* energy_flux = frame.doubles(static_cast<std::size_t>(n + 1));

        for (long long t = lo; t < hi; ++t) {
            const int t1 = static_cast<int>(t % lim_t1);
            const int t2 = static_cast<int>(t / lim_t1);

            for (int f = 0; f <= n; ++f) {
                int il = 0, jl = 0, kl = 0, ir = 0, jr = 0, kr = 0;
                cell_of(dim, f - 1, t1, t2, il, jl, kl);
                cell_of(dim, f, t1, t2, ir, jr, kr);

                double grad[3][3];
                for (int a = 0; a < 3; ++a) {
                    for (int b = 0; b < 3; ++b) grad[a][b] = 0.0;
                }
                for (int a = 0; a < dims; ++a) {
                    for (int b = 0; b < dims; ++b) {
                        if (b == dim) {
                            // Compact normal derivative across the face.
                            const Field& u = prim_.eq(lay_.mom(a));
                            grad[a][b] =
                                (u(ir, jr, kr) - u(il, jl, kl)) * inv_dx;
                        } else {
                            grad[a][b] = 0.5 * (cell_grad(il, jl, kl, a, b) +
                                                cell_grad(ir, jr, kr, a, b));
                        }
                    }
                }
                double div = 0.0;
                for (int a = 0; a < dims; ++a) div += grad[a][a];

                const double mu = 0.5 * (mixture_mu(il, jl, kl) +
                                         mixture_mu(ir, jr, kr));
                double u_face[3] = {0.0, 0.0, 0.0};
                for (int a = 0; a < dims; ++a) {
                    u_face[a] = 0.5 * (prim_.eq(lay_.mom(a))(il, jl, kl) +
                                       prim_.eq(lay_.mom(a))(ir, jr, kr));
                }

                double tau_dot_u = 0.0;
                for (int a = 0; a < dims; ++a) {
                    double tau = mu * (grad[a][dim] + grad[dim][a]);
                    if (a == dim) tau -= (2.0 / 3.0) * mu * div;
                    mom_flux[static_cast<std::size_t>(f * dims + a)] = tau;
                    tau_dot_u += tau * u_face[a];
                }
                energy_flux[static_cast<std::size_t>(f)] = tau_dot_u;
            }

            for (int c = 0; c < n; ++c) {
                int i = 0, j = 0, k = 0;
                cell_of(dim, c, t1, t2, i, j, k);
                for (int a = 0; a < dims; ++a) {
                    dq.eq(lay_.mom(a))(i, j, k) +=
                        (mom_flux[static_cast<std::size_t>((c + 1) * dims + a)] -
                         mom_flux[static_cast<std::size_t>(c * dims + a)]) *
                        inv_dx;
                }
                dq.eq(lay_.energy())(i, j, k) +=
                    (energy_flux[static_cast<std::size_t>(c + 1)] -
                     energy_flux[static_cast<std::size_t>(c)]) *
                    inv_dx;
            }
        }
    });
}

void RhsEvaluator::add_body_forces(StateArray& dq) {
    // Gravity: d(rho u)/dt += rho g, dE/dt += rho u . g.
    for (int k = 0; k < local_.nz; ++k) {
        for (int j = 0; j < local_.ny; ++j) {
            for (int i = 0; i < local_.nx; ++i) {
                double rho = 0.0;
                for (int f = 0; f < lay_.num_fluids(); ++f) {
                    rho += prim_.eq(lay_.cont(f))(i, j, k);
                }
                double u_dot_g = 0.0;
                for (int d = 0; d < lay_.dims(); ++d) {
                    const double g = gravity_[static_cast<std::size_t>(d)];
                    if (g == 0.0) continue;
                    dq.eq(lay_.mom(d))(i, j, k) += rho * g;
                    u_dot_g += prim_.eq(lay_.mom(d))(i, j, k) * g;
                }
                dq.eq(lay_.energy())(i, j, k) += rho * u_dot_g;
            }
        }
    }
}

/// What a numerics path hands the shared pencil driver besides its stage
/// kernels.
struct RhsEvaluator::PencilPath {
    const char* zone;           ///< parallel_for zone (a string literal)
    int cell_rows;              ///< rows per side of the cell stage; 0: none
    int phases;                 ///< timed phases, flux_div last; 0: untimed
                                ///< (every lap is then a no-op)
    const char* phase_names[3]; ///< child zones (string literals)
};

template <int W, class Cells, class Faces>
void RhsEvaluator::sweep_pencils(int dim, const SweepSpan& span,
                                 StateArray& dq, bool accumulate,
                                 const PencilPath& path, Cells&& cells,
                                 Faces&& faces) {
    const int n = span.c_hi - span.c_lo;
    const int neq = lay_.num_eqns();
    const double inv_dx = 1.0 / dx(dim);
    const int span1 = span.t1_hi - span.t1_lo; // fast transverse
    const int span2 = span.t2_hi - span.t2_lo;

    // Work is split over the span's pencils. x-sweeps take one pencil per
    // work unit and run the lanes along it: field rows are SoA-contiguous
    // along x, so the pencil is read and dq written in place, each stage
    // covering the whole pencil. y/z sweeps take a run of up to kRunLanes
    // x-adjacent pencils of one x-line (fixed t2, clipped to the chunk)
    // per work unit and run the lanes across them, which are unit-stride
    // in every field: the run walks the sweep axis once, reading prim_
    // and read-modify-writing dq in place, with two-slot rings of cell
    // rows and face fluxes in scratch. Either way a cell slot s holds
    // cell c_lo + s - 1 and face f separates cell slots f and f + 1.
    const bool along = dim == 0;
    const int lanes =
        along ? n + 2 : static_cast<int>(std::min<long long>(span1, kRunLanes));
    const auto pitch = static_cast<std::ptrdiff_t>((lanes + 7) / 8 * 8);
    const int slots = along ? 1 : 2;
    // The cell stage runs one slot ahead of the faces that read it.
    const int lag = path.cell_rows > 0 ? 1 : 0;
    const std::ptrdiff_t prim_stride = prim_.eq(0).stride(dim);
    const std::ptrdiff_t dq_stride = dq.eq(0).stride(dim);

    // Per-unit scoped zones would breach the profiler's overhead budget
    // (clock reads plus tree bookkeeping per microsecond-scale unit), so
    // the phases are timed manually with shared timestamps and
    // bulk-credited to child zones once per chunk, one call per pencil:
    // under the enclosing weno_{x,y,z} zone on the dispatching thread,
    // under the worker's weno_{x,y,z} root zone elsewhere. Pencils within
    // a sweep are homogeneous, so only the first and every
    // kSampleStride-th later unit of a chunk is timed and the credit is
    // scaled up — reading the clock on every unit is itself measurable
    // against the <2% budget.
    const bool timed = path.phases > 0 && telemetry::enabled();

    const long long pencils = static_cast<long long>(span1) * span2;
    exec::parallel_for(path.zone, 0, pencils, [&](long long lo, long long hi) {
        exec::Arena::Frame frame(exec::scratch_arena());
        const auto rows = [&](int count) {
            return Rows{frame.doubles(static_cast<std::size_t>(count * pitch)),
                        pitch};
        };
        // Cell rows (a face reads its lower cell's `right` rows and its
        // upper cell's `left` rows), fluxes and face velocities.
        Rows left[2], right[2], flux[2];
        double* uface[2] = {nullptr, nullptr};
        for (int s = 0; s < slots; ++s) {
            left[s] = rows(path.cell_rows);
            right[s] = rows(path.cell_rows);
            flux[s] = rows(neq);
            uface[s] = rows(1).base;
        }

        PencilRun run;
        run.along = along;
        run.stride = prim_stride;
        const double* prim0[kMaxEqns];
        double* dq0[kMaxEqns];
        double* dqp[kMaxEqns];
        // Point the run (and dqp) at sweep index c of the unit.
        const auto at = [&](int c) {
            run.c = c;
            for (int q = 0; q < neq; ++q) {
                run.cell[q] = prim0[q] + c * prim_stride;
                dqp[q] = dq0[q] + c * dq_stride;
            }
        };
        const auto divergence = [&](Rows f_lo, Rows f_hi, const double* u_lo,
                                    const double* u_hi, int len) {
            simd::for_blocks<W>(len, [&](auto wtag, int o) {
                divergence_block<decltype(wtag)::value>(
                    lay_, accumulate, neq, inv_dx, run.cell, f_lo, f_hi, u_lo,
                    u_hi, dqp, o);
            });
        };

        PhaseClock clock;
        const std::int64_t chunk_t0 = timed ? telemetry::clock_ns() : 0;
        long long sampled = 0; // pencils in timed units

        long long unit = 0;
        for (long long t = lo; t < hi; ++unit) {
            const int t1 = static_cast<int>(t % span1);
            run.t1 = span.t1_lo + t1;
            run.t2 = span.t2_lo + static_cast<int>(t / span1);
            const int width =
                along ? 1
                      : static_cast<int>(std::min(
                            {kRunLanes, static_cast<long long>(span1 - t1),
                             hi - t}));
            t += width;
            clock.sample = timed && unit % kSampleStride == 0;
            if (clock.sample) {
                clock.last = telemetry::clock_ns();
                sampled += width;
            }
            int i0 = 0, j0 = 0, k0 = 0;
            cell_of(dim, 0, run.t1, run.t2, i0, j0, k0);
            for (int q = 0; q < neq; ++q) {
                prim0[q] = prim_.eq(q).ptr(i0, j0, k0);
                dq0[q] = dq.eq(q).ptr(i0, j0, k0);
            }

            if (along) {
                if (lag) {
                    run.len = n + 2;
                    at(span.c_lo - 1);
                    cells(run, left[0], right[0]);
                    clock.lap(0);
                }
                run.len = n + 1;
                at(span.c_lo);
                faces(run, right[0], left[0].shifted(1), flux[0], uface[0]);
                clock.lap(path.phases - 2);
                divergence(flux[0], flux[0].shifted(1), uface[0], uface[0] + 1,
                           n);
                clock.lap(path.phases - 1);
                continue;
            }

            run.len = width;
            for (int s = 0; s < n + 1 + lag; ++s) {
                if (lag) {
                    at(span.c_lo - 1 + s);
                    cells(run, left[s & 1], right[s & 1]);
                    clock.lap(0);
                }
                const int f = s - lag;
                if (f < 0) continue;
                at(span.c_lo + f);
                faces(run, right[f & 1], left[(f + 1) & 1], flux[f & 1],
                      uface[f & 1]);
                clock.lap(path.phases - 2);
                if (f == 0) continue;
                at(span.c_lo + f - 1);
                divergence(flux[(f - 1) & 1], flux[f & 1], uface[(f - 1) & 1],
                           uface[f & 1], run.len);
                clock.lap(path.phases - 1);
            }
        }

        if (timed && hi > lo) {
            credit_scaled(path.phase_names, clock.ns, path.phases, hi - lo,
                          sampled, telemetry::clock_ns() - chunk_t0);
        }
    });
}

template <int W>
void RhsEvaluator::sweep_weno_w(int dim, const SweepSpan& span, StateArray& dq,
                                bool accumulate) {
    const int neq = lay_.num_eqns();
    const PencilPath path{kWenoZone[dim], neq, 3,
                          {"weno_recon", "riemann", "flux_div"}};

    // Cell stage: both edge values of every equation for the run's cells,
    // W lanes per step straight off the field, then the positivity
    // safeguard. At severely under-resolved fronts high-order edge values
    // can undershoot into negative density or pressure; those cells fall
    // back to the (positive) cell average, preserving design order where
    // the solution is resolved. For stiffened fluids the physical bound is
    // p > -pi_inf of the mixture (c^2 > 0), not p > 0. The per-cell test
    // is a mask + select per equation.
    const auto cells = [&](const PencilRun& run, Rows left, Rows right) {
        for (int q = 0; q < neq; ++q) {
            const double* v = run.cell[q];
            double* el = left[q];
            double* er = right[q];
            simd::for_blocks<W>(run.len, [&](auto wtag, int s) {
                simd::vd<decltype(wtag)::value> l, rt;
                weno_edges_v<decltype(wtag)::value>(v + s, weno_order_,
                                                    weno_eps_, l, rt,
                                                    weno_variant_, run.stride);
                l.store(el + s);
                rt.store(er + s);
            });
        }
        simd::for_blocks<W>(run.len, [&](auto wtag, int s) {
            constexpr int BW = decltype(wtag)::value;
            using BV = simd::vd<BW>;
            BV rho_l = 0.0, rho_r = 0.0;
            for (int f = 0; f < lay_.num_fluids(); ++f) {
                rho_l += BV::load(left[lay_.cont(f)] + s);
                rho_r += BV::load(right[lay_.cont(f)] + s);
            }
            BV eL[kMaxEqns], eR[kMaxEqns];
            for (int f = 0; f < lay_.num_adv(); ++f) {
                eL[lay_.adv(f)] = BV::load(left[lay_.adv(f)] + s);
                eR[lay_.adv(f)] = BV::load(right[lay_.adv(f)] + s);
            }
            eL[lay_.energy()] = BV::load(left[lay_.energy()] + s);
            eR[lay_.energy()] = BV::load(right[lay_.energy()] + s);
            const MixtureV<BW> mL = mixture_at_v<BW>(lay_, fluids_, eL);
            const MixtureV<BW> mR = mixture_at_v<BW>(lay_, fluids_, eR);
            const auto ok_l = (eL[lay_.energy()] + mL.pi_inf()) > BV(0.0);
            const auto ok_r = (eR[lay_.energy()] + mR.pi_inf()) > BV(0.0);
            const auto bad = rho_l <= BV(0.0) || rho_r <= BV(0.0) || !ok_l ||
                             !ok_r;
            if (!simd::any(bad)) return;
            for (int q = 0; q < neq; ++q) {
                const BV v = BV::load(run.cell[q] + s);
                double* el = left[q] + s;
                double* er = right[q] + s;
                simd::select(bad, v, BV::load(el)).store(el);
                simd::select(bad, v, BV::load(er)).store(er);
            }
        });
    };

    // Face stage: Riemann fluxes, W faces per step. A face's left state
    // is the right edge of the cell below it, its right state the left
    // edge of the cell above.
    const auto faces = [&](const PencilRun& run, Rows lo, Rows hi, Rows flux,
                           double* uface) {
        simd::for_blocks<W>(run.len, [&](auto wtag, int f) {
            constexpr int BW = decltype(wtag)::value;
            using BV = simd::vd<BW>;
            BV pl[kMaxEqns], pr[kMaxEqns], fx[kMaxEqns];
            for (int q = 0; q < neq; ++q) {
                pl[q] = BV::load(lo[q] + f);
                pr[q] = BV::load(hi[q] + f);
            }
            const BV uf = solve_riemann_v<BW>(riemann_, lay_, fluids_, pl, pr,
                                              dim, fx);
            for (int q = 0; q < neq; ++q) fx[q].store(flux[q] + f);
            uf.store(uface + f);
        });
    };

    sweep_pencils<W>(dim, span, dq, accumulate, path, cells, faces);
}

void RhsEvaluator::sweep_weno_char(int dim, const SweepSpan& span,
                                   StateArray& dq, bool accumulate) {
    using V1 = simd::vd<1>;
    const int neq = lay_.num_eqns();
    const int r = (weno_order_ - 1) / 2;
    const int cells = 2 * r + 2; // stencil of a face: cells f-1-r .. f+r
    const PencilPath path{kWenoZone[dim], 0, 2, {"char_riemann", "flux_div"}};

    // Characteristic-wise reconstruction (Euler): at each face project
    // the conservative stencil onto the flux Jacobian's eigenvectors at
    // the face-average state, reconstruct the two adjacent cells' edge
    // values in characteristic space, and project back. Projection,
    // reconstruction, and the Riemann solve are interleaved per face on
    // W = 1 lanes of the kernels the component-wise path vectorizes, so
    // one face stage covers the fused loop.
    const auto faces = [&](const PencilRun& run, Rows, Rows, Rows flux,
                           double* uface) {
        const std::ptrdiff_t st = run.stride;
        double prim_avg[kMaxEqns];
        V1 point[kMaxEqns], cons[kMaxEqns];
        V1 w_stencil[8][kMaxEqns];
        V1 w_edge[kMaxEqns], cons_edge[kMaxEqns];
        V1 prim_l[kMaxEqns], prim_r[kMaxEqns], fx[kMaxEqns];
        double row[8];
        const auto unphysical = [&](const V1* prim) {
            return prim[lay_.cont(0)].v <= 0.0 ||
                   prim[lay_.energy()].v + fluids_[0].pi_inf() <= 0.0;
        };
        // Lane l's face separates the cells at run.cell[q] + l - st
        // (below) and run.cell[q] + l (above).
        for (int l = 0; l < run.len; ++l) {
            for (int q = 0; q < neq; ++q) {
                prim_avg[q] = 0.5 * (run.cell[q][l - st] + run.cell[q][l]);
            }
            const EulerEigenvectors eig =
                euler_eigenvectors(lay_, fluids_, prim_avg, dim);
            for (int s = 0; s < cells; ++s) {
                for (int q = 0; q < neq; ++q) {
                    point[q] = run.cell[q][l + (s - 1 - r) * st];
                }
                prim_to_cons_v<1>(lay_, fluids_, point, cons);
                eig.to_characteristic(cons, w_stencil[s]);
            }

            // One edge of every characteristic field, reconstructed from
            // the stencil centered at slot `center` and projected back to
            // primitives: the cell below sits at slot r (its right edge is
            // the face's left state), the cell above at r + 1 (its left
            // edge, the right state).
            const auto edge_state = [&](int center, bool right, V1* prim) {
                for (int q = 0; q < neq; ++q) {
                    for (int s = 0; s < cells; ++s) row[s] = w_stencil[s][q].v;
                    V1 el, er;
                    weno_edges_v<1>(row + center, weno_order_, weno_eps_, el,
                                    er, weno_variant_);
                    w_edge[q] = right ? er : el;
                }
                eig.from_characteristic(w_edge, cons_edge);
                cons_to_prim_v<1>(lay_, fluids_, cons_edge, prim);
            };
            edge_state(r, true, prim_l);
            edge_state(r + 1, false, prim_r);

            // Positivity fallback to the adjacent cell averages.
            if (unphysical(prim_l)) {
                for (int q = 0; q < neq; ++q) prim_l[q] = run.cell[q][l - st];
            }
            if (unphysical(prim_r)) {
                for (int q = 0; q < neq; ++q) prim_r[q] = run.cell[q][l];
            }

            const V1 uf = solve_riemann_v<1>(riemann_, lay_, fluids_, prim_l,
                                             prim_r, dim, fx);
            uf.store(uface + l);
            for (int q = 0; q < neq; ++q) fx[q].store(flux[q] + l);
        }
    };

    sweep_pencils<1>(dim, span, dq, accumulate, path,
                     [](const PencilRun&, Rows, Rows) {}, faces);
}

void RhsEvaluator::compute_igr_sigma() {
    // Source: alf * rho * [ (div u)^2 + tr((grad u)^2) ] from centered
    // velocity gradients; ghost layers supply the one-sided neighbors.
    // Rows along x run W cells per step (ghosts make every i±1 read
    // valid); the scalar tail reuses the same expressions at W = 1.
    PROF_ZONE("igr_sigma");
    const double alf = igr_.alf_factor * dx(0) * dx(0);
    const long long rows = static_cast<long long>(local_.ny) * local_.nz;
    simd::dispatch([&](auto wc) {
        constexpr int W = wc();
        exec::parallel_for("igr_sigma", 0, rows, [&](long long lo,
                                                     long long hi) {
            for (long long t = lo; t < hi; ++t) {
                const int j = static_cast<int>(t % local_.ny);
                const int k = static_cast<int>(t / local_.ny);

                const auto block = [&](auto wtag, int i) {
                    constexpr int BW = decltype(wtag)::value;
                    using BV = simd::vd<BW>;
                    BV grad[3][3];
                    for (auto& row : grad) {
                        row[0] = 0.0;
                        row[1] = 0.0;
                        row[2] = 0.0;
                    }
                    for (int a = 0; a < lay_.dims(); ++a) {
                        const Field& u = prim_.eq(lay_.mom(a));
                        if (active(local_, 0)) {
                            const double* ux = u.ptr(0, j, k);
                            grad[a][0] = (BV::load(ux + i + 1) -
                                          BV::load(ux + i - 1)) /
                                         BV(2.0 * dx(0));
                        }
                        if (active(local_, 1)) {
                            grad[a][1] = (BV::load(u.ptr(i, j + 1, k)) -
                                          BV::load(u.ptr(i, j - 1, k))) /
                                         BV(2.0 * dx(1));
                        }
                        if (active(local_, 2)) {
                            grad[a][2] = (BV::load(u.ptr(i, j, k + 1)) -
                                          BV::load(u.ptr(i, j, k - 1))) /
                                         BV(2.0 * dx(2));
                        }
                    }
                    BV div = 0.0;
                    BV contraction = 0.0;
                    for (int a = 0; a < 3; ++a) {
                        div += grad[a][a];
                        for (int b = 0; b < 3; ++b) {
                            contraction += grad[a][b] * grad[b][a];
                        }
                    }
                    BV rho = 0.0;
                    for (int f = 0; f < lay_.num_fluids(); ++f) {
                        rho += BV::load(prim_.eq(lay_.cont(f)).ptr(i, j, k));
                    }
                    const BV out = BV(alf) * rho * (div * div + contraction);
                    out.store(igr_source_.ptr(i, j, k));
                };

                simd::for_blocks<W>(local_.nx, block);
            }
        });
    });
    igr_elliptic_solve(igr_, igr_source_, dx(0), sigma_warm_, sigma_,
                       rank_iface_, sigma_exchange_);
    sigma_warm_ = true;
}

template <int W>
void RhsEvaluator::sweep_igr_w(int dim, const SweepSpan& span, StateArray& dq,
                               bool accumulate) {
    const int n_full = extent_along(local_, dim);
    const int neq = lay_.num_eqns();
    // Sigma at cells [c_lo - 1, c_hi]: clamped to the interior at global
    // boundaries (homogeneous Neumann, consistent with the elliptic
    // solve), read from the exchanged rank ghost at decomposition
    // interfaces — serial and decomposed runs then see the same face
    // averages bitwise.
    const auto& iface = rank_iface_[static_cast<std::size_t>(dim)];
    const int sig_lo = iface[0] ? -1 : 0;
    const int sig_hi = iface[1] ? n_full : n_full - 1;
    const PencilPath path{kIgrZone[dim], 1, 0, {}};

    // Cell stage: each cell's clamped sigma, into both rows (a face
    // averages its lower cell's `right` and its upper cell's `left`).
    const auto cells = [&](const PencilRun& run, Rows left, Rows right) {
        for (int l = 0; l < run.len; ++l) {
            const int c =
                std::clamp(run.c + (run.along ? l : 0), sig_lo, sig_hi);
            int i = 0, j = 0, k = 0;
            cell_of(dim, c, run.t1 + (run.along ? 0 : l), run.t2, i, j, k);
            left[0][l] = sigma_(i, j, k);
            right[0][l] = left[0][l];
        }
    };

    // Face stage, W faces per step: central interpolation of the
    // primitives (order >= 5 reaches cells f-2 .. f+1), entropic pressure
    // on the face energy, then the shared central-flux + Rusanov kernel.
    const auto faces = [&](const PencilRun& run, Rows lo, Rows hi, Rows flux,
                           double* uface) {
        const std::ptrdiff_t st = run.stride;
        simd::for_blocks<W>(run.len, [&](auto wtag, int f) {
            constexpr int BW = decltype(wtag)::value;
            using BV = simd::vd<BW>;
            BV pface[kMaxEqns], pl[kMaxEqns], pr[kMaxEqns];
            BV fx[kMaxEqns];
            for (int q = 0; q < neq; ++q) {
                const double* base = run.cell[q] + f;
                if (igr_.order >= 5) {
                    pface[q] = simd::div_exact<12>(
                        -BV::load(base - 2 * st) + BV(7.0) * BV::load(base - st) +
                        BV(7.0) * BV::load(base) - BV::load(base + st));
                } else {
                    pface[q] = BV(0.5) * (BV::load(base - st) + BV::load(base));
                }
                pl[q] = BV::load(base - st);
                pr[q] = BV::load(base);
            }
            const BV sig =
                BV(0.5) * (BV::load(lo[0] + f) + BV::load(hi[0] + f));
            // The loop above set pface[energy()]; gcc's -march=native
            // codegen loses track of that and would warn.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
            pface[lay_.energy()] += sig;
#pragma GCC diagnostic pop
            const BV uf = igr_face_flux_v<BW>(lay_, fluids_, pface, pl, pr,
                                              dim, fx);
            for (int q = 0; q < neq; ++q) fx[q].store(flux[q] + f);
            uf.store(uface + f);
        });
    };

    sweep_pencils<W>(dim, span, dq, accumulate, path, cells, faces);
}

} // namespace mfc
