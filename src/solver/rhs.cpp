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

// Segment-timing sample stride: every kSampleStride-th pencil row is
// timed and the per-chunk credit scaled by rows/sampled (rows within a
// sweep do identical work). Power of two so the row test is a mask.
constexpr long long kSampleStride = 4;

/// Number of multiples of kSampleStride in [lo, hi), i.e. how many rows
/// of the chunk carry timestamps.
long long sampled_rows(long long lo, long long hi) {
    const long long k = kSampleStride;
    return (hi + k - 1) / k - (lo + k - 1) / k;
}

/// Scale a sampled segment total up to the whole chunk, then clamp the
/// estimates so they sum to no more than the chunk's measured wall time:
/// the sampled rows may be slower than average (row 0 is cache-cold), and
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

// Transverse (y/z) sweeps stage up to exec::tile_rows() x-adjacent
// pencils through one cache-blocked transpose tile per tile of rows
// (compile default MFCPP_TILE_ROWS = 16, runtime-overridable via
// MFC_TILE_ROWS; the bench records the value in its metadata). The fast
// transverse index t1 is x for dims 1 and 2 (see cell_of), so the `b`
// direction below walks unit-stride memory: each transpose step moves a
// contiguous run of tile-height doubles — at the default 16, two full
// 64-byte lines — where a per-pencil strided gather would use 8 of every
// 64 bytes fetched. Any height >= 1 is bitwise-neutral: the tile only
// regroups pure copies.

/// Tile row pitch: round `len` up so every tile row starts 64-byte-
/// aligned within the (aligned) arena block.
int tile_pitch(int len) { return (len + 7) / 8 * 8; }

/// One transpose tile of a transverse sweep: for every equation q, `tmax`
/// rows of `pitch` doubles; row b holds sweep cells [c0, c0 + len) of the
/// pencil at (t1 + b, t2).
struct PencilTile {
    int c0 = 0;
    int len = 0;
    int tmax = 1;
    int pitch = 0;
    double* data = nullptr;

    [[nodiscard]] double* row(int q, int b) const {
        return data + static_cast<std::size_t>(q * tmax + b) * pitch;
    }
};

/// Transpose `tb` x-adjacent pencils of every equation of `src` into the
/// tile's rows, walking the pencil cell outermost so each step moves one
/// unit-stride run.
void transpose_in(const StateArray& src, int dim, int t1, int t2, int tb,
                  const PencilTile& tile) {
    int i = 0, j = 0, k = 0;
    cell_of(dim, tile.c0, t1, t2, i, j, k);
    for (int q = 0; q < src.num_eqns(); ++q) {
        const double* p = src.eq(q).ptr(i, j, k);
        const std::ptrdiff_t s = src.eq(q).stride(dim);
        double* rows = tile.row(q, 0);
        for (int c = 0; c < tile.len; ++c) {
            const double* pc = p + c * s;
            for (int b = 0; b < tb; ++b) rows[b * tile.pitch + c] = pc[b];
        }
    }
}

/// Inverse of transpose_in: scatter the tile's rows back into the field,
/// again moving whole unit-stride runs per pencil cell.
void transpose_out(StateArray& dst, int dim, int t1, int t2, int tb,
                   const PencilTile& tile) {
    int i = 0, j = 0, k = 0;
    cell_of(dim, tile.c0, t1, t2, i, j, k);
    for (int q = 0; q < dst.num_eqns(); ++q) {
        double* p = dst.eq(q).ptr(i, j, k);
        const std::ptrdiff_t s = dst.eq(q).stride(dim);
        const double* rows = tile.row(q, 0);
        for (int c = 0; c < tile.len; ++c) {
            double* pc = p + c * s;
            for (int b = 0; b < tb; ++b) pc[b] = rows[b * tile.pitch + c];
        }
    }
}

/// Phase timestamps of one pencil row. A path's face-flux kernel closes
/// each of its phases with lap(i); the driver closes the last one
/// (flux_div). Only sampled rows read the clock.
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

/// Flux divergence + non-conservative sources for cells [c, c+W) of one
/// pencil. `flux` is SoA over faces (flux[q * fstride + f], fstride =
/// n + 1); `rowc` and `dqp` are per-equation pointers to contiguous
/// pencils positioned at sweep cell c_lo — either straight into the
/// field (x-sweeps, unit stride) or into a transpose tile row. Per cell
/// and equation the operation sequence matches the scalar loop exactly:
/// flux difference first (assign via 0.0 - d when `accumulate` is false,
/// preserving the bit pattern of the former fill(0.0)-then-subtract
/// path), then the advection du term, then the six-equation
/// internal-energy term.
template <int W>
void divergence_block(const EquationLayout& lay, bool accumulate, int c,
                      int neq, double inv_dx, const double* const* rowc,
                      const double* flux, int fstride, const double* uface,
                      double* const* dqp) {
    using V = simd::vd<W>;
    const V inv(inv_dx);
    for (int q = 0; q < neq; ++q) {
        const double* fq = flux + static_cast<std::size_t>(q) * fstride;
        const V d = (V::load(fq + c + 1) - V::load(fq + c)) * inv;
        double* dst = dqp[q] + c;
        if (accumulate) {
            (V::load(dst) - d).store(dst);
        } else {
            (V(0.0) - d).store(dst);
        }
    }
    const V du = (V::load(uface + c + 1) - V::load(uface + c)) * inv;
    for (int f2 = 0; f2 < lay.num_adv(); ++f2) {
        const int qa = lay.adv(f2);
        const V av = V::load(rowc[qa] + c);
        double* dst = dqp[qa] + c;
        (V::load(dst) + av * du).store(dst);
    }
    if (lay.model() == ModelKind::SixEquation) {
        for (int f2 = 0; f2 < lay.num_fluids(); ++f2) {
            const V a = V::load(rowc[lay.adv(f2)] + c);
            const V p = V::load(rowc[lay.internal_energy(f2)] + c);
            double* dst = dqp[lay.internal_energy(f2)] + c;
            (V::load(dst) - a * p * du).store(dst);
        }
    }
}

/// Divergence over all n cells of a pencil.
template <int W>
void divergence_cells(const EquationLayout& lay, bool accumulate, int n,
                      int neq, double inv_dx, const double* const* rowc,
                      const double* flux, int fstride, const double* uface,
                      double* const* dqp) {
    simd::for_blocks<W>(n, [&](auto wtag, int c) {
        divergence_block<decltype(wtag)::value>(lay, accumulate, c, neq, inv_dx,
                                                rowc, flux, fstride, uface, dqp);
    });
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

/// What a numerics path hands the shared pencil driver besides its
/// face-flux row kernel.
struct RhsEvaluator::PencilPath {
    const char* zone;           ///< parallel_for zone (a string literal)
    int reach;                  ///< pencil cells read beyond [c_lo, c_hi)
    std::size_t scratch;        ///< per-chunk doubles for the row kernel
    int phases;                 ///< timed phases, flux_div last; 0: untimed
    const char* phase_names[3]; ///< child zones (string literals)
};

template <int W, class RowFlux>
void RhsEvaluator::sweep_pencils(int dim, const SweepSpan& span,
                                 StateArray& dq, bool accumulate,
                                 const PencilPath& path, RowFlux&& row_flux) {
    const int n = span.c_hi - span.c_lo;
    const int neq = lay_.num_eqns();
    const double inv_dx = 1.0 / dx(dim);
    const int nfaces = n + 1;

    const int span1 = span.t1_hi - span.t1_lo; // fast transverse
    const int span2 = span.t2_hi - span.t2_lo;

    // Pencil geometry: each pencil spans cells [c_lo - reach, c_hi +
    // reach) — exactly the ghost depth the path's stencil requested when
    // the span touches the block face. x-sweeps read the pencil in place:
    // field rows are SoA-contiguous along x, so the pencil pointers point
    // straight at the backing store and the divergence writes dq the same
    // way — zero gather/scatter. y/z sweeps stage tile_rows() pencils at
    // a time through a transpose tile.
    const bool direct = dim == 0;
    const int tmax = direct ? 1 : exec::tile_rows();

    // Per-row scoped zones would breach the profiler's overhead budget
    // (clock reads plus tree bookkeeping per microsecond-scale row), so
    // the row phases are timed manually with shared timestamps and
    // bulk-credited to child zones once per chunk: under the enclosing
    // weno_{x,y,z} zone on the dispatching thread, under the worker's
    // weno_{x,y,z} root zone elsewhere. Rows within a sweep are
    // homogeneous, so only every kSampleStride-th row is timed and the
    // credit is scaled up — four clock reads per row on vectorized rows
    // is itself measurable against the <2% budget.
    const bool timed = path.phases > 0 && telemetry::enabled();

    const long long rows_total = static_cast<long long>(span1) * span2;
    exec::parallel_for(path.zone, 0, rows_total, [&](long long lo,
                                                     long long hi) {
        exec::Arena::Frame frame(exec::scratch_arena());
        // Transpose tiles (transverse sweeps only): the primitives over
        // the whole pencil, dq over the span's cells.
        PencilTile tiles[2] = {
            {span.c_lo - path.reach, n + 2 * path.reach, tmax,
             tile_pitch(n + 2 * path.reach)},
            {span.c_lo, n, tmax, tile_pitch(n)}};
        if (!direct) {
            for (PencilTile& tile : tiles) {
                tile.data = frame.doubles(static_cast<std::size_t>(neq) *
                                          tmax * tile.pitch);
            }
        }
        double* scratch = frame.doubles(path.scratch);
        // Fluxes and face velocities at the faces [c_lo, c_hi], SoA over
        // faces: slot f holds face c_lo + f, which separates cells
        // c_lo + f - 1 and c_lo + f.
        double* flux_row =
            frame.doubles(static_cast<std::size_t>(nfaces) * neq);
        double* uface_row = frame.doubles(static_cast<std::size_t>(nfaces));

        PhaseClock clock;
        const std::int64_t chunk_t0 = timed ? telemetry::clock_ns() : 0;

        for (long long t = lo; t < hi;) {
            const int t1 = span.t1_lo + static_cast<int>(t % span1);
            const int t2 = span.t2_lo + static_cast<int>(t / span1);
            // Tile height: up to tmax pencils, clipped to the t1
            // line and to this chunk (chunks are partition-independent
            // per-pencil work, so clipping only regroups pure copies).
            const int tb =
                direct ? 1
                       : static_cast<int>(std::min<long long>(
                             std::min<long long>(tmax, span1 - t % span1),
                             hi - t));

            if (!direct) {
                // The primitives always; dq only when this sweep adds
                // onto an earlier one (the first active sweep assigns it).
                StateArray* staged[2] = {&prim_, &dq};
                for (int s = 0; s < (accumulate ? 2 : 1); ++s) {
                    transpose_in(*staged[s], dim, t1, t2, tb, tiles[s]);
                }
            }

            for (int b = 0; b < tb; ++b) {
                clock.sample = timed && (t + b) % kSampleStride == 0;
                if (clock.sample) clock.last = telemetry::clock_ns();

                // Per-equation pencil pointers at sweep cell c_lo:
                // straight into the fields for x-sweeps, into the tile
                // rows for y/z.
                const double* rowc[kMaxEqns];
                double* dqp[kMaxEqns];
                if (direct) {
                    int i0 = 0, j0 = 0, k0 = 0;
                    cell_of(dim, span.c_lo, t1, t2, i0, j0, k0);
                    for (int q = 0; q < neq; ++q) {
                        rowc[q] = prim_.eq(q).ptr(i0, j0, k0);
                        dqp[q] = dq.eq(q).ptr(i0, j0, k0);
                    }
                } else {
                    for (int q = 0; q < neq; ++q) {
                        rowc[q] = tiles[0].row(q, b) + path.reach;
                        dqp[q] = tiles[1].row(q, b);
                    }
                }

                row_flux(rowc, t1 + b, t2, scratch, flux_row, uface_row,
                         clock);
                divergence_cells<W>(lay_, accumulate, n, neq, inv_dx, rowc,
                                    flux_row, nfaces, uface_row, dqp);
                clock.lap(path.phases - 1);
            }

            if (!direct) transpose_out(dq, dim, t1, t2, tb, tiles[1]);
            t += tb;
        }

        if (timed && hi > lo) {
            credit_scaled(path.phase_names, clock.ns, path.phases, hi - lo,
                          sampled_rows(lo, hi), telemetry::clock_ns() - chunk_t0);
        }
    });
}

template <int W>
void RhsEvaluator::sweep_weno_w(int dim, const SweepSpan& span, StateArray& dq,
                                bool accumulate) {
    const int n = span.c_hi - span.c_lo;
    const int neq = lay_.num_eqns();
    const int r = (weno_order_ - 1) / 2;
    // Edge values live in SoA rows over the cell slots [0, ncells) (slot
    // s holds cell c_lo + s - 1), so reconstruction, the Riemann solve,
    // and the divergence all stream W contiguous slots per step. Scalar
    // tails reuse the same templates at W = 1 — bitwise identical at any
    // width.
    const int ncells = n + 2;
    const int nfaces = n + 1;
    const auto edges = static_cast<std::size_t>(ncells) * neq;
    const PencilPath path{kWenoZone[dim], r + 1, 2 * edges, 3,
                          {"weno_recon", "riemann", "flux_div"}};

    sweep_pencils<W>(dim, span, dq, accumulate, path, [&](
        const double* const* rowc, int, int, double* scratch,
        double* flux_row, double* uface_row, PhaseClock& clock) {
        double* edge_left = scratch;
        double* edge_right = scratch + edges;

        // Edge reconstruction for cells [c_lo - 1, c_hi] (slots
        // [0, ncells)), W cells per step straight off the contiguous
        // pencil: slot s is cell c_lo + s - 1, the stencil center.
        for (int q = 0; q < neq; ++q) {
            const double* rq = rowc[q] - 1;
            double* el = edge_left + static_cast<std::size_t>(q) * ncells;
            double* er = edge_right + static_cast<std::size_t>(q) * ncells;
            simd::for_blocks<W>(ncells, [&](auto wtag, int s) {
                simd::vd<decltype(wtag)::value> l, rt;
                weno_edges_v<decltype(wtag)::value>(
                    rq + s, weno_order_, weno_eps_, l, rt, weno_variant_);
                l.store(el + s);
                rt.store(er + s);
            });
        }

        // Positivity safeguard: at severely under-resolved fronts
        // high-order edge values can undershoot into negative density
        // or pressure; fall back to the (positive) cell average for
        // this cell, preserving design order where the solution is
        // resolved. For stiffened fluids the physical bound is
        // p > -pi_inf of the mixture (c^2 > 0), not p > 0. The
        // per-cell test is a mask + select per equation.
        const auto positivity_block = [&](auto wtag, int s) {
            constexpr int BW = decltype(wtag)::value;
            using BV = simd::vd<BW>;
            BV rho_l = 0.0, rho_r = 0.0;
            for (int f = 0; f < lay_.num_fluids(); ++f) {
                const auto co = static_cast<std::size_t>(lay_.cont(f)) *
                                ncells;
                rho_l += BV::load(edge_left + co + s);
                rho_r += BV::load(edge_right + co + s);
            }
            BV eL[kMaxEqns], eR[kMaxEqns];
            for (int f = 0; f < lay_.num_adv(); ++f) {
                const auto ao = static_cast<std::size_t>(lay_.adv(f)) *
                                ncells;
                eL[lay_.adv(f)] = BV::load(edge_left + ao + s);
                eR[lay_.adv(f)] = BV::load(edge_right + ao + s);
            }
            const auto eo = static_cast<std::size_t>(lay_.energy()) *
                            ncells;
            eL[lay_.energy()] = BV::load(edge_left + eo + s);
            eR[lay_.energy()] = BV::load(edge_right + eo + s);
            const MixtureV<BW> mL = mixture_at_v<BW>(lay_, fluids_, eL);
            const MixtureV<BW> mR = mixture_at_v<BW>(lay_, fluids_, eR);
            const auto ok_l = (eL[lay_.energy()] + mL.pi_inf()) > BV(0.0);
            const auto ok_r = (eR[lay_.energy()] + mR.pi_inf()) > BV(0.0);
            const auto bad = rho_l <= BV(0.0) || rho_r <= BV(0.0) ||
                             !ok_l || !ok_r;
            if (!simd::any(bad)) return;
            for (int q = 0; q < neq; ++q) {
                const BV v = BV::load(rowc[q] + s - 1);
                double* el =
                    edge_left + static_cast<std::size_t>(q) * ncells + s;
                double* er =
                    edge_right + static_cast<std::size_t>(q) * ncells + s;
                simd::select(bad, v, BV::load(el)).store(el);
                simd::select(bad, v, BV::load(er)).store(er);
            }
        };
        simd::for_blocks<W>(ncells, positivity_block);
        clock.lap(0);

        // Riemann fluxes at faces [c_lo, c_hi], W faces per step. Face
        // slot f separates cell slots f and f + 1: its left state is the
        // right edge at slot f and its right state the left edge at slot
        // f + 1.
        const auto riemann_block = [&](auto wtag, int f) {
            constexpr int BW = decltype(wtag)::value;
            using BV = simd::vd<BW>;
            BV pl[kMaxEqns], pr[kMaxEqns], fx[kMaxEqns];
            for (int q = 0; q < neq; ++q) {
                const auto qo = static_cast<std::size_t>(q) * ncells;
                pl[q] = BV::load(edge_right + qo + f);
                pr[q] = BV::load(edge_left + qo + f + 1);
            }
            const BV uf = solve_riemann_v<BW>(riemann_, lay_, fluids_, pl, pr,
                                              dim, fx);
            for (int q = 0; q < neq; ++q) {
                fx[q].store(flux_row + static_cast<std::size_t>(q) * nfaces +
                            f);
            }
            uf.store(uface_row + f);
        };
        simd::for_blocks<W>(nfaces, riemann_block);
        clock.lap(1);
    });
}

void RhsEvaluator::sweep_weno_char(int dim, const SweepSpan& span,
                                   StateArray& dq, bool accumulate) {
    using V1 = simd::vd<1>;
    const int neq = lay_.num_eqns();
    const int r = (weno_order_ - 1) / 2;
    const int cells = 2 * r + 2; // stencil of face f: cells f-1-r .. f+r
    const int nfaces = span.c_hi - span.c_lo + 1;
    const PencilPath path{kWenoZone[dim], r + 1, 0, 2,
                          {"char_riemann", "flux_div"}};

    // Characteristic-wise reconstruction (Euler): at each face project
    // the conservative stencil onto the flux Jacobian's eigenvectors at
    // the face-average state, reconstruct the two adjacent cells' edge
    // values in characteristic space, and project back. Projection,
    // reconstruction, and the Riemann solve are interleaved per face on
    // W = 1 lanes of the kernels the component-wise path vectorizes, so
    // one segment covers the fused loop.
    sweep_pencils<1>(dim, span, dq, accumulate, path, [&](
        const double* const* rowc, int, int, double*, double* flux_row,
        double* uface_row, PhaseClock& clock) {
        double prim_avg[kMaxEqns];
        V1 point[kMaxEqns], cons[kMaxEqns];
        V1 w_stencil[8][kMaxEqns];
        V1 w_edge[kMaxEqns], cons_edge[kMaxEqns];
        V1 prim_l[kMaxEqns], prim_r[kMaxEqns], fx[kMaxEqns];
        double row[8];
        const auto unphysical = [&](const V1* prim) {
            return prim[lay_.cont(0)].v <= 0.0 ||
                   prim[lay_.energy()].v + fluids_[0].pi_inf <= 0.0;
        };
        // Face slot f separates cells f - 1 and f (relative to c_lo).
        for (int f = 0; f < nfaces; ++f) {
            for (int q = 0; q < neq; ++q) {
                prim_avg[q] = 0.5 * (rowc[q][f - 1] + rowc[q][f]);
            }
            const EulerEigenvectors eig =
                euler_eigenvectors(lay_, fluids_, prim_avg, dim);
            for (int s = 0; s < cells; ++s) {
                for (int q = 0; q < neq; ++q) point[q] = rowc[q][f - 1 - r + s];
                prim_to_cons_v<1>(lay_, fluids_, point, cons);
                eig.to_characteristic(cons, w_stencil[s]);
            }

            // One edge of every characteristic field, reconstructed from
            // the stencil centered at slot `center` and projected back to
            // primitives: cell f-1 sits at slot r (its right edge is the
            // face's left state), cell f at r + 1 (its left edge, the
            // right state).
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
                for (int q = 0; q < neq; ++q) prim_l[q] = rowc[q][f - 1];
            }
            if (unphysical(prim_r)) {
                for (int q = 0; q < neq; ++q) prim_r[q] = rowc[q][f];
            }

            const V1 uf = solve_riemann_v<1>(riemann_, lay_, fluids_, prim_l,
                                             prim_r, dim, fx);
            uf.store(uface_row + f);
            for (int q = 0; q < neq; ++q) {
                fx[q].store(flux_row + static_cast<std::size_t>(q) * nfaces + f);
            }
        }
        clock.lap(0);
    });
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
    const int n = span.c_hi - span.c_lo;
    const int n_full = extent_along(local_, dim);
    const int neq = lay_.num_eqns();
    const int nfaces = n + 1;
    // Sigma at cells [c_lo - 1, c_hi]: clamped to the interior at global
    // boundaries (homogeneous Neumann, consistent with the elliptic
    // solve), read from the exchanged rank ghost at decomposition
    // interfaces — serial and decomposed runs then see the same face
    // averages bitwise.
    const auto& iface = rank_iface_[static_cast<std::size_t>(dim)];
    const int sig_lo = iface[0] ? -1 : 0;
    const int sig_hi = iface[1] ? n_full : n_full - 1;
    // Face interpolation at order >= 5 reaches cells [f-2, f+1] for the
    // faces [c_lo, c_hi]: the pencil spans cells [c_lo - 2, c_hi + 1].
    const PencilPath path{kIgrZone[dim], 2, static_cast<std::size_t>(n + 2),
                          0, {}};

    sweep_pencils<W>(dim, span, dq, accumulate, path, [&](
        const double* const* rowc, int t1, int t2, double* sig_row,
        double* flux_row, double* uface_row, PhaseClock&) {
        for (int c = span.c_lo - 1; c <= span.c_hi; ++c) {
            int i = 0, j = 0, k = 0;
            cell_of(dim, std::clamp(c, sig_lo, sig_hi), t1, t2, i, j, k);
            sig_row[c - span.c_lo + 1] = sigma_(i, j, k);
        }

        // Face loop, W faces per step (slot f is face c_lo + f): central
        // interpolation of the primitives, entropic pressure on the face
        // energy, then the shared central-flux + Rusanov kernel.
        const auto face_block = [&](auto wtag, int f) {
            constexpr int BW = decltype(wtag)::value;
            using BV = simd::vd<BW>;
            BV pface[kMaxEqns], pl[kMaxEqns], pr[kMaxEqns];
            BV fx[kMaxEqns];
            for (int q = 0; q < neq; ++q) {
                const double* base = rowc[q] + f;
                if (igr_.order >= 5) {
                    pface[q] = (-BV::load(base - 2) +
                                BV(7.0) * BV::load(base - 1) +
                                BV(7.0) * BV::load(base) -
                                BV::load(base + 1)) /
                               BV(12.0);
                } else {
                    pface[q] = BV(0.5) * (BV::load(base - 1) + BV::load(base));
                }
                pl[q] = BV::load(base - 1);
                pr[q] = BV::load(base);
            }
            const BV sig = BV(0.5) * (BV::load(sig_row + f) +
                                      BV::load(sig_row + f + 1));
            // The loop above set pface[energy()]; gcc's -march=native
            // codegen loses track of that and would warn.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
            pface[lay_.energy()] += sig;
#pragma GCC diagnostic pop
            const BV uf = igr_face_flux_v<BW>(lay_, fluids_, pface, pl, pr,
                                              dim, fx);
            for (int q = 0; q < neq; ++q) {
                fx[q].store(flux_row + static_cast<std::size_t>(q) * nfaces +
                            f);
            }
            uf.store(uface_row + f);
        };
        simd::for_blocks<W>(nfaces, face_block);
    });
}

} // namespace mfc
