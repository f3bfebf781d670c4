#include "perf/ubench.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "exec/exec.hpp"
#include "numerics/vec_axpy.hpp"
#include "numerics/vec_igr.hpp"
#include "numerics/vec_riemann.hpp"
#include "numerics/vec_weno.hpp"
#include "physics/model.hpp"
#include "physics/vec_kernels.hpp"
#include "simd/simd.hpp"

namespace mfc::perf {

const char* to_string(KernelBound b) {
    switch (b) {
    case KernelBound::Memory: return "memory";
    case KernelBound::Flops: return "flops";
    case KernelBound::Divider: return "divider";
    }
    return "?";
}

const DeviceSpec& reference_core() {
    // One spec per FP64 lane count (1, 2, 4, 8), so the returned
    // reference stays valid across set_width.
    static const std::array<DeviceSpec, 4> cores = [] {
        std::array<DeviceSpec, 4> c;
        for (std::size_t i = 0; i < c.size(); ++i) {
            const int lanes = 1 << i;
            DeviceSpec& d = c[i];
            d.name = "reference core";
            d.type = DeviceType::CPU;
            d.vendor = "generic";
            d.usage = "1 core, " + std::to_string(lanes) + " FP64 lanes";
            d.compiler = "no FMA contraction";
            d.mem_bw_gbs = 15.0;           // sustained single-core stream
            d.fp64_tflops = 0.006 * lanes; // ~3 GHz x 2 FP64 pipes x lanes
            d.eff_bw = 1.0;
            d.eff_flops = 0.5;
            // Measured on the maintenance host (4-core AVX-512 Xeon at
            // 2.0 GHz, gcc 12.2): eight independent divide chains ran
            // 0.50-0.56 scalar divides/ns and 1.08-1.13 vector lanes/ns at
            // W = 2, 4 and 8 alike (the divider does not widen with the
            // register); square roots ran 0.37 and 0.73-0.76.
            d.fp64_div_per_ns = lanes == 1 ? 0.5 : 1.1;
        }
        return c;
    }();
    const int lanes = std::min(simd::width(), simd::register_lanes());
    return cores[lanes == 8 ? 3 : static_cast<std::size_t>(lanes / 2)];
}

namespace {

/// The synthetic workload: the standardized two-fluid five-equation
/// configuration (8 equations in 3D), with smooth, strictly positive
/// primitive rows. Everything is a pure function of the cell index, so
/// two runs — any build, any simd width — see identical inputs.
const EquationLayout& bench_layout() {
    static const EquationLayout lay(ModelKind::FiveEquation, 2, 3);
    return lay;
}

const std::vector<StiffenedGas>& bench_fluids() {
    static const std::vector<StiffenedGas> fluids = {{1.4, 0.0}, {4.4, 6.0}};
    return fluids;
}

/// prim[q * cells + i]: SoA rows of a smooth valid state. `phase` shifts
/// the pattern so left/right Riemann states differ.
void fill_prim_rows(int cells, double phase, std::vector<double>& prim) {
    const EquationLayout& lay = bench_layout();
    prim.assign(static_cast<std::size_t>(lay.num_eqns()) * cells, 0.0);
    for (int i = 0; i < cells; ++i) {
        const double x = 0.02 * i + phase;
        const double s = std::sin(x);
        const double alpha = 0.5 + 0.35 * s; // in (0.1, 0.9)
        const auto at = [&](int q) -> double& {
            return prim[static_cast<std::size_t>(q) * cells + i];
        };
        at(lay.cont(0)) = alpha * 1.2;
        at(lay.cont(1)) = (1.0 - alpha) * 0.9;
        at(lay.mom(0)) = 0.1 * s;
        at(lay.mom(1)) = 0.05 * std::cos(x);
        at(lay.mom(2)) = -0.02 * s;
        at(lay.energy()) = 1.0 + 0.2 * std::cos(1.3 * x); // pressure
        at(lay.adv(0)) = alpha;
        at(lay.adv(1)) = 1.0 - alpha;
    }
}

/// Minimum wall time of `reps` invocations of `body`.
template <typename F>
double time_min_ns(int reps, F&& body) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        body();
        const auto t1 = std::chrono::steady_clock::now();
        const double ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        if (ns < best) best = ns;
    }
    return best;
}

double digest(const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum;
}

UbenchResult make_result(const std::string& name, const UbenchOptions& o,
                         const KernelCost& cost, double min_ns,
                         double checksum) {
    UbenchResult r;
    r.name = name;
    r.cells = o.cells;
    r.reps = o.reps;
    r.ns_per_cell = min_ns / o.cells;
    r.gbs = r.ns_per_cell > 0.0 ? cost.bytes_per_cell / r.ns_per_cell : 0.0;
    r.model_ns_per_cell = cost.ns_per_cell(reference_core());
    r.bound = cost.bound(reference_core());
    r.cost = cost;
    r.checksum = checksum;
    return r;
}

constexpr int kMaxEqns = 16;

UbenchResult bench_prim_convert(const UbenchOptions& o) {
    const EquationLayout& lay = bench_layout();
    const int neq = lay.num_eqns();
    const int cells = o.cells;
    std::vector<double> prim;
    fill_prim_rows(cells, 0.0, prim);
    // The timed kernel is cons -> prim, fed by the scalar inverse.
    std::vector<double> cons(prim.size());
    std::vector<double> out(prim.size());
    for (int i = 0; i < cells; ++i) {
        double p[kMaxEqns], c[kMaxEqns];
        for (int q = 0; q < neq; ++q)
            p[q] = prim[static_cast<std::size_t>(q) * cells + i];
        prim_to_cons(lay, bench_fluids(), p, c);
        for (int q = 0; q < neq; ++q)
            cons[static_cast<std::size_t>(q) * cells + i] = c[q];
    }
    const double min_ns = time_min_ns(o.reps, [&] {
        simd::dispatch([&](auto wc) {
            constexpr int W = wc();
            const auto block = [&](auto tag, int i) {
                constexpr int BW = decltype(tag)::value;
                using BV = simd::vd<BW>;
                BV cv[kMaxEqns], pv[kMaxEqns];
                for (int q = 0; q < neq; ++q) {
                    cv[q] = BV::load(cons.data() +
                                     static_cast<std::size_t>(q) * cells + i);
                }
                cons_to_prim_v<BW>(lay, bench_fluids(), cv, pv);
                for (int q = 0; q < neq; ++q) {
                    pv[q].store(out.data() +
                                static_cast<std::size_t>(q) * cells + i);
                }
            };
            simd::for_blocks<W>(cells, block);
        });
    });
    // Divides: the velocities (one per dimension) and the pressure.
    const KernelCost cost{2.0 * neq * 8.0, 45.0, 4.0, 0.0};
    return make_result("prim_convert", o, cost, min_ns, digest(out));
}

UbenchResult bench_weno(const std::string& name, int order,
                        WenoVariant variant, double flops, double divs,
                        const UbenchOptions& o) {
    const int cells = o.cells;
    const int r = (order - 1) / 2;
    std::vector<double> row(static_cast<std::size_t>(cells + 2 * r));
    for (std::size_t i = 0; i < row.size(); ++i) {
        row[i] = 1.0 + 0.3 * std::sin(0.05 * static_cast<double>(i));
    }
    std::vector<double> left(static_cast<std::size_t>(cells));
    std::vector<double> right(static_cast<std::size_t>(cells));
    const double eps = 1.0e-16;
    const double min_ns = time_min_ns(o.reps, [&] {
        simd::dispatch([&](auto wc) {
            simd::for_blocks<wc()>(cells, [&](auto tag, int i) {
                simd::vd<decltype(tag)::value> l, rt;
                weno_edges_v<decltype(tag)::value>(row.data() + i + r, order,
                                                   eps, l, rt, variant);
                l.store(left.data() + i);
                rt.store(right.data() + i);
            });
        });
    });
    const KernelCost cost{24.0, flops, divs, 0.0};
    return make_result(name, o, cost, min_ns, digest(left) + digest(right));
}

UbenchResult bench_riemann(const std::string& name, RiemannSolverKind kind,
                           double flops, double divs, const UbenchOptions& o) {
    const EquationLayout& lay = bench_layout();
    const int neq = lay.num_eqns();
    const int cells = o.cells;
    std::vector<double> left, right;
    fill_prim_rows(cells, 0.0, left);
    fill_prim_rows(cells, 0.4, right);
    std::vector<double> flux(left.size());
    std::vector<double> uface(static_cast<std::size_t>(cells));
    const double min_ns = time_min_ns(o.reps, [&] {
        simd::dispatch([&](auto wc) {
            constexpr int W = wc();
            const auto block = [&](auto tag, int f) {
                constexpr int BW = decltype(tag)::value;
                using BV = simd::vd<BW>;
                BV pl[kMaxEqns], pr[kMaxEqns], fx[kMaxEqns];
                for (int q = 0; q < neq; ++q) {
                    const auto qo = static_cast<std::size_t>(q) * cells + f;
                    pl[q] = BV::load(left.data() + qo);
                    pr[q] = BV::load(right.data() + qo);
                }
                const BV uf = solve_riemann_v<BW>(kind, lay, bench_fluids(),
                                                  pl, pr, 0, fx);
                for (int q = 0; q < neq; ++q) {
                    fx[q].store(flux.data() +
                                static_cast<std::size_t>(q) * cells + f);
                }
                uf.store(uface.data() + f);
            };
            simd::for_blocks<W>(cells, block);
        });
    });
    // Two mixture sound speeds, each with three divides and a root.
    const KernelCost cost{(3.0 * neq + 1.0) * 8.0, flops, divs, 2.0};
    return make_result(name, o, cost, min_ns, digest(flux) + digest(uface));
}

UbenchResult bench_igr_flux(const UbenchOptions& o) {
    const EquationLayout& lay = bench_layout();
    const int neq = lay.num_eqns();
    const int cells = o.cells;
    std::vector<double> face, cl, cr;
    fill_prim_rows(cells, 0.2, face);
    fill_prim_rows(cells, 0.0, cl);
    fill_prim_rows(cells, 0.4, cr);
    std::vector<double> flux(face.size());
    std::vector<double> uface(static_cast<std::size_t>(cells));
    const double min_ns = time_min_ns(o.reps, [&] {
        simd::dispatch([&](auto wc) {
            constexpr int W = wc();
            const auto block = [&](auto tag, int f) {
                constexpr int BW = decltype(tag)::value;
                using BV = simd::vd<BW>;
                BV pf[kMaxEqns], pl[kMaxEqns], pr[kMaxEqns], fx[kMaxEqns];
                for (int q = 0; q < neq; ++q) {
                    const auto qo = static_cast<std::size_t>(q) * cells + f;
                    pf[q] = BV::load(face.data() + qo);
                    pl[q] = BV::load(cl.data() + qo);
                    pr[q] = BV::load(cr.data() + qo);
                }
                const BV uf =
                    igr_face_flux_v<BW>(lay, bench_fluids(), pf, pl, pr, 0, fx);
                for (int q = 0; q < neq; ++q) {
                    fx[q].store(flux.data() +
                                static_cast<std::size_t>(q) * cells + f);
                }
                uf.store(uface.data() + f);
            };
            simd::for_blocks<W>(cells, block);
        });
    });
    // Two mixture sound speeds, each with three divides and a root.
    const KernelCost cost{(4.0 * neq + 1.0) * 8.0, 160.0, 6.0, 2.0};
    return make_result("igr_flux", o, cost, min_ns, digest(flux));
}

UbenchResult bench_igr_jacobi(const UbenchOptions& o) {
    // One 1D Jacobi relaxation row (the x-only specialization of
    // igr_elliptic_solve's stencil), boundary cells clamped.
    const int cells = o.cells;
    std::vector<double> sigma(static_cast<std::size_t>(cells));
    std::vector<double> source(static_cast<std::size_t>(cells));
    for (int i = 0; i < cells; ++i) {
        sigma[static_cast<std::size_t>(i)] = 0.1 * std::sin(0.03 * i);
        source[static_cast<std::size_t>(i)] = 1.0 + 0.5 * std::cos(0.07 * i);
    }
    std::vector<double> out(static_cast<std::size_t>(cells));
    const double off = 0.25;
    const double diag = 1.5;
    const double min_ns = time_min_ns(o.reps, [&] {
        simd::dispatch([&](auto wc) {
            constexpr int W = wc();
            const double* sp = sigma.data();
            const double* src = source.data();
            double* dp = out.data();
            const auto scalar_cell = [&](int i) {
                const double nb = (i > 0 ? sp[i - 1] : sp[i]) +
                                  (i < cells - 1 ? sp[i + 1] : sp[i]);
                dp[i] = (src[i] + off * nb) / diag;
            };
            const auto block = [&](auto tag, int i) {
                constexpr int BW = decltype(tag)::value;
                using BV = simd::vd<BW>;
                const BV nb = BV::load(sp + i - 1) + BV::load(sp + i + 1);
                const BV r = (BV::load(src + i) + BV(off) * nb) / BV(diag);
                r.store(dp + i);
            };
            scalar_cell(0);
            int i = 1;
            for (; i + W <= cells - 1; i += W)
                block(std::integral_constant<int, W>{}, i);
            for (; i < cells - 1; ++i)
                block(std::integral_constant<int, 1>{}, i);
            if (cells > 1) scalar_cell(cells - 1);
        });
    });
    const KernelCost cost{24.0, 6.0, 1.0, 0.0};
    return make_result("igr_jacobi", o, cost, min_ns, digest(out));
}

UbenchResult bench_halo(const std::string& name, bool unpack,
                        const UbenchOptions& o) {
    // Mirrors HaloChannel's pack/unpack (src/grid/halo.cpp): ghost-deep
    // runs of contiguous doubles gathered from field rows into a
    // contiguous message buffer (pack) or scattered back (unpack). The
    // ghost runs are short (3 doubles for WENO5) and strided a full row
    // apart, so the kernel measures strided-small-run copy bandwidth,
    // not memcpy.
    const int ng = 3;
    const int stride = 64; // field row length (cells + ghosts)
    const int cells = o.cells;
    const int rows = (cells + ng - 1) / ng;
    std::vector<double> field(static_cast<std::size_t>(rows) * stride + ng);
    std::vector<double> buf(static_cast<std::size_t>(cells));
    for (std::size_t i = 0; i < field.size(); ++i) {
        field[i] = 1.0 + 0.25 * std::sin(0.04 * static_cast<double>(i));
    }
    for (int i = 0; i < cells; ++i) {
        buf[static_cast<std::size_t>(i)] = 0.5 + 0.1 * std::cos(0.03 * i);
    }
    const double min_ns = time_min_ns(o.reps, [&] {
        double* f = field.data();
        double* b = buf.data();
        int i = 0;
        int r = 0;
        while (i < cells) {
            const int run = std::min(ng, cells - i);
            double* slab = f + static_cast<std::size_t>(r) * stride;
            if (unpack) {
                for (int g = 0; g < run; ++g) slab[g] = b[i + g];
            } else {
                for (int g = 0; g < run; ++g) b[i + g] = slab[g];
            }
            i += run;
            ++r;
        }
    });
    const KernelCost cost = unpack ? kHaloUnpackCost : kHaloPackCost;
    return make_result(name, o, cost, min_ns,
                       unpack ? digest(field) : digest(buf));
}

/// Strided plane of the transpose reference copy: a y/z pencil in a
/// field whose rows are 64 doubles long, i.e. consecutive pencil cells
/// sit a full row apart and x-adjacent pencils are unit-stride.
constexpr int kPencilStride = 64;

UbenchResult bench_transpose_tile(const UbenchOptions& o) {
    // A reference copy, not a production phase, kept because the
    // repository benchmark times it: tile_rows() x-adjacent pencils staged
    // into contiguous tile rows, walking the pencil cell outermost so each
    // step moves one whole unit-stride run (128 bytes at tile_rows() =
    // 16); covers o.cells total cells, tile_rows() per step.
    const int tile_rows = exec::tile_rows();
    const int len = std::max(1, o.cells / tile_rows);
    const int pitch = len;
    std::vector<double> plane(
        static_cast<std::size_t>(len * kPencilStride + tile_rows));
    for (std::size_t i = 0; i < plane.size(); ++i) {
        plane[i] = 1.0 + 0.25 * std::sin(0.04 * static_cast<double>(i));
    }
    std::vector<double> tile(static_cast<std::size_t>(tile_rows) * pitch);
    const double min_ns = time_min_ns(o.reps, [&] {
        const double* p = plane.data();
        double* t = tile.data();
        for (int c = 0; c < len; ++c) {
            const double* pc = p + static_cast<std::size_t>(c) * kPencilStride;
            for (int b = 0; b < tile_rows; ++b) {
                t[b * pitch + c] = pc[b];
            }
        }
    });
    // Normalize per staged cell.
    UbenchResult r = make_result("transpose_tile", o, kTransposeTileCost,
                                 min_ns, digest(tile));
    r.ns_per_cell = min_ns / (static_cast<double>(len) * tile_rows);
    r.gbs = r.ns_per_cell > 0.0
                ? kTransposeTileCost.bytes_per_cell / r.ns_per_cell
                : 0.0;
    return r;
}

UbenchResult bench_rk_axpy(const UbenchOptions& o) {
    const int cells = o.cells;
    std::vector<double> va(static_cast<std::size_t>(cells));
    std::vector<double> vb(static_cast<std::size_t>(cells));
    std::vector<double> vdq(static_cast<std::size_t>(cells));
    std::vector<double> vo(static_cast<std::size_t>(cells));
    for (int i = 0; i < cells; ++i) {
        va[static_cast<std::size_t>(i)] = std::sin(0.01 * i);
        vb[static_cast<std::size_t>(i)] = std::cos(0.02 * i);
        vdq[static_cast<std::size_t>(i)] = 0.1 * std::sin(0.05 * i);
    }
    const double min_ns = time_min_ns(o.reps, [&] {
        simd::dispatch([&](auto wc) {
            rk_axpy_rows<wc()>(0.75, va.data(), 0.25, vb.data(), 0.01,
                               vdq.data(), vo.data(), 0, cells);
        });
    });
    const KernelCost cost{32.0, 5.0};
    return make_result("rk_axpy", o, cost, min_ns, digest(vo));
}

} // namespace

const std::vector<std::string>& ubench_kernels() {
    static const std::vector<std::string> names = {
        "prim_convert", "weno5_js",    "weno5_m",     "weno5_z",
        "weno3_js",     "riemann_hllc", "riemann_hll", "igr_flux",
        "igr_jacobi",   "rk_axpy",     "transpose_tile", "halo_pack",
        "halo_unpack",
    };
    return names;
}

UbenchResult run_ubench(const std::string& name, const UbenchOptions& o) {
    MFC_REQUIRE(o.cells >= 16, "ubench: --cells must be at least 16");
    MFC_REQUIRE(o.reps >= 1, "ubench: --reps must be positive");
    if (name == "prim_convert") return bench_prim_convert(o);
    // Divides per cell, from vec_weno.hpp: the five distinct JS weights
    // (the middle one is shared by both edges) and two normalizations;
    // the six candidate polynomials divide by 6 in simd::div_exact. M adds
    // per edge three weight normalizations, three maps and the final
    // normalization; Z has three distinct tau/(beta+eps) and two
    // normalizations; WENO3-JS four weights and two normalizations.
    if (name == "weno5_js")
        return bench_weno(name, 5, WenoVariant::JS, 90.0, 7.0, o);
    if (name == "weno5_m")
        return bench_weno(name, 5, WenoVariant::M, 120.0, 19.0, o);
    if (name == "weno5_z")
        return bench_weno(name, 5, WenoVariant::Z, 100.0, 5.0, o);
    if (name == "weno3_js")
        return bench_weno(name, 3, WenoVariant::JS, 45.0, 6.0, o);
    // Divides per face, from vec_riemann.hpp: six in the two sound speeds
    // and one for the contact speed; HLLC adds three in the star state,
    // HLL one reciprocal of the wave-speed gap.
    if (name == "riemann_hllc")
        return bench_riemann(name, RiemannSolverKind::HLLC, 250.0, 10.0, o);
    if (name == "riemann_hll")
        return bench_riemann(name, RiemannSolverKind::HLL, 160.0, 8.0, o);
    if (name == "igr_flux") return bench_igr_flux(o);
    if (name == "igr_jacobi") return bench_igr_jacobi(o);
    if (name == "rk_axpy") return bench_rk_axpy(o);
    if (name == "transpose_tile") return bench_transpose_tile(o);
    if (name == "halo_pack") return bench_halo(name, /*unpack=*/false, o);
    if (name == "halo_unpack") return bench_halo(name, /*unpack=*/true, o);
    fail("ubench: unknown kernel '" + name + "'");
}

std::vector<UbenchResult> run_ubench_all(const UbenchOptions& o) {
    std::vector<UbenchResult> out;
    out.reserve(ubench_kernels().size());
    for (const std::string& name : ubench_kernels()) {
        out.push_back(run_ubench(name, o));
    }
    return out;
}

} // namespace mfc::perf
