#include "numerics/igr.hpp"

#include "core/error.hpp"
#include "exec/exec.hpp"
#include "simd/simd.hpp"
#include "telemetry/telemetry.hpp"

namespace mfc {

std::string to_string(const IgrParams& p) {
    if (!p.enabled) return "igr=F";
    return "igr=T order=" + std::to_string(p.order) +
           " alf=" + std::to_string(p.alf_factor) +
           " iters=" + std::to_string(p.num_iters) +
           " solver=" + (p.iter_solver == 1 ? std::string("Jacobi")
                                            : std::string("Gauss-Seidel"));
}

void igr_elliptic_solve(const IgrParams& params, const Field& source,
                        double dx, bool warm, Field& sigma,
                        const IgrInterfaceMask& iface,
                        const std::function<void(Field&)>& exchange) {
    PROF_ZONE("igr_elliptic");
    MFC_REQUIRE(params.iter_solver == 1 || params.iter_solver == 2,
                "igr_iter_solver must be 1 (Jacobi) or 2 (Gauss-Seidel)");
    const Extents e = source.extents();
    const double alf = params.alf_factor * dx * dx;
    const double inv_dx2 = 1.0 / (dx * dx);
    // Rank-interface faces read the exchanged ghost; global-boundary faces
    // clamp to the edge cell (homogeneous Neumann, the serial behavior).
    const bool ifx_lo = iface[0][0], ifx_hi = iface[0][1];
    const bool ify_lo = iface[1][0], ify_hi = iface[1][1];
    const bool ifz_lo = iface[2][0], ifz_hi = iface[2][1];

    // Active-dimension neighbor count for the discrete Laplacian.
    const int active = e.dims() == 0 ? 1 : e.dims();
    const double diag = 1.0 + alf * inv_dx2 * 2.0 * active;
    const double off = alf * inv_dx2;

    const int iters = params.num_iters + (warm ? 0 : params.num_warm_start_iters);
    if (!warm) sigma.fill(0.0);

    // One row of the relaxation stencil: reads the iterate `s`, writes
    // `dst`. The Jacobi rows are independent (s != dst) and parallelize;
    // Gauss-Seidel reads and writes sigma in place and must stay serial.
    const auto relax_row = [&](const Field& s, Field& dst, int j, int k) {
        for (int i = 0; i < e.nx; ++i) {
            double nb = 0.0;
            if (e.nx > 1) {
                nb += (i > 0 ? s(i - 1, j, k) : s(i, j, k)) +
                      (i < e.nx - 1 ? s(i + 1, j, k) : s(i, j, k));
            }
            if (e.ny > 1) {
                nb += (j > 0 ? s(i, j - 1, k) : s(i, j, k)) +
                      (j < e.ny - 1 ? s(i, j + 1, k) : s(i, j, k));
            }
            if (e.nz > 1) {
                nb += (k > 0 ? s(i, j, k - 1) : s(i, j, k)) +
                      (k < e.nz - 1 ? s(i, j, k + 1) : s(i, j, k));
            }
            dst(i, j, k) = (source(i, j, k) + off * nb) / diag;
        }
    };

    // Jacobi rows are independent and stream contiguously along x, so the
    // interior cells [1, nx-1) — whose x-neighbors need no boundary clamp —
    // run W cells per step; the two clamped boundary cells and the tail
    // reuse the same expressions at W = 1, keeping every width bitwise
    // identical to the serial scalar row. Transverse neighbors come from
    // row pointers pre-clamped per (j, k). Gauss-Seidel reads its own
    // in-flight writes and stays serial and scalar.
    const auto relax_row_w = [&](auto wtag, const Field& s, Field& dst, int j,
                                 int k) {
        constexpr int W = decltype(wtag)::value;
        const double* sp = s.ptr(0, j, k);
        const double* src = source.ptr(0, j, k);
        double* dp = dst.ptr(0, j, k);
        const double* sjm =
            s.ptr(0, j > 0 ? j - 1 : (ify_lo ? -1 : j), k);
        const double* sjp =
            s.ptr(0, j < e.ny - 1 ? j + 1 : (ify_hi ? e.ny : j), k);
        const double* skm =
            s.ptr(0, j, k > 0 ? k - 1 : (ifz_lo ? -1 : k));
        const double* skp =
            s.ptr(0, j, k < e.nz - 1 ? k + 1 : (ifz_hi ? e.nz : k));

        const auto cell_block = [&](auto bwtag, int i) {
            constexpr int BW = decltype(bwtag)::value;
            using BV = simd::vd<BW>;
            BV nb = 0.0;
            if (e.nx > 1) {
                nb += (BV::load(sp + i - 1) + BV::load(sp + i + 1));
            }
            if (e.ny > 1) nb += (BV::load(sjm + i) + BV::load(sjp + i));
            if (e.nz > 1) nb += (BV::load(skm + i) + BV::load(skp + i));
            const BV out = (BV::load(src + i) + BV(off) * nb) / BV(diag);
            out.store(dp + i);
        };
        const auto scalar_cell = [&](int i) {
            double nb = 0.0;
            if (e.nx > 1) {
                nb += (i > 0 ? sp[i - 1] : (ifx_lo ? sp[-1] : sp[i])) +
                      (i < e.nx - 1 ? sp[i + 1]
                                    : (ifx_hi ? sp[e.nx] : sp[i]));
            }
            if (e.ny > 1) nb += sjm[i] + sjp[i];
            if (e.nz > 1) nb += skm[i] + skp[i];
            dp[i] = (src[i] + off * nb) / diag;
        };

        scalar_cell(0);
        int i = 1;
        for (; i + W <= e.nx - 1; i += W) cell_block(wtag, i);
        for (; i < e.nx - 1; ++i) cell_block(std::integral_constant<int, 1>{}, i);
        if (e.nx > 1) scalar_cell(e.nx - 1);
    };

    Field next = sigma; // Jacobi needs a second buffer
    const long long rows = static_cast<long long>(e.ny) * e.nz;
    for (int it = 0; it < iters; ++it) {
        // Refresh the iterate's rank ghosts so interface cells read the
        // neighbor's previous iterate — exactly the serial stencil.
        if (exchange && params.iter_solver == 1) exchange(sigma);
        if (params.iter_solver == 1) {
            simd::dispatch([&](auto wc) {
                exec::parallel_for("igr_elliptic", 0, rows,
                                   [&](long long lo, long long hi) {
                                       for (long long t = lo; t < hi; ++t) {
                                           const int j =
                                               static_cast<int>(t % e.ny);
                                           const int k =
                                               static_cast<int>(t / e.ny);
                                           relax_row_w(wc, sigma, next, j, k);
                                       }
                                   });
            });
            std::swap(sigma, next);
        } else {
            for (int k = 0; k < e.nz; ++k) {
                for (int j = 0; j < e.ny; ++j) relax_row(sigma, sigma, j, k);
            }
        }
    }
    // The IGR sweeps read sigma's rank ghosts too (face averaging at
    // interface cells) — leave them current with the converged iterate.
    if (exchange) exchange(sigma);
}

} // namespace mfc
