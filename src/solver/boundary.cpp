#include "solver/boundary.hpp"

#include <cstring>

namespace mfc {

namespace {

int extent_along(const Extents& e, int dim) {
    return dim == 0 ? e.nx : dim == 1 ? e.ny : e.nz;
}

/// Visit every ghost layer t = 0..g-1 on `side` of `dim`, pairing each
/// ghost index with the interior index chosen by the boundary condition.
template <typename Fn>
void for_ghost_pairs(const Extents& e, int g, int dim, int side, BcType bc,
                     Fn&& fn) {
    const int n = extent_along(e, dim);
    for (int t = 0; t < g; ++t) {
        int ghost = 0;
        int interior = 0;
        if (side == 0) { // low face
            ghost = -1 - t;
            switch (bc) {
            case BcType::Periodic: interior = n - 1 - t; break;
            case BcType::Reflective:
            case BcType::NoSlip: interior = t; break;
            case BcType::Extrapolation: interior = 0; break;
            }
        } else { // high face
            ghost = n + t;
            switch (bc) {
            case BcType::Periodic: interior = t; break;
            case BcType::Reflective:
            case BcType::NoSlip: interior = n - 1 - t; break;
            case BcType::Extrapolation: interior = n - 1; break;
            }
        }
        fn(ghost, interior);
    }
}

} // namespace

void apply_boundary_conditions_dim(
    const EquationLayout& lay, const std::array<std::array<BcType, 2>, 3>& bc,
    const PhysicalFaces& faces, bool serial_periodic, int dim,
    StateArray& cons) {
    const Extents e = cons.extents();
    const Field& ref = cons.eq(0);
    const int g = dim == 0 ? ref.gx() : dim == 1 ? ref.gy() : ref.gz();
    if (g == 0) return; // inactive dimension

    // Transverse ranges cover interior plus ghosts so edge/corner ghosts
    // are rebuilt from the (already filled) lower-dimension ghost data.
    const int lo_i = dim == 0 ? 0 : -ref.gx();
    const int hi_i = dim == 0 ? 1 : e.nx + ref.gx();
    const int lo_j = dim == 1 ? 0 : -ref.gy();
    const int hi_j = dim == 1 ? 1 : e.ny + ref.gy();
    const int lo_k = dim == 2 ? 0 : -ref.gz();
    const int hi_k = dim == 2 ? 1 : e.nz + ref.gz();

    for (int side = 0; side < 2; ++side) {
        if (!faces.face[static_cast<std::size_t>(dim)][static_cast<std::size_t>(side)]) {
            continue;
        }
        const BcType type =
            bc[static_cast<std::size_t>(dim)][static_cast<std::size_t>(side)];
        if (type == BcType::Periodic && !serial_periodic) continue;

        for (int q = 0; q < cons.num_eqns(); ++q) {
            Field& f = cons.eq(q);
            // Reflective (free-slip) walls mirror the state and flip the
            // momentum component normal to the face; no-slip walls flip
            // every momentum component so the wall velocity is zero.
            bool flip = type == BcType::Reflective && q == lay.mom(dim);
            if (type == BcType::NoSlip) {
                for (int d2 = 0; d2 < lay.dims(); ++d2) {
                    flip = flip || q == lay.mom(d2);
                }
            }
            const double sign = flip ? -1.0 : 1.0;
            // The x-range of each (j, k) line is a unit-stride run in the
            // field (for dim == 0 it degenerates to the single ghost /
            // source column), so copy whole rows: memcpy for plain
            // copies (one assignment for the x-face's single column,
            // not a library call per double), a pointer walk for sign
            // flips. All preserve the bit pattern of the former per-cell
            // sign * f(...) writes.
            const int gi = dim == 0 ? 0 : lo_i; // ghost/interior set below
            const int len = dim == 0 ? 1 : hi_i - lo_i;
            for_ghost_pairs(e, g, dim, side, type, [&](int ghost, int interior) {
                for (int k = lo_k; k < hi_k; ++k) {
                    for (int j = lo_j; j < hi_j; ++j) {
                        int gj = j, gk = k, sj = j, sk = k;
                        if (dim == 1) { gj = ghost; sj = interior; }
                        if (dim == 2) { gk = ghost; sk = interior; }
                        double* gp =
                            f.ptr(dim == 0 ? ghost : gi, gj, gk);
                        const double* sp =
                            f.ptr(dim == 0 ? interior : gi, sj, sk);
                        if (flip) {
                            for (int i = 0; i < len; ++i) gp[i] = sign * sp[i];
                        } else if (len == 1) {
                            *gp = *sp;
                        } else {
                            std::memcpy(gp, sp,
                                        static_cast<std::size_t>(len) *
                                            sizeof(double));
                        }
                    }
                }
            });
        }
    }
}

void apply_boundary_conditions(const EquationLayout& lay,
                               const std::array<std::array<BcType, 2>, 3>& bc,
                               const PhysicalFaces& faces, bool serial_periodic,
                               StateArray& cons) {
    for (int dim = 0; dim < 3; ++dim) {
        apply_boundary_conditions_dim(lay, bc, faces, serial_periodic, dim, cons);
    }
}

} // namespace mfc
