#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "comm/cart.hpp"
#include "core/field.hpp"
#include "grid/grid.hpp"
#include "grid/halo.hpp"

namespace mfc {
namespace {

// --- grid geometry -----------------------------------------------------

TEST(Grid, SpacingAndCenters) {
    GlobalGrid g{Extents{10, 1, 1}, {0.0, 0.0, 0.0}, {2.0, 1.0, 1.0}};
    EXPECT_DOUBLE_EQ(g.dx(0), 0.2);
    EXPECT_DOUBLE_EQ(g.center(0, 0), 0.1);
    EXPECT_DOUBLE_EQ(g.center(0, 9), 1.9);
    EXPECT_EQ(g.total_cells(), 10);
    EXPECT_EQ(g.dims(), 1);
}

// --- decomposition -----------------------------------------------------

TEST(Decompose, EvenSplit) {
    const LocalBlock b = decompose(Extents{100, 100, 100}, {4, 5, 2}, {1, 2, 0});
    EXPECT_EQ(b.cells.nx, 25);
    EXPECT_EQ(b.cells.ny, 20);
    EXPECT_EQ(b.cells.nz, 50);
    EXPECT_EQ(b.offset[0], 25);
    EXPECT_EQ(b.offset[1], 40);
    EXPECT_EQ(b.offset[2], 0);
}

TEST(Decompose, RemainderGoesToLowRanks) {
    // 10 cells over 3 ranks: 4, 3, 3.
    int total = 0;
    int expected_offset = 0;
    for (int r = 0; r < 3; ++r) {
        const LocalBlock b = decompose(Extents{10, 1, 1}, {3, 1, 1}, {r, 0, 0});
        EXPECT_EQ(b.cells.nx, r == 0 ? 4 : 3);
        EXPECT_EQ(b.offset[0], expected_offset);
        expected_offset += b.cells.nx;
        total += b.cells.nx;
    }
    EXPECT_EQ(total, 10);
}

TEST(Decompose, BlocksTileTheGlobalGrid) {
    // Union of all local blocks covers every global index exactly once.
    const Extents global{13, 7, 5};
    const std::array<int, 3> dims = {3, 2, 2};
    std::vector<int> hits(static_cast<std::size_t>(global.cells()), 0);
    for (int cx = 0; cx < dims[0]; ++cx) {
        for (int cy = 0; cy < dims[1]; ++cy) {
            for (int cz = 0; cz < dims[2]; ++cz) {
                const LocalBlock b = decompose(global, dims, {cx, cy, cz});
                for (int k = 0; k < b.cells.nz; ++k) {
                    for (int j = 0; j < b.cells.ny; ++j) {
                        for (int i = 0; i < b.cells.nx; ++i) {
                            const int gi = b.global_index(0, i);
                            const int gj = b.global_index(1, j);
                            const int gk = b.global_index(2, k);
                            ++hits[static_cast<std::size_t>(
                                (gk * global.ny + gj) * global.nx + gi)];
                        }
                    }
                }
            }
        }
    }
    for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Decompose, MoreRanksThanCellsThrows) {
    EXPECT_THROW((void)decompose(Extents{4, 1, 1}, {5, 1, 1}, {0, 0, 0}), Error);
    // Splitting an axis of one cell would leave this rank an empty block.
    EXPECT_THROW((void)decompose(Extents{32, 32, 1}, {1, 1, 2}, {0, 0, 1}), Error);
}

// --- storage layout ----------------------------------------------------

TEST(Layout, RowStartsAreCacheLineAligned) {
    // The padded SoA layout rounds every x-row (ghosts included) up to a
    // multiple of 8 doubles and backs the Field with 64-byte-aligned
    // storage, so each row start — the address an x-sweep vector-loads
    // from — sits on its own cache-line boundary for every (j, k).
    for (const int nx : {4, 5, 11, 16}) {
        Field f(Extents{nx, 3, 2}, 2);
        EXPECT_EQ(f.padded_row_length() % 8, 0) << "nx " << nx;
        EXPECT_GE(f.padded_row_length(), f.row_length());
        for (int k = -2; k < 4; ++k) {
            for (int j = -2; j < 5; ++j) {
                const auto addr =
                    reinterpret_cast<std::uintptr_t>(f.ptr(-2, j, k));
                EXPECT_EQ(addr % 64u, 0u)
                    << "nx " << nx << " row (" << j << ", " << k << ")";
            }
        }
    }
}

// --- halo pack/unpack -------------------------------------------------

TEST(Halo, PackUnpackRoundTrip) {
    Field f(Extents{4, 3, 1}, 2);
    for (int j = -2; j < 5; ++j) {
        for (int i = -2; i < 6; ++i) f(i, j, 0) = 10.0 * j + i;
    }
    // Slabs span the extended transverse range: 2 ghost layers x (3+4)
    // j-cells.
    std::vector<double> buf(2 * 7);
    pack_face(f, 0, +1, /*interior=*/true, buf.data());
    // High-interior band holds i = 2, 3.
    Field g(Extents{4, 3, 1}, 2);
    unpack_face(g, 0, -1, /*interior=*/false, buf.data());
    for (int j = -2; j < 5; ++j) {
        EXPECT_DOUBLE_EQ(g(-2, j, 0), f(2, j, 0));
        EXPECT_DOUBLE_EQ(g(-1, j, 0), f(3, j, 0));
    }
}

TEST(Halo, SlabSizeCountsEquationsAndExtendedGhosts) {
    StateArray s(8, Extents{16, 16, 16}, 3);
    // Transverse extent includes ghosts: (16+6)^2 cells per layer.
    EXPECT_EQ(halo_slab_doubles(s, 0), 22u * 22u * 3u * 8u);
}

TEST(Halo, SequentialExchangeFillsCorners) {
    // 2x2 periodic ranks in 2D: after per-dimension exchanges, the corner
    // ghost must hold the diagonal neighbor's interior value.
    comm::World world(4);
    world.run([&](comm::Communicator& c) {
        comm::CartComm cart(c, {2, 2, 1}, {true, true, false});
        StateArray s(1, Extents{4, 4, 1}, 2);
        for (int j = 0; j < 4; ++j) {
            for (int i = 0; i < 4; ++i) s.eq(0)(i, j, 0) = c.rank();
        }
        exchange_halos(cart, s);
        // The (-1,-1) corner belongs to the diagonal neighbor; with a 2x2
        // periodic box that is the rank at both-shifted coordinates.
        auto coords = cart.coords();
        const int diag = cart.rank_of({1 - coords[0], 1 - coords[1], 0});
        EXPECT_DOUBLE_EQ(s.eq(0)(-1, -1, 0), diag);
        EXPECT_DOUBLE_EQ(s.eq(0)(4, 4, 0), diag);
        EXPECT_DOUBLE_EQ(s.eq(0)(-2, 5, 0), diag);
    });
}

TEST(Halo, ExchangeMatchesPeriodicWrap) {
    // Two ranks, 1D periodic: after the exchange each rank's ghosts must
    // equal its neighbor's interior edge cells — the same values a serial
    // periodic wrap would produce.
    constexpr int nloc = 6;
    constexpr int ng = 2;
    comm::World world(2);
    world.run([&](comm::Communicator& c) {
        comm::CartComm cart(c, {2, 1, 1}, {true, false, false});
        StateArray s(2, Extents{nloc, 1, 1}, ng);
        const int rank = c.rank();
        for (int q = 0; q < 2; ++q) {
            for (int i = 0; i < nloc; ++i) {
                s.eq(q)(i, 0, 0) = 100.0 * q + 10.0 * rank + i;
            }
        }
        exchange_halos(cart, s);
        const int other = 1 - rank;
        for (int q = 0; q < 2; ++q) {
            // Low ghosts come from the other rank's high edge.
            EXPECT_DOUBLE_EQ(s.eq(q)(-1, 0, 0), 100.0 * q + 10.0 * other + 5);
            EXPECT_DOUBLE_EQ(s.eq(q)(-2, 0, 0), 100.0 * q + 10.0 * other + 4);
            // High ghosts from the other rank's low edge.
            EXPECT_DOUBLE_EQ(s.eq(q)(nloc, 0, 0), 100.0 * q + 10.0 * other + 0);
            EXPECT_DOUBLE_EQ(s.eq(q)(nloc + 1, 0, 0), 100.0 * q + 10.0 * other + 1);
        }
    });
}

TEST(Halo, NonPeriodicBoundaryGhostsUntouched) {
    comm::World world(2);
    world.run([&](comm::Communicator& c) {
        comm::CartComm cart(c, {2, 1, 1}, {false, false, false});
        StateArray s(1, Extents{4, 1, 1}, 1);
        s.eq(0).fill(0.0);
        for (int i = 0; i < 4; ++i) s.eq(0)(i, 0, 0) = 1.0 + c.rank();
        s.eq(0)(-1, 0, 0) = -99.0;
        s.eq(0)(4, 0, 0) = -99.0;
        exchange_halos(cart, s);
        if (c.rank() == 0) {
            EXPECT_DOUBLE_EQ(s.eq(0)(-1, 0, 0), -99.0); // physical face
            EXPECT_DOUBLE_EQ(s.eq(0)(4, 0, 0), 2.0);    // internal face
        } else {
            EXPECT_DOUBLE_EQ(s.eq(0)(-1, 0, 0), 1.0);
            EXPECT_DOUBLE_EQ(s.eq(0)(4, 0, 0), -99.0);
        }
    });
}

TEST(Halo, ThreeDimensionalExchangeAllFaces) {
    // 2x2x2 periodic box of ranks; every ghost face slab must match the
    // correct neighbor's interior band.
    constexpr int n = 4;
    comm::World world(8);
    world.run([&](comm::Communicator& c) {
        comm::CartComm cart(c, {2, 2, 2}, {true, true, true});
        StateArray s(1, Extents{n, n, n}, 1);
        // Value encodes the owning rank.
        for (int k = 0; k < n; ++k) {
            for (int j = 0; j < n; ++j) {
                for (int i = 0; i < n; ++i) s.eq(0)(i, j, k) = c.rank();
            }
        }
        exchange_halos(cart, s);
        // With 2 ranks per dim and periodicity, both neighbors along a
        // dim are the same rank.
        EXPECT_DOUBLE_EQ(s.eq(0)(-1, 1, 1), cart.neighbor(0, -1));
        EXPECT_DOUBLE_EQ(s.eq(0)(n, 1, 1), cart.neighbor(0, +1));
        EXPECT_DOUBLE_EQ(s.eq(0)(1, -1, 1), cart.neighbor(1, -1));
        EXPECT_DOUBLE_EQ(s.eq(0)(1, n, 1), cart.neighbor(1, +1));
        EXPECT_DOUBLE_EQ(s.eq(0)(1, 1, -1), cart.neighbor(2, -1));
        EXPECT_DOUBLE_EQ(s.eq(0)(1, 1, n), cart.neighbor(2, +1));
    });
}

} // namespace
} // namespace mfc
