#include "grid/grid.hpp"

#include <algorithm>

namespace mfc {

namespace {

void split(int n, int p, int coord, int& local, int& offset) {
    MFC_REQUIRE(p >= 1 && coord >= 0 && coord < p, "decompose: bad coords");
    MFC_REQUIRE(n >= p, "decompose: more ranks than cells");
    const int base = n / p;
    const int extra = n % p;
    local = base + (coord < extra ? 1 : 0);
    offset = coord * base + std::min(coord, extra);
}

} // namespace

LocalBlock decompose(const Extents& global, const std::array<int, 3>& dims,
                     const std::array<int, 3>& coords) {
    LocalBlock b;
    split(global.nx, dims[0], coords[0], b.cells.nx, b.offset[0]);
    split(global.ny, dims[1], coords[1], b.cells.ny, b.offset[1]);
    split(global.nz, dims[2], coords[2], b.cells.nz, b.offset[2]);
    return b;
}

} // namespace mfc
