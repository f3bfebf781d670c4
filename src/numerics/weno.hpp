#pragma once

#include "core/error.hpp"

namespace mfc {

/// Nonlinear-weight flavors, matching MFC's mapped_weno / wenoz flags:
///  - JS: classic Jiang & Shu weights
///  - M:  mapped weights of Henrick, Aslam & Powers (2005), restoring
///        design order at critical points
///  - Z:  WENO-Z of Borges et al. (2008), tau-based global indicator
enum class WenoVariant { JS, M, Z };

/// Ghost layers WENO of `order` (MFC's weno_order = 1|3|5) needs on each
/// side: the stencil half-width r = (order-1)/2 applied to the first ghost
/// cell (whose edge values feed the boundary faces), i.e. r + 1 =
/// (order+1)/2.
[[nodiscard]] inline int weno_ghost_layers(int order) {
    MFC_REQUIRE(order == 1 || order == 3 || order == 5,
                "weno_order must be 1, 3, or 5");
    return (order + 1) / 2;
}

} // namespace mfc
