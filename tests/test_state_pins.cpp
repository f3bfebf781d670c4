// Cross-commit state-hash pins: small cases whose final state_hash() is
// recorded as a literal, so any change that alters results bitwise fails
// here even when it regenerates its own goldens. A deliberate numerics
// change re-records the hashes (the failure message prints the new one).
//
// The characteristic-wise WENO cases cover what the golden suite never
// combines with char_decomp: orders 3 and 5 in 1D/2D/3D with HLL and
// HLLC, plus WENO-Z. The rest pin one case per component-wise kernel
// path and the adaptive-dt path, which reaches the CFL through the
// scalar mixture_sound_speed adapter.
//
// Every pin must hold at widths 1, 4 and 8 in a build for any x86-64
// level: the solver is compiled without FMA contraction, so every level
// and width computes the bits the baseline build recorded (a build that
// lets the compiler contract fails all of them).

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "simd/simd.hpp"
#include "solver/simulation.hpp"

namespace mfc {
namespace {

struct PinCase {
    std::string name;
    CaseConfig config;
    std::uint64_t hash = 0;
};

void PrintTo(const PinCase& c, std::ostream* os) { *os << c.name; }

/// Euler blast with a drifting background: a shock, a contact, and
/// rarefactions along every active direction.
CaseConfig char_blast(int dims, int order, RiemannSolverKind riemann) {
    CaseConfig c;
    c.model = ModelKind::Euler;
    c.num_fluids = 1;
    c.fluids = {{1.4, 0.0}};
    const int n = dims == 1 ? 32 : dims == 2 ? 16 : 8;
    c.grid.cells = Extents{n, dims >= 2 ? n : 1, dims == 3 ? n : 1};
    c.weno_order = order;
    c.char_decomp = true;
    c.riemann_solver = riemann;
    c.dt = 2.0e-3;
    c.t_step_stop = 4;
    for (auto& b : c.bc) b = {BcType::Extrapolation, BcType::Extrapolation};
    Patch bg;
    bg.alpha_rho = {1.0};
    bg.velocity = {0.3, -0.2, 0.1};
    bg.pressure = 1.0;
    c.patches.push_back(bg);
    Patch blast;
    blast.geometry = Patch::Geometry::Sphere;
    blast.center = {0.45, 0.55, 0.5};
    blast.radius = 0.25;
    blast.alpha_rho = {1.2};
    blast.pressure = 5.0;
    c.patches.push_back(blast);
    return c;
}

std::vector<PinCase> pin_cases() {
    using R = RiemannSolverKind;
    std::vector<PinCase> out;
    const auto add = [&](std::string name, CaseConfig c, std::uint64_t hash) {
        c.validate();
        out.push_back({std::move(name), std::move(c), hash});
    };
    // The standardized case at 10^3 with one setting changed.
    const auto standardized = [&](std::string name, std::uint64_t hash,
                                  auto edit) {
        CaseConfig c = standardized_benchmark_case(10, 3);
        edit(c);
        add(std::move(name), std::move(c), hash);
    };

    add("char_w3_1d_hll", char_blast(1, 3, R::HLL), 0x4570cb047434d8d7ull);
    add("char_w3_1d_hllc", char_blast(1, 3, R::HLLC), 0x3f546d614b133639ull);
    add("char_w3_2d_hll", char_blast(2, 3, R::HLL), 0x6c2e5bf5d8e9eb14ull);
    add("char_w3_2d_hllc", char_blast(2, 3, R::HLLC), 0xa270e93a04d16c0bull);
    add("char_w3_3d_hll", char_blast(3, 3, R::HLL), 0xcae2cb79b5bd3ac3ull);
    add("char_w3_3d_hllc", char_blast(3, 3, R::HLLC), 0x51e882f51872e1aaull);
    add("char_w5_1d_hll", char_blast(1, 5, R::HLL), 0xf153ba22e7e6908dull);
    add("char_w5_1d_hllc", char_blast(1, 5, R::HLLC), 0xe86f824f13440a3aull);
    add("char_w5_2d_hll", char_blast(2, 5, R::HLL), 0x856e4cd8500f46a8ull);
    add("char_w5_2d_hllc", char_blast(2, 5, R::HLLC), 0x43d49dbbef9ac5bfull);
    add("char_w5_3d_hll", char_blast(3, 5, R::HLL), 0x57714eb0e9d9df11ull);
    add("char_w5_3d_hllc", char_blast(3, 5, R::HLLC), 0xb36e534b5c9e9c43ull);
    CaseConfig wenoz = char_blast(2, 5, R::HLLC);
    wenoz.weno_variant = WenoVariant::Z;
    add("char_wenoz_2d_hllc", wenoz, 0x218587d4a7575626ull);

    standardized("weno5_js_hllc", 0x997dd7ad1eeaa218ull, [](CaseConfig&) {});
    standardized("weno3_hll", 0xbddca4582c15a0d4ull, [](CaseConfig& c) {
        c.weno_order = 3;
        c.riemann_solver = R::HLL;
    });
    standardized("weno_m", 0xe94ae28aff8f9f52ull,
                 [](CaseConfig& c) { c.weno_variant = WenoVariant::M; });
    standardized("weno_z", 0x5a4f1e4fac674b8aull,
                 [](CaseConfig& c) { c.weno_variant = WenoVariant::Z; });
    standardized("six_equation", 0x66f5833bcf47fc15ull,
                 [](CaseConfig& c) { c.model = ModelKind::SixEquation; });
    standardized("viscous", 0x8c587a00e7d81f89ull, [](CaseConfig& c) {
        c.viscous = true;
        c.viscosity = {1.0e-3, 2.0e-3};
    });
    standardized("igr_jacobi", 0x160f7ea1b2d506acull, [](CaseConfig& c) {
        c.igr.enabled = true;
        c.igr.order = 5;
        c.igr.alf_factor = 10.0;
        c.igr.num_iters = 4;
        c.igr.num_warm_start_iters = 4;
        c.igr.iter_solver = 1;
    });
    standardized("adaptive_dt", 0xe6ce91ee2c723729ull,
                 [](CaseConfig& c) { c.adaptive_dt = true; });
    return out;
}

class StatePins : public testing::TestWithParam<PinCase> {};

TEST_P(StatePins, HashMatchesRecorded) {
    const int prev_width = simd::width();
    for (const int w : {1, 4, 8}) {
        simd::set_width(w);
        Simulation sim(GetParam().config);
        sim.initialize();
        sim.run();
        std::ostringstream got;
        got << std::hex << "0x" << sim.state_hash() << "ull";
        EXPECT_EQ(sim.state_hash(), GetParam().hash)
            << simd::isa_label() << ": state hash is now " << got.str();
    }
    simd::set_width(prev_width);
}

INSTANTIATE_TEST_SUITE_P(Cases, StatePins, testing::ValuesIn(pin_cases()),
                         [](const testing::TestParamInfo<PinCase>& info) {
                             return info.param.name;
                         });

} // namespace
} // namespace mfc
