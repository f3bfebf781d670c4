#include "physics/model.hpp"

#include "core/strings.hpp"
#include "physics/vec_kernels.hpp"

namespace mfc {

std::string to_string(ModelKind m) {
    switch (m) {
    case ModelKind::Euler: return "euler";
    case ModelKind::FiveEquation: return "5eqn";
    case ModelKind::SixEquation: return "6eqn";
    }
    MFC_ASSERT(false);
}

ModelKind model_from_string(const std::string& s) {
    const std::string t = to_lower(s);
    if (t == "euler" || t == "1") return ModelKind::Euler;
    if (t == "5eqn" || t == "2") return ModelKind::FiveEquation;
    if (t == "6eqn" || t == "3") return ModelKind::SixEquation;
    fail("unknown model: " + s);
}

EquationLayout::EquationLayout(ModelKind model, int num_fluids, int dims)
    : model_(model), nf_(num_fluids), dims_(dims) {
    MFC_REQUIRE(dims >= 1 && dims <= 3, "EquationLayout: dims must be 1..3");
    switch (model) {
    case ModelKind::Euler:
        MFC_REQUIRE(num_fluids == 1, "Euler model requires num_fluids = 1");
        num_adv_ = 0;
        break;
    case ModelKind::FiveEquation:
    case ModelKind::SixEquation:
        MFC_REQUIRE(num_fluids >= 2, "two-phase models require num_fluids >= 2");
        num_adv_ = num_fluids;
        break;
    }
    num_eqns_ = nf_ + dims_ + 1 + num_adv_ +
                (model == ModelKind::SixEquation ? nf_ : 0);
}

namespace {

constexpr int kMaxEqns = 16;

using V1 = simd::vd<1>;

/// Copy a num_eqns()-entry point into W = 1 kernel lanes.
void load_point(const EquationLayout& lay, const double* src, V1* dst) {
    MFC_REQUIRE(lay.num_eqns() <= kMaxEqns, "too many equations");
    for (int q = 0; q < lay.num_eqns(); ++q) dst[q] = src[q];
}

void store_point(const EquationLayout& lay, const V1* src, double* dst) {
    for (int q = 0; q < lay.num_eqns(); ++q) dst[q] = src[q].v;
}

} // namespace

double mixture_density(const EquationLayout& lay, const double* prim) {
    V1 p[kMaxEqns];
    load_point(lay, prim, p);
    return mixture_density_v<1>(lay, p).v;
}

double mixture_sound_speed(const EquationLayout& lay,
                           const std::vector<StiffenedGas>& fluids,
                           const double* prim) {
    V1 p[kMaxEqns];
    load_point(lay, prim, p);
    const double c = mixture_sound_speed_v<1>(lay, fluids, p).v;
    MFC_DBG_ASSERT(c > 0.0); // c^2 > 0: a physical state
    return c;
}

void cons_to_prim(const EquationLayout& lay,
                  const std::vector<StiffenedGas>& fluids, const double* cons,
                  double* prim) {
    V1 c[kMaxEqns], p[kMaxEqns];
    load_point(lay, cons, c);
    MFC_DBG_ASSERT(mixture_density_v<1>(lay, c).v > 0.0);
    cons_to_prim_v<1>(lay, fluids, c, p);
    store_point(lay, p, prim);
}

void prim_to_cons(const EquationLayout& lay,
                  const std::vector<StiffenedGas>& fluids, const double* prim,
                  double* cons) {
    V1 p[kMaxEqns], c[kMaxEqns];
    load_point(lay, prim, p);
    prim_to_cons_v<1>(lay, fluids, p, c);
    store_point(lay, c, cons);
}

} // namespace mfc
