#include "toolchain/case_generators.hpp"

#include "core/error.hpp"

namespace mfc::toolchain {

namespace {

constexpr double kEps = 1.0e-6;

void set_two_fluid_state(CaseDict& d, const std::string& base, double rho1,
                         double rho2, double a1, double pressure) {
    d[base + "alpha_rho1"] = rho1 * a1;
    d[base + "alpha_rho2"] = rho2 * (1.0 - a1);
    d[base + "alpha1"] = a1;
    d[base + "alpha2"] = 1.0 - a1;
    d[base + "pressure"] = pressure;
}

} // namespace

CaseDict base_case_dict(int dims) {
    MFC_REQUIRE(dims >= 1 && dims <= 3, "base_case_dict: dims must be 1..3");
    CaseDict d;
    switch (dims) {
    case 1:
        d["nx"] = 32;
        d["ny"] = 1;
        d["nz"] = 1;
        break;
    case 2:
        d["nx"] = 16;
        d["ny"] = 16;
        d["nz"] = 1;
        break;
    case 3:
        d["nx"] = 10;
        d["ny"] = 10;
        d["nz"] = 10;
        break;
    }
    d["dt"] = 1.0e-3;
    d["t_step_stop"] = 4;
    const char* dirs[3] = {"x", "y", "z"};
    for (int dd = 0; dd < 3; ++dd) {
        d[std::string("bc_") + dirs[dd] + "_beg"] = -3;
        d[std::string("bc_") + dirs[dd] + "_end"] = -3;
    }
    return d;
}

CaseDict model_params(const std::string& model) {
    CaseDict d;
    if (model == "euler") {
        d["model_eqns"] = std::string("euler");
        d["num_fluids"] = 1;
        d["fluid1_gamma"] = 1.4;
        d["fluid1_pi_inf"] = 0.0;
        return d;
    }
    if (model == "5eqn" || model == "6eqn") {
        d["model_eqns"] = model;
        d["num_fluids"] = 2;
        d["fluid1_gamma"] = 1.4;
        d["fluid1_pi_inf"] = 0.0;
        d["fluid2_gamma"] = 1.6;
        d["fluid2_pi_inf"] = 0.0;
        return d;
    }
    if (model == "5eqn-3fluid") {
        d["model_eqns"] = std::string("5eqn");
        d["num_fluids"] = 3;
        d["fluid1_gamma"] = 1.4;
        d["fluid1_pi_inf"] = 0.0;
        d["fluid2_gamma"] = 1.6;
        d["fluid2_pi_inf"] = 0.0;
        d["fluid3_gamma"] = 1.9;
        d["fluid3_pi_inf"] = 0.0;
        return d;
    }
    fail("model_params: unknown model '" + model + "'");
}

CaseDict ic_params(const std::string& model, int dims,
                   const std::string& variant) {
    CaseDict d;
    const bool euler = model == "euler";

    if (model == "5eqn-3fluid") {
        MFC_REQUIRE(variant == "halfspace", "3-fluid IC supports halfspace only");
        d["num_patches"] = 3;
        // Background: fluid 1.
        d["patch1_geometry"] = std::string("domain");
        d["patch1_alpha_rho1"] = 1.0 * (1.0 - 2.0 * kEps);
        d["patch1_alpha_rho2"] = 0.5 * kEps;
        d["patch1_alpha_rho3"] = 0.25 * kEps;
        d["patch1_alpha1"] = 1.0 - 2.0 * kEps;
        d["patch1_alpha2"] = kEps;
        d["patch1_alpha3"] = kEps;
        d["patch1_pressure"] = 1.0;
        // Middle band: fluid 2, lower pressure.
        d["patch2_geometry"] = std::string("box");
        d["patch2_lo_x"] = 0.35;
        d["patch2_hi_x"] = 0.65;
        d["patch2_alpha_rho1"] = 1.0 * kEps;
        d["patch2_alpha_rho2"] = 0.5 * (1.0 - 2.0 * kEps);
        d["patch2_alpha_rho3"] = 0.25 * kEps;
        d["patch2_alpha1"] = kEps;
        d["patch2_alpha2"] = 1.0 - 2.0 * kEps;
        d["patch2_alpha3"] = kEps;
        d["patch2_pressure"] = 0.6;
        // Left slab: fluid 3, driven.
        d["patch3_geometry"] = std::string("halfspace");
        d["patch3_dir"] = 0;
        d["patch3_position"] = 0.15;
        d["patch3_alpha_rho1"] = 1.0 * kEps;
        d["patch3_alpha_rho2"] = 0.5 * kEps;
        d["patch3_alpha_rho3"] = 0.25 * (1.0 - 2.0 * kEps);
        d["patch3_alpha1"] = kEps;
        d["patch3_alpha2"] = kEps;
        d["patch3_alpha3"] = 1.0 - 2.0 * kEps;
        d["patch3_pressure"] = 1.5;
        return d;
    }

    const auto light_state = [&](const std::string& base) {
        if (euler) {
            d[base + "alpha_rho1"] = 0.125;
            d[base + "pressure"] = 0.1;
        } else {
            set_two_fluid_state(d, base, 1.0, 0.5, kEps, 0.5);
        }
    };
    const auto heavy_state = [&](const std::string& base) {
        if (euler) {
            d[base + "alpha_rho1"] = 1.0;
            d[base + "pressure"] = 1.0;
        } else {
            set_two_fluid_state(d, base, 1.0, 0.5, 1.0 - kEps, 1.0);
        }
    };

    if (variant == "halfspace" || variant == "moving") {
        d["num_patches"] = 2;
        d["patch1_geometry"] = std::string("domain");
        light_state("patch1_");
        d["patch2_geometry"] = std::string("halfspace");
        d["patch2_dir"] = 0;
        d["patch2_position"] = 0.5;
        heavy_state("patch2_");
        if (variant == "moving") {
            d["patch1_vel_x"] = 0.5;
            d["patch2_vel_x"] = 0.5;
        }
        return d;
    }
    if (variant == "sphere") {
        MFC_REQUIRE(dims >= 2, "sphere IC requires 2D or 3D");
        d["num_patches"] = 2;
        d["patch1_geometry"] = std::string("domain");
        heavy_state("patch1_");
        d["patch2_geometry"] = std::string("sphere");
        d["patch2_center_x"] = 0.5;
        d["patch2_center_y"] = 0.5;
        d["patch2_center_z"] = 0.5;
        d["patch2_radius"] = 0.25;
        light_state("patch2_");
        return d;
    }
    if (variant == "box") {
        d["num_patches"] = 2;
        d["patch1_geometry"] = std::string("domain");
        heavy_state("patch1_");
        d["patch2_geometry"] = std::string("box");
        d["patch2_lo_x"] = 0.3;
        d["patch2_hi_x"] = 0.7;
        light_state("patch2_");
        return d;
    }
    fail("ic_params: unknown variant '" + variant + "'");
}

void alter_igr(CaseStack& stack, CaseList& cases) {
    // Listing 2, line for line.
    stack.push("IGR", {{"igr", Value(true)},
                       {"alf_factor", Value(10)},
                       {"num_igr_iters", Value(10)},
                       {"num_igr_warm_start_iters", Value(10)}});
    for (const int order : {3, 5}) {
        stack.push("igr_order=" + std::to_string(order),
                   {{"igr_order", Value(order)}});
        cases.push_back(define_case_d(stack, "Jacobi", {{"igr_iter_solver", Value(1)}}));
        if (order == 5) {
            cases.push_back(
                define_case_d(stack, "Gauss Seidel", {{"igr_iter_solver", Value(2)}}));
        }
        stack.pop();
    }
    stack.pop();
}

void alter_weno(CaseStack& stack, CaseList& cases) {
    for (const int order : {1, 3, 5}) {
        stack.push("weno_order=" + std::to_string(order),
                   {{"weno_order", Value(order)}});
        cases.push_back(define_case_d(stack, "weno_eps=1e-16",
                                      {{"weno_eps", Value(1.0e-16)}}));
        if (order > 1) {
            cases.push_back(define_case_d(stack, "weno_eps=1e-6",
                                          {{"weno_eps", Value(1.0e-6)}}));
            cases.push_back(define_case_d(stack, "mapped_weno",
                                          {{"mapped_weno", Value(true)}}));
            cases.push_back(
                define_case_d(stack, "wenoz", {{"wenoz", Value(true)}}));
        }
        stack.pop();
    }
}

void alter_char_decomp(CaseStack& stack, CaseList& cases, int dims) {
    // Characteristic-wise WENO (Euler only): sweep reconstruction orders.
    stack.push("euler", model_params("euler"));
    stack.push("IC=halfspace", ic_params("euler", dims, "halfspace"));
    stack.push("char_decomp", {{"char_decomp", Value(true)}});
    for (const int order : {3, 5}) {
        cases.push_back(define_case_d(stack,
                                      "weno_order=" + std::to_string(order),
                                      {{"weno_order", Value(order)}}));
    }
    stack.pop();
    stack.pop();
    stack.pop();
}

void alter_monopole(CaseStack& stack, CaseList& cases) {
    stack.push("Monopole", {{"num_monopoles", Value(1)},
                            {"mono1_loc_x", Value(0.5)},
                            {"mono1_mag", Value(2.0)},
                            {"mono1_support", Value(0.08)}});
    for (const double freq : {5.0, 20.0}) {
        cases.push_back(define_case_d(stack, "freq=" + Value(freq).to_string(),
                                      {{"mono1_freq", Value(freq)}}));
    }
    stack.pop();
}

void alter_riemann(CaseStack& stack, CaseList& cases) {
    cases.push_back(define_case_d(stack, "HLL", {{"riemann_solver", Value(1)}}));
    cases.push_back(define_case_d(stack, "HLLC", {{"riemann_solver", Value(2)}}));
}

void alter_time_steppers(CaseStack& stack, CaseList& cases) {
    for (const int ts : {1, 2, 3}) {
        cases.push_back(define_case_d(stack, "time_stepper=" + std::to_string(ts),
                                      {{"time_stepper", Value(ts)}}));
    }
}

void alter_bcs(CaseStack& stack, CaseList& cases, int dims) {
    const char* names[3] = {"x", "y", "z"};
    struct BcPair {
        int beg;
        int end;
        const char* label;
    };
    const BcPair pairs[] = {{-1, -1, "periodic"},
                            {-2, -2, "reflective"},
                            {-3, -3, "extrapolation"},
                            {-16, -16, "no-slip"},
                            {-2, -3, "reflective/extrapolation"},
                            {-3, -2, "extrapolation/reflective"}};
    for (int d = 0; d < dims; ++d) {
        const std::string base = std::string("bc_") + names[d] + "_";
        for (const BcPair& p : pairs) {
            CaseDict extra;
            extra.emplace(base + "beg", p.beg);
            extra.emplace(base + "end", p.end);
            cases.push_back(define_case_d(
                stack, std::string("bc_") + names[d] + "=" + p.label, extra));
        }
    }
}

void alter_fluids(CaseStack& stack, CaseList& cases) {
    cases.push_back(define_case_d(stack, "gamma=1.4/1.6", {}));
    cases.push_back(define_case_d(stack, "gamma=1.4/1.1",
                                  {{"fluid2_gamma", Value(1.1)}}));
    cases.push_back(define_case_d(stack, "gamma=1.67/1.4",
                                  {{"fluid1_gamma", Value(1.67)},
                                   {"fluid2_gamma", Value(1.4)}}));
    // Stiffened liquid: higher sound speed demands a smaller step.
    cases.push_back(define_case_d(stack, "stiffened",
                                  {{"fluid1_gamma", Value(4.4)},
                                   {"fluid1_pi_inf", Value(10.0)},
                                   {"dt", Value(2.0e-4)}}));
}

void alter_feature_matrix(CaseStack& stack, CaseList& cases, int dims) {
    const std::vector<std::string> models = {"euler", "5eqn", "6eqn"};
    std::vector<std::string> ics = {"halfspace", "moving"};
    if (dims >= 2) ics.emplace_back("sphere");
    for (const std::string& model : models) {
        stack.push(model, model_params(model));
        for (const std::string& ic : ics) {
            stack.push("IC=" + ic, ic_params(model, dims, ic));
            for (const int order : {1, 3, 5}) {
                stack.push("weno_order=" + std::to_string(order),
                           {{"weno_order", Value(order)}});
                for (const int rs : {1, 2}) {
                    for (const int ts : {1, 2, 3}) {
                        cases.push_back(define_case_d(
                            stack,
                            std::string(rs == 1 ? "HLL" : "HLLC") +
                                " -> time_stepper=" + std::to_string(ts),
                            {{"riemann_solver", Value(rs)},
                             {"time_stepper", Value(ts)}}));
                    }
                }
                stack.pop();
            }
            stack.pop();
        }
        stack.pop();
    }
}

void alter_viscosity(CaseStack& stack, CaseList& cases) {
    stack.push("viscous", {{"viscous", Value(true)}});
    for (const double mu : {0.01, 0.05}) {
        stack.push("mu=" + Value(mu).to_string(),
                   {{"fluid1_viscosity", Value(mu)},
                    {"fluid2_viscosity", Value(0.5 * mu)}});
        for (const int order : {3, 5}) {
            cases.push_back(define_case_d(stack,
                                          "weno_order=" + std::to_string(order),
                                          {{"weno_order", Value(order)}}));
        }
        stack.pop();
    }
    stack.pop();
}

void alter_gravity(CaseStack& stack, CaseList& cases, int dims) {
    const char* names[3] = {"x", "y", "z"};
    for (int d = 0; d < dims; ++d) {
        const std::string key = std::string("gravity_") + names[d];
        cases.push_back(
            define_case_d(stack, key + "=0.5", {{key, Value(0.5)}}));
        cases.push_back(
            define_case_d(stack, key + "=-0.5", {{key, Value(-0.5)}}));
    }
}

void alter_adaptive_dt(CaseStack& stack, CaseList& cases) {
    stack.push("adaptive_dt", {{"adaptive_dt", Value(true)}});
    for (const double cfl : {0.2, 0.4}) {
        cases.push_back(define_case_d(stack, "cfl=" + Value(cfl).to_string(),
                                      {{"cfl", Value(cfl)}}));
    }
    stack.pop();
}

void alter_num_fluids(CaseStack& stack, CaseList& cases) {
    stack.push("num_fluids=3", model_params("5eqn-3fluid"));
    stack.push("IC=3fluid", ic_params("5eqn-3fluid", 1, "halfspace"));
    cases.push_back(define_case_d(stack, "HLLC", {{"riemann_solver", Value(2)}}));
    cases.push_back(define_case_d(stack, "HLL", {{"riemann_solver", Value(1)}}));
    stack.pop();
    stack.pop();
}

CaseList generate_full_suite() {
    CaseList cases;
    for (int dims = 1; dims <= 3; ++dims) {
        CaseStack stack(base_case_dict(dims));
        stack.push(std::to_string(dims) + "D", {});

        // Single-feature sweeps under the default two-fluid shock tube.
        stack.push("5eqn", model_params("5eqn"));
        stack.push("IC=halfspace", ic_params("5eqn", dims, "halfspace"));
        alter_weno(stack, cases);
        alter_riemann(stack, cases);
        alter_time_steppers(stack, cases);
        alter_bcs(stack, cases, dims);
        alter_fluids(stack, cases);
        alter_num_fluids(stack, cases);
        alter_viscosity(stack, cases);
        alter_gravity(stack, cases, dims);
        alter_adaptive_dt(stack, cases);
        alter_monopole(stack, cases);

        // IGR (Listing 2) under two time-step contexts — six unique base
        // stacks across the three dimensionalities.
        for (const double dt : {1.0e-3, 5.0e-4}) {
            stack.push("dt=" + Value(dt).to_string(), {{"dt", Value(dt)}});
            alter_igr(stack, cases);
            stack.pop();
        }
        stack.pop(); // IC
        stack.pop(); // model

        // Characteristic-wise reconstruction (Euler-only feature).
        alter_char_decomp(stack, cases, dims);

        // Numerics-by-model-by-IC feature matrix.
        alter_feature_matrix(stack, cases, dims);

        stack.pop(); // dims
    }
    return cases;
}

} // namespace mfc::toolchain
