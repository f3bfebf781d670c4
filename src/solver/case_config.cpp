#include "solver/case_config.hpp"

#include <cmath>

#include "core/strings.hpp"

namespace mfc {

BcType bc_from_int(int code) {
    switch (code) {
    case -1: return BcType::Periodic;
    case -2: return BcType::Reflective;
    case -3: return BcType::Extrapolation;
    case -16: return BcType::NoSlip;
    default: fail("unknown boundary condition code: " + std::to_string(code));
    }
}

std::string to_string(BcType bc) {
    switch (bc) {
    case BcType::Periodic: return "periodic";
    case BcType::Reflective: return "reflective";
    case BcType::Extrapolation: return "extrapolation";
    case BcType::NoSlip: return "no-slip";
    }
    MFC_ASSERT(false);
}

bool Patch::contains(const GlobalGrid& grid, std::array<double, 3> x) const {
    (void)grid;
    switch (geometry) {
    case Geometry::Domain:
        return true;
    case Geometry::HalfSpace:
        return x[static_cast<std::size_t>(dir)] < position;
    case Geometry::Sphere: {
        double r2 = 0.0;
        for (int d = 0; d < 3; ++d) {
            const auto dd = static_cast<std::size_t>(d);
            // Only active dimensions contribute; inactive coordinates sit
            // at the domain mid-plane and are ignored.
            const int n = d == 0 ? grid.cells.nx : d == 1 ? grid.cells.ny : grid.cells.nz;
            if (n > 1) {
                const double delta = x[dd] - center[dd];
                r2 += delta * delta;
            }
        }
        return r2 < radius * radius;
    }
    case Geometry::Box:
        for (std::size_t d = 0; d < 3; ++d) {
            if (x[d] < lo[d] || x[d] >= hi[d]) return false;
        }
        return true;
    }
    MFC_ASSERT(false);
}

void CaseConfig::validate() const {
    MFC_REQUIRE(weno_order == 1 || weno_order == 3 || weno_order == 5,
                "weno_order must be 1, 3, or 5");
    MFC_REQUIRE(weno_eps > 0.0, "weno_eps must be positive");
    MFC_REQUIRE(num_fluids >= 1 && num_fluids <= 8, "num_fluids must be 1..8");
    MFC_REQUIRE(static_cast<int>(fluids.size()) == num_fluids,
                "fluids list size must equal num_fluids");
    for (const StiffenedGas& f : fluids) {
        MFC_REQUIRE(f.gamma() > 1.0, "fluid gamma must exceed 1");
        MFC_REQUIRE(f.pi_inf() >= 0.0, "fluid pi_inf must be non-negative");
    }
    MFC_REQUIRE(grid.cells.nx >= 1 && grid.cells.ny >= 1 && grid.cells.nz >= 1,
                "grid extents must be positive");
    MFC_REQUIRE(grid.cells.nz == 1 || grid.cells.ny > 1,
                "a 3D case requires an active y dimension (ny > 1)");
    MFC_REQUIRE(grid.cells.nx > 1, "the x dimension must be active (nx > 1)");
    for (int d = 0; d < 3; ++d) {
        MFC_REQUIRE(grid.hi[static_cast<std::size_t>(d)] >
                        grid.lo[static_cast<std::size_t>(d)],
                    "domain bounds must satisfy lo < hi");
    }
    MFC_REQUIRE(dt > 0.0, "dt must be positive");
    MFC_REQUIRE(t_step_stop >= 1, "t_step_stop must be at least 1");
    MFC_REQUIRE(cfl > 0.0 && cfl <= 1.0, "cfl must be in (0, 1]");
    if (viscous) {
        MFC_REQUIRE(static_cast<int>(viscosity.size()) == num_fluids,
                    "viscosity list size must equal num_fluids");
        bool any = false;
        for (const double mu : viscosity) {
            MFC_REQUIRE(mu >= 0.0, "viscosity must be non-negative");
            any = any || mu > 0.0;
        }
        MFC_REQUIRE(any, "viscous = T requires a positive fluid viscosity");
        MFC_REQUIRE(!igr.enabled, "viscous terms are not supported with igr");
    }
    MFC_REQUIRE(!patches.empty(), "at least one initial-condition patch required");
    for (const Patch& p : patches) {
        MFC_REQUIRE(static_cast<int>(p.alpha_rho.size()) == num_fluids,
                    "patch alpha_rho size must equal num_fluids");
        if (model != ModelKind::Euler) {
            MFC_REQUIRE(static_cast<int>(p.alpha.size()) == num_fluids,
                        "patch alpha size must equal num_fluids");
            double sum = 0.0;
            for (const double a : p.alpha) sum += a;
            MFC_REQUIRE(std::abs(sum - 1.0) < 1e-8,
                        "patch volume fractions must sum to 1");
        }
        MFC_REQUIRE(p.pressure > 0.0, "patch pressure must be positive");
    }
    for (int d = 0; d < 3; ++d) {
        const auto& b = bc[static_cast<std::size_t>(d)];
        MFC_REQUIRE((b[0] == BcType::Periodic) == (b[1] == BcType::Periodic),
                    "periodic boundaries must be paired on both sides");
    }
    MFC_REQUIRE(!char_decomp || model == ModelKind::Euler,
                "char_decomp requires the Euler model");
    MFC_REQUIRE(!char_decomp || !igr.enabled,
                "char_decomp does not apply to IGR numerics");
    for (const Monopole& m : monopoles) {
        MFC_REQUIRE(m.frequency > 0.0, "monopole frequency must be positive");
        MFC_REQUIRE(m.support > 0.0, "monopole support must be positive");
    }
    if (igr.enabled) {
        MFC_REQUIRE(igr.order == 3 || igr.order == 5, "igr_order must be 3 or 5");
        MFC_REQUIRE(igr.num_iters >= 1, "num_igr_iters must be positive");
        MFC_REQUIRE(igr.iter_solver == 1 || igr.iter_solver == 2,
                    "igr_iter_solver must be 1 or 2");
        MFC_REQUIRE(igr.alf_factor > 0.0, "alf_factor must be positive");
    }
}

namespace {

/// Dictionary consumption helper: typed reads that remove recognized keys
/// so leftovers can be reported as errors.
class DictReader {
public:
    explicit DictReader(CaseDict dict) : dict_(std::move(dict)) {}

    [[nodiscard]] bool has(const std::string& key) const {
        return dict_.count(key) > 0;
    }
    [[nodiscard]] long long take_int(const std::string& key, long long fallback) {
        const auto it = dict_.find(key);
        if (it == dict_.end()) return fallback;
        const long long v = it->second.as_int();
        dict_.erase(it);
        return v;
    }
    [[nodiscard]] double take_double(const std::string& key, double fallback) {
        const auto it = dict_.find(key);
        if (it == dict_.end()) return fallback;
        const double v = it->second.as_double();
        dict_.erase(it);
        return v;
    }
    [[nodiscard]] bool take_bool(const std::string& key, bool fallback) {
        const auto it = dict_.find(key);
        if (it == dict_.end()) return fallback;
        const bool v = it->second.as_bool();
        dict_.erase(it);
        return v;
    }
    [[nodiscard]] std::string take_string(const std::string& key,
                                          const std::string& fallback) {
        const auto it = dict_.find(key);
        if (it == dict_.end()) return fallback;
        const std::string v = it->second.to_string();
        dict_.erase(it);
        return v;
    }
    void check_empty() const {
        if (dict_.empty()) return;
        std::string keys;
        for (const auto& [k, v] : dict_) {
            if (!keys.empty()) keys += ", ";
            keys += k;
        }
        fail("unrecognized case parameters: " + keys);
    }

private:
    CaseDict dict_;
};

Patch::Geometry geometry_from_string(const std::string& s) {
    const std::string t = to_lower(s);
    if (t == "domain") return Patch::Geometry::Domain;
    if (t == "halfspace") return Patch::Geometry::HalfSpace;
    if (t == "sphere") return Patch::Geometry::Sphere;
    if (t == "box") return Patch::Geometry::Box;
    fail("unknown patch geometry: " + s);
}

std::string geometry_to_string(Patch::Geometry g) {
    switch (g) {
    case Patch::Geometry::Domain: return "domain";
    case Patch::Geometry::HalfSpace: return "halfspace";
    case Patch::Geometry::Sphere: return "sphere";
    case Patch::Geometry::Box: return "box";
    }
    MFC_ASSERT(false);
}

} // namespace

CaseConfig config_from_dict(const CaseDict& dict) {
    DictReader r(dict);
    CaseConfig c;

    c.title = r.take_string("title", c.title);
    c.model = model_from_string(r.take_string("model_eqns", "2"));
    c.num_fluids = static_cast<int>(
        r.take_int("num_fluids", c.model == ModelKind::Euler ? 1 : 2));

    c.fluids.clear();
    for (int f = 1; f <= c.num_fluids; ++f) {
        // Unspecified fluids default to an ideal diatomic gas; stiffened
        // liquids must be requested explicitly.
        const std::string base = "fluid" + std::to_string(f) + "_";
        const double gamma = r.take_double(base + "gamma", 1.4);
        const double pi_inf = r.take_double(base + "pi_inf", 0.0);
        c.fluids.emplace_back(gamma, pi_inf);
    }

    c.grid.cells.nx = static_cast<int>(r.take_int("nx", 64));
    c.grid.cells.ny = static_cast<int>(r.take_int("ny", 1));
    c.grid.cells.nz = static_cast<int>(r.take_int("nz", 1));
    c.grid.lo = {r.take_double("x_beg", 0.0), r.take_double("y_beg", 0.0),
                 r.take_double("z_beg", 0.0)};
    c.grid.hi = {r.take_double("x_end", 1.0), r.take_double("y_end", 1.0),
                 r.take_double("z_end", 1.0)};

    c.weno_order = static_cast<int>(r.take_int("weno_order", 5));
    c.weno_eps = r.take_double("weno_eps", 1.0e-16);
    const bool mapped = r.take_bool("mapped_weno", false);
    const bool wenoz = r.take_bool("wenoz", false);
    MFC_REQUIRE(!(mapped && wenoz),
                "mapped_weno and wenoz are mutually exclusive");
    c.weno_variant = mapped ? WenoVariant::M
                     : wenoz ? WenoVariant::Z
                             : WenoVariant::JS;
    c.char_decomp = r.take_bool("char_decomp", false);
    c.riemann_solver =
        riemann_from_int(static_cast<int>(r.take_int("riemann_solver", 2)));
    c.time_stepper =
        stepper_from_int(static_cast<int>(r.take_int("time_stepper", 3)));

    c.igr.enabled = r.take_bool("igr", false);
    c.igr.order = static_cast<int>(r.take_int("igr_order", 5));
    c.igr.alf_factor = r.take_double("alf_factor", 10.0);
    c.igr.num_iters = static_cast<int>(r.take_int("num_igr_iters", 10));
    c.igr.num_warm_start_iters =
        static_cast<int>(r.take_int("num_igr_warm_start_iters", 10));
    c.igr.iter_solver = static_cast<int>(r.take_int("igr_iter_solver", 1));

    c.dt = r.take_double("dt", 1.0e-4);
    c.t_step_stop = static_cast<int>(r.take_int("t_step_stop", 10));
    c.adaptive_dt = r.take_bool("adaptive_dt", false);
    c.cfl = r.take_double("cfl", 0.3);

    c.viscous = r.take_bool("viscous", false);
    c.viscosity.assign(static_cast<std::size_t>(c.num_fluids), 0.0);
    for (int f = 1; f <= c.num_fluids; ++f) {
        c.viscosity[static_cast<std::size_t>(f - 1)] = r.take_double(
            "fluid" + std::to_string(f) + "_viscosity", 0.0);
    }
    c.gravity = {r.take_double("gravity_x", 0.0), r.take_double("gravity_y", 0.0),
                 r.take_double("gravity_z", 0.0)};

    const int num_monopoles = static_cast<int>(r.take_int("num_monopoles", 0));
    for (int m = 1; m <= num_monopoles; ++m) {
        const std::string base = "mono" + std::to_string(m) + "_";
        CaseConfig::Monopole mono;
        mono.location = {r.take_double(base + "loc_x", 0.5),
                         r.take_double(base + "loc_y", 0.5),
                         r.take_double(base + "loc_z", 0.5)};
        mono.magnitude = r.take_double(base + "mag", 1.0);
        mono.frequency = r.take_double(base + "freq", 1.0);
        mono.support = r.take_double(base + "support", 0.1);
        c.monopoles.push_back(mono);
    }

    const char* dirs[3] = {"x", "y", "z"};
    for (int d = 0; d < 3; ++d) {
        const std::string base = std::string("bc_") + dirs[d] + "_";
        c.bc[static_cast<std::size_t>(d)][0] =
            bc_from_int(static_cast<int>(r.take_int(base + "beg", -1)));
        c.bc[static_cast<std::size_t>(d)][1] =
            bc_from_int(static_cast<int>(r.take_int(base + "end", -1)));
    }

    c.rdma_mpi = r.take_bool("rdma_mpi", false);
    c.case_optimization = r.take_bool("case_optimization", false);

    const int num_patches = static_cast<int>(r.take_int("num_patches", 0));
    for (int p = 1; p <= num_patches; ++p) {
        const std::string base = "patch" + std::to_string(p) + "_";
        Patch patch;
        patch.geometry = geometry_from_string(r.take_string(base + "geometry", "domain"));
        patch.dir = static_cast<int>(r.take_int(base + "dir", 0));
        patch.position = r.take_double(base + "position", 0.5);
        patch.center = {r.take_double(base + "center_x", 0.5),
                        r.take_double(base + "center_y", 0.5),
                        r.take_double(base + "center_z", 0.5)};
        patch.radius = r.take_double(base + "radius", 0.25);
        patch.lo = {r.take_double(base + "lo_x", 0.0),
                    r.take_double(base + "lo_y", 0.0),
                    r.take_double(base + "lo_z", 0.0)};
        patch.hi = {r.take_double(base + "hi_x", 1.0),
                    r.take_double(base + "hi_y", 1.0),
                    r.take_double(base + "hi_z", 1.0)};
        patch.velocity = {r.take_double(base + "vel_x", 0.0),
                          r.take_double(base + "vel_y", 0.0),
                          r.take_double(base + "vel_z", 0.0)};
        patch.pressure = r.take_double(base + "pressure", 1.0);
        for (int f = 1; f <= c.num_fluids; ++f) {
            patch.alpha_rho.push_back(
                r.take_double(base + "alpha_rho" + std::to_string(f), 1.0));
        }
        if (c.model != ModelKind::Euler) {
            for (int f = 1; f <= c.num_fluids; ++f) {
                patch.alpha.push_back(
                    r.take_double(base + "alpha" + std::to_string(f),
                                  f == 1 ? 1.0 : 0.0));
            }
        }
        c.patches.push_back(std::move(patch));
    }

    r.check_empty();
    c.validate();
    return c;
}

CaseDict dict_from_config(const CaseConfig& c) {
    CaseDict d;
    d["title"] = c.title;
    d["model_eqns"] = to_string(c.model);
    d["num_fluids"] = static_cast<long long>(c.num_fluids);
    for (int f = 1; f <= c.num_fluids; ++f) {
        const std::string base = "fluid" + std::to_string(f) + "_";
        d[base + "gamma"] = c.fluids[static_cast<std::size_t>(f - 1)].gamma();
        d[base + "pi_inf"] = c.fluids[static_cast<std::size_t>(f - 1)].pi_inf();
    }
    d["nx"] = static_cast<long long>(c.grid.cells.nx);
    d["ny"] = static_cast<long long>(c.grid.cells.ny);
    d["nz"] = static_cast<long long>(c.grid.cells.nz);
    d["x_beg"] = c.grid.lo[0];
    d["y_beg"] = c.grid.lo[1];
    d["z_beg"] = c.grid.lo[2];
    d["x_end"] = c.grid.hi[0];
    d["y_end"] = c.grid.hi[1];
    d["z_end"] = c.grid.hi[2];
    d["weno_order"] = static_cast<long long>(c.weno_order);
    d["weno_eps"] = c.weno_eps;
    if (c.weno_variant == WenoVariant::M) d["mapped_weno"] = true;
    if (c.weno_variant == WenoVariant::Z) d["wenoz"] = true;
    if (c.char_decomp) d["char_decomp"] = true;
    d["riemann_solver"] = static_cast<long long>(c.riemann_solver);
    d["time_stepper"] = static_cast<long long>(c.time_stepper);
    if (c.igr.enabled) {
        d["igr"] = true;
        d["igr_order"] = static_cast<long long>(c.igr.order);
        d["alf_factor"] = c.igr.alf_factor;
        d["num_igr_iters"] = static_cast<long long>(c.igr.num_iters);
        d["num_igr_warm_start_iters"] =
            static_cast<long long>(c.igr.num_warm_start_iters);
        d["igr_iter_solver"] = static_cast<long long>(c.igr.iter_solver);
    }
    d["dt"] = c.dt;
    d["t_step_stop"] = static_cast<long long>(c.t_step_stop);
    if (c.adaptive_dt) {
        d["adaptive_dt"] = true;
        d["cfl"] = c.cfl;
    }
    if (c.viscous) {
        d["viscous"] = true;
        for (int f = 1; f <= c.num_fluids; ++f) {
            d["fluid" + std::to_string(f) + "_viscosity"] =
                c.viscosity[static_cast<std::size_t>(f - 1)];
        }
    }
    if (c.gravity != std::array<double, 3>{0.0, 0.0, 0.0}) {
        d["gravity_x"] = c.gravity[0];
        d["gravity_y"] = c.gravity[1];
        d["gravity_z"] = c.gravity[2];
    }
    if (!c.monopoles.empty()) {
        d["num_monopoles"] = static_cast<long long>(c.monopoles.size());
        for (std::size_t m = 0; m < c.monopoles.size(); ++m) {
            const std::string base = "mono" + std::to_string(m + 1) + "_";
            d[base + "loc_x"] = c.monopoles[m].location[0];
            d[base + "loc_y"] = c.monopoles[m].location[1];
            d[base + "loc_z"] = c.monopoles[m].location[2];
            d[base + "mag"] = c.monopoles[m].magnitude;
            d[base + "freq"] = c.monopoles[m].frequency;
            d[base + "support"] = c.monopoles[m].support;
        }
    }
    const char* dirs[3] = {"x", "y", "z"};
    for (int dd = 0; dd < 3; ++dd) {
        const std::string base = std::string("bc_") + dirs[dd] + "_";
        d[base + "beg"] = static_cast<long long>(c.bc[static_cast<std::size_t>(dd)][0]);
        d[base + "end"] = static_cast<long long>(c.bc[static_cast<std::size_t>(dd)][1]);
    }
    if (c.rdma_mpi) d["rdma_mpi"] = true;
    if (c.case_optimization) d["case_optimization"] = true;
    d["num_patches"] = static_cast<long long>(c.patches.size());
    for (std::size_t p = 0; p < c.patches.size(); ++p) {
        const Patch& patch = c.patches[p];
        const std::string base = "patch" + std::to_string(p + 1) + "_";
        d[base + "geometry"] = geometry_to_string(patch.geometry);
        d[base + "dir"] = static_cast<long long>(patch.dir);
        d[base + "position"] = patch.position;
        d[base + "center_x"] = patch.center[0];
        d[base + "center_y"] = patch.center[1];
        d[base + "center_z"] = patch.center[2];
        d[base + "radius"] = patch.radius;
        d[base + "lo_x"] = patch.lo[0];
        d[base + "lo_y"] = patch.lo[1];
        d[base + "lo_z"] = patch.lo[2];
        d[base + "hi_x"] = patch.hi[0];
        d[base + "hi_y"] = patch.hi[1];
        d[base + "hi_z"] = patch.hi[2];
        d[base + "vel_x"] = patch.velocity[0];
        d[base + "vel_y"] = patch.velocity[1];
        d[base + "vel_z"] = patch.velocity[2];
        d[base + "pressure"] = patch.pressure;
        for (int f = 1; f <= c.num_fluids; ++f) {
            d[base + "alpha_rho" + std::to_string(f)] =
                patch.alpha_rho[static_cast<std::size_t>(f - 1)];
            if (c.model != ModelKind::Euler) {
                d[base + "alpha" + std::to_string(f)] =
                    patch.alpha[static_cast<std::size_t>(f - 1)];
            }
        }
    }
    return d;
}

CaseConfig standardized_benchmark_case(int cells_per_dim, int t_step_stop) {
    MFC_REQUIRE(cells_per_dim >= 8, "standardized case needs >= 8 cells/dim");
    CaseConfig c;
    c.title = "3D_performance_test";
    c.model = ModelKind::FiveEquation;
    c.num_fluids = 2;
    // Fluid 1: stiffened water; fluid 2: ideal-gas air.
    c.fluids = {{4.4, 6000.0}, {1.4, 0.0}};
    c.grid.cells = Extents{cells_per_dim, cells_per_dim, cells_per_dim};
    c.grid.lo = {0.0, 0.0, 0.0};
    c.grid.hi = {1.0, 1.0, 1.0};
    c.weno_order = 5;
    c.riemann_solver = RiemannSolverKind::HLLC;
    c.time_stepper = TimeStepper::RK3;
    // Water sound speed ~ sqrt(4.4 * 6001 / 1000) ~ 5.1; shocked state adds
    // ~O(1) velocity, so dt scales with dx to hold CFL ~ 0.3.
    c.dt = 5.0e-4 * 64.0 / static_cast<double>(cells_per_dim);
    c.t_step_stop = t_step_stop;
    for (auto& b : c.bc) b = {BcType::Extrapolation, BcType::Extrapolation};

    const double eps = 1.0e-6;
    // Background: quiescent water at ambient pressure.
    Patch background;
    background.geometry = Patch::Geometry::Domain;
    background.alpha_rho = {1000.0 * (1.0 - eps), 1.0 * eps};
    background.alpha = {1.0 - eps, eps};
    background.pressure = 1.0;
    c.patches.push_back(background);

    // Planar shock in the water moving in +x.
    Patch shock;
    shock.geometry = Patch::Geometry::HalfSpace;
    shock.dir = 0;
    shock.position = 0.25;
    shock.alpha_rho = {1250.0 * (1.0 - eps), 1.0 * eps};
    shock.alpha = {1.0 - eps, eps};
    shock.pressure = 1000.0;
    shock.velocity = {1.0, 0.0, 0.0};
    c.patches.push_back(shock);

    // Air bubble ahead of the shock.
    Patch bubble;
    bubble.geometry = Patch::Geometry::Sphere;
    bubble.center = {0.5, 0.5, 0.5};
    bubble.radius = 0.15;
    bubble.alpha_rho = {1000.0 * eps, 1.0 * (1.0 - eps)};
    bubble.alpha = {eps, 1.0 - eps};
    bubble.pressure = 1.0;
    c.patches.push_back(bubble);

    c.validate();
    return c;
}

} // namespace mfc
