#include "toolchain/bench_suite.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <thread>
#include <utility>

#include <unistd.h>

#include "core/error.hpp"
#include "exec/exec.hpp"
#include "perf/ubench.hpp"
#include "resilience/chaos.hpp"
#include "simd/simd.hpp"
#include "solver/launch.hpp"
#include "telemetry/report.hpp"

namespace mfc::toolchain {

namespace {

/// Approximate state memory per cell: the solver holds the conservative
/// state, two Runge-Kutta scratch copies, and primitives (4 arrays of
/// num_eqns doubles), plus ghost-layer overhead.
double bytes_per_cell(int num_eqns) { return 48.0 * num_eqns; }

int edge_from_memory(double mem_gb, int num_eqns) {
    const double cells = mem_gb * 1.0e9 / bytes_per_cell(num_eqns);
    const int edge = static_cast<int>(std::cbrt(std::max(cells, 1.0)));
    return std::max(edge, 8);
}

} // namespace

BenchSuite::BenchSuite(double mem_per_rank_gb, int ranks, BenchOptions options)
    : mem_gb_(mem_per_rank_gb), ranks_(ranks), options_(std::move(options)) {
    MFC_REQUIRE(mem_per_rank_gb > 0.0, "bench: --mem must be positive");
    MFC_REQUIRE(ranks >= 1, "bench: -n must be positive");
    MFC_REQUIRE(options_.warmup_steps >= 0,
                "bench: warm-up steps must be non-negative");
    MFC_REQUIRE(options_.threads >= 1, "bench: --threads must be positive");
    for (const auto& [r, t] : options_.rank_thread_grid) {
        MFC_REQUIRE(r >= 1 && t >= 1,
                    "bench: --ranks-threads entries must be positive RxT");
    }
}

std::vector<std::pair<int, int>> auto_rank_thread_grid() {
    const int budget =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    std::vector<std::pair<int, int>> grid;
    for (int r = 1; r <= budget; r *= 2) {
        for (int t = 1; r * t <= budget; t *= 2) {
            grid.emplace_back(r, t);
        }
    }
    return grid;
}

const std::vector<std::string>& BenchSuite::case_names() {
    static const std::vector<std::string> names = {
        "5eq_weno5_hllc",  // the standardized two-phase configuration
        "euler_weno5_hllc", // single-fluid Euler
        "6eq_weno5_hllc",  // six-equation model with pressure relaxation
        "5eq_weno3_hll",   // low-order alternative numerics
        "igr_jacobi",      // IGR regularized central scheme
    };
    return names;
}

CaseConfig BenchSuite::case_config(const std::string& name) const {
    return case_config_sized(name, ranks_);
}

CaseConfig BenchSuite::case_config_sized(const std::string& name,
                                         int ranks) const {
    // The per-rank memory target fixes the local block edge; the global
    // grid scales with the rank count, keeping memory per rank constant
    // ("automatically scales to any number of MPI ranks", Section 5).
    const int base_eqns = 8;
    int edge = edge_from_memory(mem_gb_, base_eqns);
    const double rank_scale = std::cbrt(static_cast<double>(ranks));
    edge = std::max(8, static_cast<int>(edge * rank_scale));

    CaseConfig c = standardized_benchmark_case(edge, /*t_step_stop=*/5);
    c.title = name;
    if (name == "5eq_weno5_hllc") return c;
    if (name == "euler_weno5_hllc") {
        c.model = ModelKind::Euler;
        c.num_fluids = 1;
        c.fluids = {{1.4, 0.0}};
        // Rescale the two-phase patches into single-fluid equivalents.
        for (Patch& p : c.patches) {
            const double rho = p.alpha_rho[0] + p.alpha_rho[1];
            p.alpha_rho = {rho};
            p.alpha.clear();
            p.pressure = std::min(p.pressure, 10.0);
        }
        c.dt = 1.0e-3 * 64.0 / edge;
        c.validate();
        return c;
    }
    if (name == "6eq_weno5_hllc") {
        c.model = ModelKind::SixEquation;
        c.validate();
        return c;
    }
    if (name == "5eq_weno3_hll") {
        c.weno_order = 3;
        c.riemann_solver = RiemannSolverKind::HLL;
        c.validate();
        return c;
    }
    if (name == "igr_jacobi") {
        c.igr.enabled = true;
        c.igr.order = 5;
        c.igr.alf_factor = 10.0;
        c.igr.num_iters = 4;
        c.igr.num_warm_start_iters = 4;
        c.igr.iter_solver = 1;
        c.validate();
        return c;
    }
    fail("bench: unknown case '" + name + "'");
}

BenchCaseResult BenchSuite::run_case(const std::string& name) const {
    const CaseConfig config = case_config(name);
    BenchCaseResult r;
    r.name = name;
    r.cells = config.grid.total_cells();
    r.eqns = config.layout().num_eqns();
    r.steps = config.t_step_stop;
    r.warmup_steps = options_.warmup_steps;
    r.ranks = ranks_;

    // Phases are the zones entered during the timed run: a before/after
    // zone-report delta. Nothing is reset, so the suite-wide metrics
    // window run_all() holds stays intact.
    const telemetry::SwitchScope zones(telemetry::enabled,
                                       telemetry::set_enabled,
                                       options_.profile);
    const LaunchResult t =
        run_timed(config, {.ranks = ranks_,
                           .warmup_steps = options_.warmup_steps,
                           .zones = options_.profile});
    r.wall_s = t.wall_s;
    r.grindtime_ns = t.grindtime_ns;
    if (options_.profile) {
        r.phases = telemetry::grind_decomposition(t.zones, r.cells, r.eqns,
                                                  t.rhs_evals)
                       .phases;
    }
    return r;
}

BenchSuite::OverlapCaseResult
BenchSuite::run_overlap_case(const std::string& name) const {
    const CaseConfig config = case_config(name);
    // Overlap only exists where halos do: run on at least two ranks even
    // when the suite itself is serial, so the section is never vacuous.
    const int nranks = std::max(2, ranks_);
    const telemetry::SwitchScope zones(telemetry::enabled,
                                       telemetry::set_enabled, false);
    // Each run reports rank 0's grindtime, the decomposition-invariant
    // global state hash, and the registry delta after warm-up, which
    // holds the scheduler's communication exposure.
    const auto measure = [&](bool overlap) {
        return run_timed(config, {.ranks = nranks,
                                  .warmup_steps = options_.warmup_steps,
                                  .overlap = overlap,
                                  .hash = true,
                                  .metrics = true});
    };
    const LaunchResult sync = measure(false);
    const LaunchResult over = measure(true);
    const double in_flight_ns =
        static_cast<double>(over.metrics.value("sched.comm_in_flight_ns"));
    const double exposed_ns =
        static_cast<double>(over.metrics.value("sched.comm_exposed_ns"));
    OverlapCaseResult out;
    out.grind_sync_ns = sync.grindtime_ns;
    out.grind_overlap_ns = over.grindtime_ns;
    out.in_flight_ms = in_flight_ns * 1.0e-6;
    out.overlap_ratio =
        in_flight_ns > 0.0
            ? std::max(0.0, in_flight_ns - exposed_ns) / in_flight_ns
            : 0.0;
    out.hash_match = sync.state_hash == over.state_hash;
    return out;
}

namespace {

std::string host_name() {
    char buf[256] = {};
    if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
    return buf;
}

std::string compiler_id() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string build_flags() {
#ifdef MFCPP_BUILD_FLAGS
    return MFCPP_BUILD_FLAGS;
#else
    return "";
#endif
}

} // namespace

Yaml BenchSuite::run_all(const std::string& invocation) const {
    // The whole suite runs with the registry armed; the summary's
    // canonical `metrics:` section is the delta over the suite window.
    const telemetry::SwitchScope metrics(telemetry::armed,
                                         telemetry::set_armed, true);
    const telemetry::Snapshot suite_before = telemetry::snapshot();

    Yaml root;
    root["metadata"]["invocation"].set(Value(invocation));
    root["metadata"]["mem_per_rank_gb"].set(Value(mem_gb_));
    root["metadata"]["ranks"].set(Value(static_cast<long long>(ranks_)));
    root["metadata"]["warmup_steps"].set(
        Value(static_cast<long long>(options_.warmup_steps)));
    // Provenance of the numbers: worker-thread count plus the host and
    // build that produced them, so two summaries handed to bench_diff
    // are comparable (or visibly not).
    root["metadata"]["threads"].set(
        Value(static_cast<long long>(options_.threads)));
    root["metadata"]["hostname"].set(Value(host_name()));
    root["metadata"]["compiler"].set(Value(compiler_id()));
    root["metadata"]["flags"].set(Value(build_flags()));
    // The kernels' ISA level and simd width: the same `-march=native`
    // builds AVX-512 code on one host and SSE2 code on another.
    root["metadata"]["isa"].set(Value(simd::isa_label()));

    const int prev_threads = exec::num_threads();
    exec::set_num_threads(options_.threads);
    for (const std::string& name : case_names()) {
        const BenchCaseResult r = run_case(name);
        Yaml& node = root["cases"][name];
        node["walltime_s"].set(Value(r.wall_s));
        node["grindtime_ns"].set(Value(r.grindtime_ns));
        node["cells"].set(Value(r.cells));
        node["eqns"].set(Value(static_cast<long long>(r.eqns)));
        node["steps"].set(Value(static_cast<long long>(r.steps)));
        if (!r.phases.empty()) {
            Yaml& phases = node["phases"];
            for (const telemetry::PhaseGrind& p : r.phases) {
                Yaml& entry = phases[p.path];
                entry["grind_ns"].set(Value(p.grind_ns));
                entry["pct"].set(Value(p.percent));
                entry["calls"].set(Value(p.calls));
                if (r.ranks > 1) {
                    entry["min_grind_ns"].set(Value(p.min_grind_ns));
                    entry["max_grind_ns"].set(Value(p.max_grind_ns));
                }
            }
        }
    }
    exec::set_num_threads(prev_threads);
    if (!options_.rank_thread_grid.empty()) {
        // R×T decomposition sweep (--ranks-threads): every combination
        // runs the same globally-sized problem (serial sizing, unlike the
        // weak-scaling `cases:` section), so grindtimes are comparable
        // across decompositions and `optimal:` names the best way to
        // spend this host's cores on that fixed problem.
        Yaml& sweep = root["rank_thread_sweep"];
        sweep["budget"].set(Value(static_cast<long long>(
            std::max(1U, std::thread::hardware_concurrency()))));
        struct Best {
            double grind_ns = std::numeric_limits<double>::infinity();
            int ranks = 1;
            int threads = 1;
        };
        std::map<std::string, Best> best;
        // Pure timing runs: one number per (R, T, case) cell.
        const telemetry::SwitchScope zones(telemetry::enabled,
                                           telemetry::set_enabled, false);
        for (const auto& [nranks, nthreads] : options_.rank_thread_grid) {
            exec::set_num_threads(nthreads);
            const std::string combo =
                "r" + std::to_string(nranks) + "xt" + std::to_string(nthreads);
            for (const std::string& name : case_names()) {
                const double g =
                    run_timed(case_config_sized(name, 1),
                              {.ranks = nranks,
                               .warmup_steps = options_.warmup_steps})
                        .grindtime_ns;
                sweep["combos"][combo][name]["grindtime_ns"].set(Value(g));
                Best& b = best[name];
                if (g > 0.0 && g < b.grind_ns) {
                    b.grind_ns = g;
                    b.ranks = nranks;
                    b.threads = nthreads;
                }
            }
        }
        exec::set_num_threads(prev_threads);
        for (const auto& [name, b] : best) {
            Yaml& node = sweep["optimal"][name];
            node["ranks"].set(Value(static_cast<long long>(b.ranks)));
            node["threads"].set(Value(static_cast<long long>(b.threads)));
            node["grindtime_ns"].set(Value(b.grind_ns));
        }
        sweep["combos"].sort_keys();
        sweep["optimal"].sort_keys();
    }
    {
        // Kernel microbenchmarks ride along so a whole-case grindtime
        // regression in bench_diff can be localized to one kernel without
        // a separate run. Small rows keep this a sub-second addendum.
        perf::UbenchOptions uopts;
        uopts.cells = 2048;
        uopts.reps = 9;
        Yaml& ub = root["ubench"];
        for (const perf::UbenchResult& r : perf::run_ubench_all(uopts)) {
            Yaml& node = ub[r.name];
            node["ns_per_cell"].set(Value(r.ns_per_cell));
            node["gbs"].set(Value(r.gbs));
            node["model_ns_per_cell"].set(Value(r.model_ns_per_cell));
        }
    }
    if (options_.overlap) {
        // Sync-vs-overlap pair per case: grindtime both ways, the
        // measured overlap ratio, and a bitwise hash comparison so a
        // scheduler that trades determinism for speed cannot pass
        // unnoticed. hash_match emits as 1/0 for bench_diff.
        Yaml& ov = root["overlap"];
        for (const std::string& name : case_names()) {
            const OverlapCaseResult r = run_overlap_case(name);
            Yaml& node = ov[name];
            node["grindtime_sync_ns"].set(Value(r.grind_sync_ns));
            node["grindtime_overlap_ns"].set(Value(r.grind_overlap_ns));
            node["overlap_ratio"].set(Value(r.overlap_ratio));
            node["comm_in_flight_ms"].set(Value(r.in_flight_ms));
            node["hash_match"].set(
                Value(static_cast<long long>(r.hash_match ? 1 : 0)));
        }
        // Canonical serialization regardless of case enumeration order.
        ov.sort_keys();
    }
    if (options_.chaos_trials > 0) {
        // Deterministic chaos-campaign counters on a small standardized
        // case: completion rate and detection counts are properties of the
        // build's fault-tolerance logic, not of this host's timing.
        resilience::ChaosOptions chaos;
        chaos.trials = options_.chaos_trials;
        chaos.seed = 1;
        chaos.recovery.ranks = std::max(2, ranks_);
        chaos.recovery.checkpoint_interval = 3;
        chaos.recovery.tag = "bench_chaos";
        // Keep trial checkpoints out of the invoking directory.
        chaos.recovery.checkpoint_dir =
            std::filesystem::temp_directory_path().string();
        const resilience::ChaosReport rep = resilience::run_campaign(
            standardized_benchmark_case(/*cells_per_dim=*/12,
                                        /*t_step_stop=*/6),
            chaos);
        Yaml& rs = root["resilience"];
        rs["trials"].set(Value(static_cast<int>(rep.trials.size())));
        rs["ranks"].set(Value(rep.ranks));
        rs["run_to_completion_rate"].set(Value(rep.run_to_completion_rate));
        rs["faults_injected"].set(Value(rep.faults_injected));
        rs["faults_detected"].set(Value(rep.faults_detected));
        rs["rollbacks"].set(Value(rep.rollbacks));
        rs["steps_replayed"].set(Value(rep.steps_replayed));
        rs["wasted_work_pct"].set(Value(rep.wasted_work_pct));
        rs.sort_keys();
    }

    // Registry counters over the whole suite: the deterministic class is
    // always present (and gated by bench_diff's tolerance bands); the
    // scheduling/timing classes ride along under --timing only, keeping
    // the default summary byte-comparable across reruns.
    telemetry::metrics_yaml(
        root, telemetry::delta(suite_before, telemetry::snapshot()),
        /*include_timing=*/options_.timing);
    return root;
}

namespace {

/// Map child lookup that degrades to nullptr instead of throwing, so a
/// summary from an older build (no `phases:`, no `resilience:`) still
/// diffs — the affected cells render as "n/a".
const Yaml* find(const Yaml& node, const std::string& key) {
    return node.is_map() && node.contains(key) ? &node.at(key) : nullptr;
}

/// Scalar child as a double; false when the key is missing or non-scalar.
bool scalar_of(const Yaml& node, const std::string& key, double& out) {
    const Yaml* child = find(node, key);
    if (child == nullptr || !child->is_scalar()) return false;
    out = child->value().as_double();
    return true;
}

/// Worst-regressing phase between two `phases:` maps: the shared path
/// with the largest candidate/reference grindtime ratio, ignoring phases
/// below 1% of the reference total (timer noise on sub-microsecond
/// zones would otherwise dominate).
std::string worst_phase(const Yaml& ref_phases, const Yaml& cand_phases) {
    std::string worst = "n/a";
    double worst_ratio = 0.0;
    for (const std::string& path : ref_phases.keys()) {
        const Yaml* cand = find(cand_phases, path);
        if (cand == nullptr) continue;
        const Yaml& ref = ref_phases.at(path);
        double ref_g = 0.0;
        double ref_pct = 0.0;
        double cand_g = 0.0;
        if (!scalar_of(ref, "grind_ns", ref_g) ||
            !scalar_of(ref, "pct", ref_pct) ||
            !scalar_of(*cand, "grind_ns", cand_g))
            continue;
        if (ref_g <= 0.0 || ref_pct < 1.0) continue;
        const double ratio = cand_g / ref_g;
        if (ratio > worst_ratio) {
            worst_ratio = ratio;
            worst = path;
        }
    }
    if (worst_ratio <= 0.0) return "n/a";
    const double delta_pct = 100.0 * (worst_ratio - 1.0);
    return worst + " " + (delta_pct >= 0.0 ? "+" : "") +
           format_fixed(delta_pct, 1) + "%";
}

} // namespace

TextTable bench_diff(const Yaml& reference, const Yaml& candidate) {
    TextTable table({"Case", "Reference [ns]", "Candidate [ns]", "Speedup",
                     "Worst phase"});
    table.set_align(1, TextTable::Align::Right);
    table.set_align(2, TextTable::Align::Right);
    table.set_align(3, TextTable::Align::Right);
    const Yaml* ref_cases = find(reference, "cases");
    const Yaml* cand_cases = find(candidate, "cases");
    if (ref_cases == nullptr) return table; // nothing to compare against
    for (const std::string& name : ref_cases->keys()) {
        const Yaml& ref = ref_cases->at(name);
        double ref_g = 0.0;
        const bool have_ref = scalar_of(ref, "grindtime_ns", ref_g);
        std::string cand = "n/a";
        std::string speedup = "n/a";
        std::string phase = "n/a";
        const Yaml* c =
            cand_cases != nullptr ? find(*cand_cases, name) : nullptr;
        if (c != nullptr) {
            double cand_g = 0.0;
            if (scalar_of(*c, "grindtime_ns", cand_g)) {
                cand = format_fixed(cand_g, 3);
                if (have_ref && cand_g > 0.0)
                    speedup = format_fixed(ref_g / cand_g, 2) + "x";
            }
            const Yaml* ref_phases = find(ref, "phases");
            const Yaml* cand_phases = find(*c, "phases");
            if (ref_phases != nullptr && cand_phases != nullptr)
                phase = worst_phase(*ref_phases, *cand_phases);
        }
        table.add_row({name, have_ref ? format_fixed(ref_g, 3) : "n/a", cand,
                       speedup, phase});
    }
    return table;
}

namespace {

/// One "key: ref | cand" provenance line; empty when neither side has it.
std::string meta_line(const Yaml* ref_meta, const Yaml* cand_meta,
                      const std::string& key) {
    const auto side = [&](const Yaml* m) {
        const Yaml* child = m != nullptr ? find(*m, key) : nullptr;
        if (child == nullptr || !child->is_scalar()) return std::string("n/a");
        return child->value().to_string();
    };
    const std::string r = side(ref_meta);
    const std::string c = side(cand_meta);
    if (r == "n/a" && c == "n/a") return "";
    std::string line = key + ": " + r;
    if (c != r) line += "  ->  " + c;
    return line + "\n";
}

} // namespace

std::string bench_diff_report(const Yaml& reference, const Yaml& candidate,
                              int* failures) {
    if (failures != nullptr) *failures = 0;
    // Provenance header: thread count, host, and build of each side —
    // a grindtime diff between different hosts or flag sets is a
    // different claim than one between two builds on the same machine.
    std::string out;
    const Yaml* ref_meta = find(reference, "metadata");
    const Yaml* cand_meta = find(candidate, "metadata");
    for (const char* key :
         {"threads", "hostname", "compiler", "flags", "isa"}) {
        out += meta_line(ref_meta, cand_meta, key);
    }
    if (!out.empty()) out += "\n";
    out += bench_diff(reference, candidate).str();

    // Kernel microbenchmarks: compare per-kernel ns/cell wherever both
    // sides carry an `ubench:` section; a summary from a build without
    // one (or with a disjoint kernel set) degrades cell-wise to "n/a",
    // exactly like the resilience table below.
    const Yaml* ref_ub = find(reference, "ubench");
    const Yaml* cand_ub = find(candidate, "ubench");
    if (ref_ub != nullptr || cand_ub != nullptr) {
        TextTable ub({"Kernel", "Reference [ns/cell]", "Candidate [ns/cell]",
                      "Speedup"});
        ub.set_align(1, TextTable::Align::Right);
        ub.set_align(2, TextTable::Align::Right);
        ub.set_align(3, TextTable::Align::Right);
        const Yaml* keys_from = ref_ub != nullptr ? ref_ub : cand_ub;
        for (const std::string& kernel : keys_from->keys()) {
            double ref_ns = 0.0;
            double cand_ns = 0.0;
            const Yaml* r = ref_ub != nullptr ? find(*ref_ub, kernel) : nullptr;
            const Yaml* c =
                cand_ub != nullptr ? find(*cand_ub, kernel) : nullptr;
            const bool have_r =
                r != nullptr && scalar_of(*r, "ns_per_cell", ref_ns);
            const bool have_c =
                c != nullptr && scalar_of(*c, "ns_per_cell", cand_ns);
            ub.add_row({kernel, have_r ? format_fixed(ref_ns, 2) : "n/a",
                        have_c ? format_fixed(cand_ns, 2) : "n/a",
                        have_r && have_c && cand_ns > 0.0
                            ? format_fixed(ref_ns / cand_ns, 2) + "x"
                            : "n/a"});
        }
        out += "\n";
        out += ub.str();
    }

    const auto cell = [](const Yaml* side, const std::string& key,
                         int precision) {
        double v = 0.0;
        if (side == nullptr || !scalar_of(*side, key, v)) return std::string("n/a");
        return format_fixed(v, precision);
    };

    // Overlap-scheduler comparison (`mfc bench --overlap`): per case the
    // speedup of the task-graph schedule over the synchronous one, the
    // overlap ratio, and the bitwise verdict. Baselines recorded before
    // the section existed (or without --overlap) degrade to "n/a".
    const Yaml* ref_ov = find(reference, "overlap");
    const Yaml* cand_ov = find(candidate, "overlap");
    if (ref_ov != nullptr || cand_ov != nullptr) {
        TextTable ov({"Overlap case", "Ref ratio", "Cand ratio",
                      "Ref speedup", "Cand speedup", "Bitwise"});
        for (int col = 1; col <= 4; ++col)
            ov.set_align(col, TextTable::Align::Right);
        const auto speedup_cell = [&](const Yaml* side) {
            double s = 0.0;
            double o = 0.0;
            if (side == nullptr || !scalar_of(*side, "grindtime_sync_ns", s) ||
                !scalar_of(*side, "grindtime_overlap_ns", o) || o <= 0.0)
                return std::string("n/a");
            return format_fixed(s / o, 2) + "x";
        };
        const auto bitwise_cell = [&](const Yaml* side) {
            double v = 0.0;
            if (side == nullptr || !scalar_of(*side, "hash_match", v))
                return std::string("n/a");
            return std::string(v != 0.0 ? "ok" : "MISMATCH");
        };
        const Yaml* keys_from = ref_ov != nullptr ? ref_ov : cand_ov;
        for (const std::string& name : keys_from->keys()) {
            const Yaml* r = ref_ov != nullptr ? find(*ref_ov, name) : nullptr;
            const Yaml* c = cand_ov != nullptr ? find(*cand_ov, name) : nullptr;
            ov.add_row({name, cell(r, "overlap_ratio", 3),
                        cell(c, "overlap_ratio", 3), speedup_cell(r),
                        speedup_cell(c),
                        bitwise_cell(r) + " / " + bitwise_cell(c)});
        }
        out += "\n";
        out += ov.str();
    }

    // Hybrid decomposition comparison (`mfc bench --ranks-threads`): per
    // case the grindtime-optimal R×T decomposition each side found and
    // the best-vs-best speedup. Sides without a `rank_thread_sweep:`
    // section degrade to "n/a".
    const Yaml* ref_rt = find(reference, "rank_thread_sweep");
    const Yaml* cand_rt = find(candidate, "rank_thread_sweep");
    if (ref_rt != nullptr || cand_rt != nullptr) {
        TextTable rt({"Decomposition case", "Ref best", "Cand best",
                      "Ref [ns]", "Cand [ns]", "Speedup"});
        for (int col = 1; col <= 5; ++col)
            rt.set_align(col, TextTable::Align::Right);
        const auto optimal_of = [&](const Yaml* side, const std::string& name,
                                    double& grind) -> std::string {
            const Yaml* opt = side != nullptr ? find(*side, "optimal") : nullptr;
            const Yaml* entry = opt != nullptr ? find(*opt, name) : nullptr;
            double r = 0.0;
            double t = 0.0;
            if (entry == nullptr || !scalar_of(*entry, "ranks", r) ||
                !scalar_of(*entry, "threads", t) ||
                !scalar_of(*entry, "grindtime_ns", grind))
                return "n/a";
            return std::to_string(static_cast<int>(r)) + "x" +
                   std::to_string(static_cast<int>(t));
        };
        const Yaml* keys_side = ref_rt != nullptr ? ref_rt : cand_rt;
        const Yaml* keys_opt = find(*keys_side, "optimal");
        if (keys_opt != nullptr) {
            for (const std::string& name : keys_opt->keys()) {
                double ref_g = 0.0;
                double cand_g = 0.0;
                const std::string ref_best = optimal_of(ref_rt, name, ref_g);
                const std::string cand_best = optimal_of(cand_rt, name, cand_g);
                rt.add_row(
                    {name, ref_best, cand_best,
                     ref_best != "n/a" ? format_fixed(ref_g, 3) : "n/a",
                     cand_best != "n/a" ? format_fixed(cand_g, 3) : "n/a",
                     ref_best != "n/a" && cand_best != "n/a" && cand_g > 0.0
                         ? format_fixed(ref_g / cand_g, 2) + "x"
                         : "n/a"});
            }
        }
        out += "\n";
        out += rt.str();
    }

    const Yaml* ref_res = find(reference, "resilience");
    const Yaml* cand_res = find(candidate, "resilience");
    if (ref_res != nullptr || cand_res != nullptr) {
        TextTable table({"Resilience metric", "Reference", "Candidate"});
        table.set_align(1, TextTable::Align::Right);
        table.set_align(2, TextTable::Align::Right);
        const std::vector<std::pair<std::string, int>> metrics = {
            {"trials", 0},           {"run_to_completion_rate", 2},
            {"faults_injected", 0},  {"faults_detected", 0},
            {"rollbacks", 0},        {"steps_replayed", 0},
            {"wasted_work_pct", 1},
        };
        for (const auto& [key, precision] : metrics) {
            table.add_row({key, cell(ref_res, key, precision),
                           cell(cand_res, key, precision)});
        }
        out += "\n";
        out += table.str();
    }

    // Campaign-engine counters (`mfc bench --ensemble N`): deterministic
    // pass/fail and UQ-moment metrics. Baselines recorded before the
    // ensemble section existed diff column-wise to "n/a"; the bitwise
    // moment-field hashes compare as strings since any numeric rendering
    // would hide one-ulp differences.
    const Yaml* ref_ens = find(reference, "ensemble");
    const Yaml* cand_ens = find(candidate, "ensemble");
    if (ref_ens != nullptr || cand_ens != nullptr) {
        TextTable table({"Ensemble metric", "Reference", "Candidate"});
        table.set_align(1, TextTable::Align::Right);
        table.set_align(2, TextTable::Align::Right);
        const std::vector<std::pair<std::string, int>> metrics = {
            {"jobs", 0},     {"passed", 0},      {"failed", 0},
            {"cancelled", 0}, {"uq_samples", 0},
            {"uq_mean", 6},  {"uq_variance", 6},
        };
        for (const auto& [key, precision] : metrics) {
            table.add_row({key, cell(ref_ens, key, precision),
                           cell(cand_ens, key, precision)});
        }
        const auto text_cell = [](const Yaml* side, const std::string& key) {
            const Yaml* child = side != nullptr ? find(*side, key) : nullptr;
            if (child == nullptr || !child->is_scalar())
                return std::string("n/a");
            return child->value().to_string();
        };
        for (const char* key : {"mean_field_hash", "variance_field_hash"}) {
            table.add_row(
                {key, text_cell(ref_ens, key), text_cell(cand_ens, key)});
        }
        out += "\n";
        out += table.str();
    }

    // Telemetry registry comparison (`metrics:` sections, one per class)
    // with per-class tolerance bands. Deterministic counters are fully
    // workload-determined, so anything past ±10% is a behavioral change
    // (message counts, bytes moved, work items) and FAILs; scheduling
    // counters reproduce only in distribution and get a 2x band; timing
    // totals are machine-dependent and render informationally.
    const Yaml* ref_m = find(reference, "metrics");
    const Yaml* cand_m = find(candidate, "metrics");
    if (ref_m != nullptr && cand_m != nullptr) {
        TextTable mt({"Metric", "Reference", "Candidate", "Ratio", "Band",
                      "Verdict"});
        for (int col = 1; col <= 3; ++col)
            mt.set_align(col, TextTable::Align::Right);
        const auto numeric = [](const Yaml& node, double& v) {
            if (!node.is_scalar()) return false;
            const std::string s = node.value().to_string();
            char* end = nullptr;
            v = std::strtod(s.c_str(), &end);
            return end != s.c_str() && *end == '\0';
        };
        int fails = 0;
        struct Band {
            const char* section;
            double lo, hi;
            bool gated;
        };
        constexpr Band kBands[] = {{"deterministic", 0.90, 1.10, true},
                                   {"scheduling", 0.50, 2.00, true},
                                   {"timing", 0.0, 0.0, false}};
        for (const Band& band : kBands) {
            const Yaml* r = find(*ref_m, band.section);
            const Yaml* c = find(*cand_m, band.section);
            if (r == nullptr || c == nullptr) continue;
            const std::string band_str =
                band.gated ? format_fixed(band.lo, 2) + ".." +
                                 format_fixed(band.hi, 2)
                           : "info";
            for (const std::string& name : r->keys()) {
                const Yaml* cv = find(*c, name);
                if (cv == nullptr) continue; // metric added/removed: skip
                double rv = 0.0;
                double cv_d = 0.0;
                const bool rn = numeric(r->at(name), rv);
                const bool cn = numeric(*cv, cv_d);
                if (!rn || !cn) {
                    // Histograms render as bucket strings: deterministic
                    // ones must match exactly.
                    const std::string rs = r->at(name).is_scalar()
                                               ? r->at(name).value().to_string()
                                               : "?";
                    const std::string cs =
                        cv->is_scalar() ? cv->value().to_string() : "?";
                    const bool ok = !band.gated || rs == cs;
                    if (!ok) ++fails;
                    mt.add_row({name, rs, cs, "-", band.gated ? "exact" : "info",
                                ok ? "ok" : "FAIL"});
                    continue;
                }
                std::string ratio = "n/a";
                bool ok = true;
                if (rv > 0.0) {
                    const double q = cv_d / rv;
                    ratio = format_fixed(q, 3);
                    ok = !band.gated || (q >= band.lo && q <= band.hi);
                } else if (band.gated) {
                    ok = cv_d == 0.0; // 0 -> nonzero is out of any band
                }
                if (!ok) ++fails;
                mt.add_row({name, format_fixed(rv, 0), format_fixed(cv_d, 0),
                            ratio, band_str, ok ? "ok" : "FAIL"});
            }
        }
        out += "\n";
        out += mt.str();
        if (fails > 0) {
            out += "\n" + std::to_string(fails) +
                   " metric(s) out of tolerance band\n";
        }
        if (failures != nullptr) *failures = fails;
    }
    return out;
}

} // namespace mfc::toolchain
