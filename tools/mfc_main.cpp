// `mfc` — command-line interface mirroring the paper's wrapper script
// `mfc.sh` (Table 1). Subcommands: the Table 1 tools in the order a user
// brings up a new system (Section 3), then the tools this reproduction
// adds:
//
//   mfc tools                                  list the tools (Table 1)
//   mfc load -c <system> -m <cpu|gpu>          modules + environment plan
//   mfc build -c <sys> -m <cpu|gpu> [--gpu acc|mp] [--case-optimization]
//   mfc test [--list] [--generate|--add-new-variables]
//            [-o <UUID>] [--golden-dir <dir>] [--max <n>]
//   mfc bench --mem <gb/rank> -n <ranks> [-o <out.yml>]
//   mfc bench_diff <ref.yml> <new.yml>
//   mfc run <case-file> [--out <golden.txt>] [--ranks <r>] [--overlap]
//   mfc profile <case-file> | --standard <edge> [-n <ranks>] [--trace <f>]
//   mfc ubench [--cells <n>] [--reps <n>] [--width <w>] [--check <ref>]
//   mfc chaos <case-file> | --standard [-n <ranks>] [--trials <n>]
//   mfc ensemble [--regression N] [--bench-reps N] [--chaos N] [--uq N]
//   mfc batch --scheduler <slurm|pbs|lsf|flux|interactive> [options]
//   mfc devices                                Table 3, model vs paper
//   mfc scale [--system <name>] [--strong] [--ranks <r1,...>]
//                                              Table 4, Fig. 2/3, Table 5
//   mfc pre_process <case-file> --out <ic.bin>
//   mfc simulation <case-file> --in <ic.bin> --out <final.bin>
//   mfc post_process <case-file> --in <final.bin> --out <flow.vtk>
//
// Every subcommand accepts --help.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include <filesystem>

#include "core/error.hpp"
#include "core/strings.hpp"
#include "core/table.hpp"
#include "ensemble/cache.hpp"
#include "ensemble/engine.hpp"
#include "ensemble/uq.hpp"
#include "exec/exec.hpp"
#include "perf/scaling.hpp"
#include "perf/ubench.hpp"
#include "simd/simd.hpp"
#include "resilience/chaos.hpp"
#include "solver/case_config.hpp"
#include "solver/launch.hpp"
#include "telemetry/report.hpp"
#include "toolchain/case_io.hpp"
#include "toolchain/toolchain.hpp"

namespace {

using namespace mfc;
using namespace mfc::toolchain;

/// Flag parser for one verb: `--name value` for the verb's value flags,
/// `--name` for its switches (and --help), positionals otherwise. Any
/// other flag, a flag given twice, and a positional beyond the verb's
/// `max_positionals` are errors that name the argument.
class Args {
public:
    Args(int argc, char** argv, const std::vector<std::string>& values,
         const std::vector<std::string>& switches,
         std::size_t max_positionals) {
        const auto listed = [](const std::vector<std::string>& names,
                               const std::string& name) {
            return std::find(names.begin(), names.end(), name) != names.end();
        };
        for (int i = 0; i < argc; ++i) {
            const std::string a = argv[i];
            if (a.rfind("--", 0) == 0 || (a.size() == 2 && a[0] == '-')) {
                const std::string name = a.substr(a[1] == '-' ? 2 : 1);
                MFC_REQUIRE(!has(name), "flag " + a + " given twice");
                if (name == "help" || listed(switches, name)) {
                    flags_[name] = "1";
                } else if (listed(values, name)) {
                    MFC_REQUIRE(i + 1 < argc, "missing value for " + a);
                    flags_[name] = argv[++i];
                } else {
                    fail("unknown flag " + a);
                }
            } else {
                MFC_REQUIRE(positional_.size() < max_positionals,
                            "unexpected argument " + a);
                positional_.push_back(a);
            }
        }
    }

    [[nodiscard]] bool has(const std::string& name) const {
        return flags_.count(name) > 0;
    }
    [[nodiscard]] std::string get(const std::string& name,
                                  const std::string& fallback = "") const {
        const auto it = flags_.find(name);
        return it == flags_.end() ? fallback : it->second;
    }
    [[nodiscard]] const std::vector<std::string>& positional() const {
        return positional_;
    }

private:
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

/// `profile` and `chaos` run a case file or the standardized case, not
/// both.
void require_one_case(const Args& args) {
    if (args.has("standard") && !args.positional().empty()) {
        fail("case file " + args.positional()[0] +
             " given together with --standard");
    }
}

int cmd_tools() {
    std::printf("%-12s %s\n", "Tool", "Description");
    for (const ToolInfo& t : Toolchain::tools()) {
        std::printf("%-12s %s\n", t.name.c_str(), t.description.c_str());
    }
    return 0;
}

int cmd_load(const Args& args) {
    if (args.has("help")) {
        std::printf("mfc load -c <system-id> -m <cpu|gpu>\n\nSystems:\n");
        for (const auto& s : ModulesRegistry::builtin().systems()) {
            std::printf("  %-4s %s\n", s.id.c_str(), s.name.c_str());
        }
        return 0;
    }
    const Toolchain tc;
    const LoadPlan plan = tc.load(args.get("c", "l"), args.get("m", "cpu"));
    std::fputs(plan.shell_script().c_str(), stdout);
    return 0;
}

int cmd_build(const Args& args) {
    if (args.has("help")) {
        std::printf("mfc build -c <system-id> -m <cpu|gpu> [--gpu acc|mp] "
                    "[--case-optimization]\n");
        return 0;
    }
    const Toolchain tc;
    const LoadPlan env = tc.load(args.get("c", "l"), args.get("m", "cpu"));
    const BuildPlan plan =
        tc.build(env, args.get("gpu", ""), args.has("case-optimization"));
    std::printf("%s\n", plan.summary().c_str());
    return 0;
}

/// Prints `FAIL <UUID>  <trace>: <detail>` for each failed case. The
/// engine delivers results in job order, and job i is case i.
class FailureLines : public ensemble::Consumer {
public:
    explicit FailureLines(std::span<const TestCaseDef> cases) : cases_(cases) {}

    void on_result(const ensemble::JobResult& r) override {
        if (r.passed) return;
        const TestCaseDef& c = cases_[static_cast<std::size_t>(r.index)];
        std::printf("FAIL %s  %s: %s\n", c.uuid.c_str(), c.trace.c_str(),
                    r.detail.c_str());
    }

private:
    std::span<const TestCaseDef> cases_;
};

int cmd_test(const Args& args) {
    if (args.has("help")) {
        std::printf(
            "mfc test [--list] [--generate | --add-new-variables] [-o <UUID>]\n"
            "         [--golden-dir <dir>] [--max <n>]\n\n"
            "Runs the regression suite against golden files (Section 4):\n"
            "every case, the one -o names, or the first --max, as one\n"
            "campaign on MFC_NUM_THREADS workers (default 1).\n");
        return 0;
    }
    const Toolchain tc;
    const TestSuite suite = tc.test_suite(args.get("golden-dir", "goldens"));

    if (args.has("list")) {
        for (const TestCaseDef& c : suite.cases()) {
            std::printf("%s  %s\n", c.uuid.c_str(), c.trace.c_str());
        }
        std::printf("%zu cases\n", suite.cases().size());
        return 0;
    }

    TestMode mode = TestMode::Compare;
    if (args.has("generate")) mode = TestMode::Generate;
    if (args.has("add-new-variables")) mode = TestMode::AddNewVariables;

    std::span<const TestCaseDef> cases = suite.cases();
    if (args.has("o")) {
        cases = std::span(&suite.case_by_uuid(args.get("o")), 1);
    } else if (args.has("max")) {
        const long long max = parse_int(args.get("max"));
        MFC_REQUIRE(max >= 0, "--max must not be negative: " + args.get("max"));
        cases = cases.first(std::min(cases.size(), static_cast<std::size_t>(max)));
    }

    ensemble::Engine engine(ensemble::EngineOptions{});
    FailureLines failures(cases);
    engine.add_consumer(&failures);
    Yaml report;
    const ensemble::CampaignSummary s =
        engine.run(ensemble::regression_jobs(suite, cases, mode), report);
    std::printf("%lld/%lld passed\n", s.passed, s.total);
    return s.ok() ? 0 : 1;
}

int cmd_bench(const Args& args) {
    if (args.has("help")) {
        std::printf("mfc bench --mem <gb/rank> -n <ranks> [-o <out.yml>]\n"
                    "          [--warmup <steps>] [--no-profile]\n"
                    "          [--threads <n>]     worker threads per rank\n"
                    "          [--chaos <trials>]  add a resilience: section\n"
                    "                              from a chaos campaign\n"
                    "          [--overlap]         add an overlap: section\n"
                    "                              (task-graph vs synchronous\n"
                    "                              RHS, bitwise-compared)\n"
                    "          [--ensemble <n>]    add an ensemble: section\n"
                    "                              from a deterministic n-job\n"
                    "                              UQ campaign\n"
                    "          [--timing]          add the scheduling: and\n"
                    "                              timing: telemetry classes\n"
                    "                              to the metrics: section\n"
                    "          [--ranks-threads <auto|RxT[,RxT...]>]\n"
                    "                              add a rank_thread_sweep:\n"
                    "                              section timing every given\n"
                    "                              hybrid decomposition (e.g.\n"
                    "                              1x1,2x2,4x1) at the serial\n"
                    "                              problem size and reporting\n"
                    "                              the grindtime-optimal one;\n"
                    "                              auto enumerates power-of-2\n"
                    "                              R*T within this host's\n"
                    "                              core count\n");
        return 0;
    }
    const Toolchain tc;
    const double mem = parse_double(args.get("mem", "0.001"));
    const int ranks = static_cast<int>(parse_int(args.get("n", "1")));
    BenchOptions options;
    options.warmup_steps = static_cast<int>(parse_int(args.get("warmup", "1")));
    options.profile = !args.has("no-profile");
    options.chaos_trials = static_cast<int>(parse_int(args.get("chaos", "0")));
    options.overlap = args.has("overlap");
    options.timing = args.has("timing");
    options.threads = static_cast<int>(parse_int(args.get("threads", "1")));
    if (args.has("ranks-threads")) {
        const std::string spec = args.get("ranks-threads");
        if (spec == "auto") {
            options.rank_thread_grid = toolchain::auto_rank_thread_grid();
        } else {
            for (const std::string& combo : split(spec, ',')) {
                const std::size_t x = combo.find('x');
                if (x == std::string::npos || x == 0 ||
                    x + 1 >= combo.size()) {
                    std::fprintf(stderr,
                                 "mfc bench: --ranks-threads entries must be "
                                 "RxT (got '%s')\n",
                                 combo.c_str());
                    return 2;
                }
                options.rank_thread_grid.emplace_back(
                    static_cast<int>(parse_int(combo.substr(0, x))),
                    static_cast<int>(parse_int(combo.substr(x + 1))));
            }
        }
    }
    std::string invocation = "mfc bench --mem " + args.get("mem", "0.001") +
                             " -n " + std::to_string(ranks);
    if (args.has("threads"))
        invocation += " --threads " + args.get("threads");
    if (args.has("ranks-threads"))
        invocation += " --ranks-threads " + args.get("ranks-threads");
    if (options.overlap) invocation += " --overlap";
    Yaml out = tc.bench(mem, ranks, options).run_all(invocation);
    if (args.has("ensemble")) {
        // Deterministic campaign counters (all reproducible for the fixed
        // seed), so scheduling or UQ regressions show up in bench_diff
        // like any other metric.
        const int samples =
            static_cast<int>(parse_int(args.get("ensemble", "8")));
        ensemble::UqPlan plan;
        plan.samples = samples;
        plan.seed = 1;
        plan.edge = 10;
        plan.steps = 3;
        const std::vector<ensemble::JobSpec> jobs =
            ensemble::make_uq_jobs(plan, ensemble::default_uq_parameters());
        ensemble::Engine engine(ensemble::EngineOptions{});
        ensemble::RunningStats stats;
        ensemble::MomentFieldAccumulator moments;
        engine.add_consumer(&stats);
        engine.add_consumer(&moments);
        Yaml scratch;
        const ensemble::CampaignSummary s = engine.run(jobs, scratch);
        Yaml& e = out["ensemble"];
        e["jobs"].set(Value(s.total));
        e["passed"].set(Value(s.passed));
        e["failed"].set(Value(s.failed));
        e["cancelled"].set(Value(s.cancelled));
        e["uq_samples"].set(Value(stats.welford().count()));
        e["uq_mean"].set(Value(stats.welford().mean()));
        e["uq_variance"].set(Value(stats.welford().variance()));
        e["mean_field_hash"].set(
            Value(ensemble::hex64(ensemble::MomentFieldAccumulator::field_hash(
                moments.moments().mean()))));
        e["variance_field_hash"].set(
            Value(ensemble::hex64(ensemble::MomentFieldAccumulator::field_hash(
                moments.moments().variance()))));
        // Same canonical ordering as the suite's overlap:/resilience:
        // sections, so two summaries diff structurally.
        e.sort_keys();
    }
    if (args.has("o")) {
        out.save(args.get("o"));
        std::printf("wrote %s\n", args.get("o").c_str());
    } else {
        std::fputs(out.dump().c_str(), stdout);
    }
    return 0;
}

int cmd_bench_diff(const Args& args) {
    if (args.has("help") || args.positional().size() != 2) {
        std::printf("mfc bench_diff <ref.yml> <new.yml>\n");
        return args.has("help") ? 0 : 2;
    }
    const Yaml ref = Yaml::load(args.positional()[0]);
    const Yaml cand = Yaml::load(args.positional()[1]);
    int metric_failures = 0;
    std::fputs(bench_diff_report(ref, cand, &metric_failures).c_str(), stdout);
    // Out-of-band telemetry metrics gate the diff: a candidate that moves
    // a deterministic counter past its tolerance band exits non-zero so
    // CI can fail the regression.
    return metric_failures > 0 ? 1 : 0;
}

int cmd_ubench(const Args& args) {
    if (args.has("help")) {
        std::printf(
            "mfc ubench [--cells <n>] [--reps <n>] [--width <1|2|4|8>]\n"
            "           [-o <out.yml>] [--check <ref.yml>]\n\n"
            "Time each hot pencil kernel standalone on deterministic\n"
            "synthetic rows (min over --reps): ns/cell, achieved effective\n"
            "bandwidth, and the model estimate on the reference core\n"
            "(src/perf/kernel_model.hpp) with the ceiling that binds it:\n"
            "memory, flops or the divider. --width pins the simd width\n"
            "(default: MFC_SIMD_WIDTH, else 8 on AVX-512 and 4 otherwise);\n"
            "results are bitwise identical at every width and ISA level,\n"
            "only the timing changes.\n"
            "--check compares the guarded kernels against a reference\n"
            "band (ubench: section with ns_per_cell + tolerance entries)\n"
            "and exits 1 on a regression beyond the tolerance factor.\n");
        return 0;
    }
    perf::UbenchOptions opts;
    if (args.has("cells"))
        opts.cells = static_cast<int>(parse_int(args.get("cells")));
    if (args.has("reps"))
        opts.reps = static_cast<int>(parse_int(args.get("reps")));
    if (args.has("width"))
        simd::set_width(static_cast<int>(parse_int(args.get("width"))));

    const std::vector<perf::UbenchResult> results =
        perf::run_ubench_all(opts);
    std::printf("ubench: %d cells/row, min of %d reps, isa: %s\n\n",
                opts.cells, opts.reps, simd::isa_label().c_str());
    TextTable t(
        {"Kernel", "ns/cell", "GB/s", "Model ns/cell", "x Model", "Bound"});
    for (std::size_t col = 1; col < 5; ++col)
        t.set_align(col, TextTable::Align::Right);
    for (const perf::UbenchResult& r : results) {
        t.add_row({r.name, format_fixed(r.ns_per_cell, 2),
                   format_fixed(r.gbs, 2),
                   format_fixed(r.model_ns_per_cell, 2),
                   format_fixed(r.ns_per_cell > 0.0
                                    ? r.ns_per_cell / r.model_ns_per_cell
                                    : 0.0,
                                2),
                   perf::to_string(r.bound)});
    }
    std::fputs(t.str().c_str(), stdout);

    if (args.has("o")) {
        Yaml out;
        out["metadata"]["cells"].set(
            Value(static_cast<long long>(opts.cells)));
        out["metadata"]["reps"].set(Value(static_cast<long long>(opts.reps)));
        out["metadata"]["simd_width"].set(
            Value(static_cast<long long>(simd::width())));
        out["metadata"]["isa"].set(Value(simd::isa_label()));
        Yaml& ub = out["ubench"];
        for (const perf::UbenchResult& r : results) {
            Yaml& node = ub[r.name];
            node["ns_per_cell"].set(Value(r.ns_per_cell));
            node["gbs"].set(Value(r.gbs));
            node["model_ns_per_cell"].set(Value(r.model_ns_per_cell));
            node["bound"].set(Value(std::string(perf::to_string(r.bound))));
        }
        out.save(args.get("o"));
        std::printf("\nwrote %s\n", args.get("o").c_str());
    }

    if (args.has("check")) {
        // Perf smoke (tools/tier1.sh): every kernel named in the
        // reference band must stay within its tolerance factor of the
        // checked-in ns/cell. The band is deliberately wide — it guards
        // against order-of-magnitude regressions (a reintroduced
        // gather/scatter, a dropped vectorization), not run-to-run noise.
        const Yaml ref = Yaml::load(args.get("check"));
        if (!ref.contains("ubench")) {
            std::fprintf(stderr, "ubench --check: %s has no ubench section\n",
                         args.get("check").c_str());
            return 1;
        }
        const Yaml& band = ref.at("ubench");
        // The band holds for the ISA level it was measured at; say so
        // when this build targets another one.
        const Yaml* ref_meta =
            ref.contains("metadata") ? &ref.at("metadata") : nullptr;
        if (ref_meta != nullptr && ref_meta->contains("isa") &&
            ref_meta->at("isa").value().to_string() != simd::isa_label()) {
            std::printf("check: reference measured at isa %s, this run is "
                        "%s\n",
                        ref_meta->at("isa").value().to_string().c_str(),
                        simd::isa_label().c_str());
        }
        int failures = 0;
        for (const std::string& kernel : band.keys()) {
            const Yaml& node = band.at(kernel);
            const double ref_ns = node.at("ns_per_cell").value().as_double();
            const double tol = node.contains("tolerance")
                                   ? node.at("tolerance").value().as_double()
                                   : 1.25;
            double got_ns = -1.0;
            for (const perf::UbenchResult& r : results) {
                if (r.name == kernel) got_ns = r.ns_per_cell;
            }
            if (got_ns < 0.0) {
                std::fprintf(stderr,
                             "ubench --check: kernel '%s' in %s is not "
                             "registered\n",
                             kernel.c_str(), args.get("check").c_str());
                ++failures;
                continue;
            }
            const double limit = ref_ns * tol;
            if (got_ns > limit) {
                std::fprintf(stderr,
                             "ubench --check: %s regressed: %.2f ns/cell > "
                             "%.2f (ref %.2f x tol %.2f)\n",
                             kernel.c_str(), got_ns, limit, ref_ns, tol);
                ++failures;
            } else {
                std::printf("check %-14s %.2f ns/cell within %.2f (ref %.2f "
                            "x tol %.2f)\n",
                            kernel.c_str(), got_ns, limit, ref_ns, tol);
            }
        }
        if (failures > 0) return 1;
    }
    return 0;
}

int cmd_run(const Args& args) {
    if (args.has("help") || args.positional().empty()) {
        std::printf(
            "mfc run <case-file> [--out <golden.txt>] [--threads <n>]\n"
            "        [--ranks <r>] [--overlap] [--hash] [--metrics <f.yml>]\n\n"
            "  --ranks <r>   decomposed run through simMPI over the case's\n"
            "                active axes (default 1: the serial solver)\n"
            "  --threads <t> worker threads per rank; with --ranks R the\n"
            "                process runs R disjoint teams of T threads each\n"
            "                (hybrid mode, bitwise-identical to serial for\n"
            "                every R x T)\n"
            "  --overlap     route RHS evaluations through the task-graph\n"
            "                scheduler (src/sched): halos are posted\n"
            "                nonblocking and interior sweeps run while they\n"
            "                are in flight; bitwise-identical to the\n"
            "                synchronous path\n"
            "  --hash        print the FNV-1a hash of the global state\n"
            "                (the same for every --ranks/--threads) instead\n"
            "                of golden output\n"
            "  --metrics <f> write the deterministic telemetry counters of\n"
            "                the run to <f> (byte-identical across reruns\n"
            "                and thread counts)\n");
        return args.has("help") ? 0 : 2;
    }
    if (args.has("threads")) {
        exec::set_num_threads(static_cast<int>(parse_int(args.get("threads"))));
    }
    if (args.has("ranks") || args.has("overlap") || args.has("hash") ||
        args.has("metrics")) {
        // The scheduler/decomposition path: time the case (serial or
        // rank-decomposed), optionally through the overlap graph, and
        // report the decomposition-invariant state hash, identical for
        // every --ranks/--threads combination, so sync and overlap runs
        // compare exactly. Overlap accounting and the --metrics report
        // both read the registry delta over the run.
        const CaseConfig config =
            config_from_dict(load_case_file(args.positional()[0]));
        const int ranks = static_cast<int>(parse_int(args.get("ranks", "1")));
        MFC_REQUIRE(ranks >= 1, "run: --ranks must be positive");
        const bool overlap = args.has("overlap");
        const LaunchResult run = run_timed(
            config,
            {.ranks = ranks, .overlap = overlap, .hash = true, .metrics = true});
        const telemetry::Snapshot& tel = run.metrics;

        std::printf("case: %s  (%d rank%s, %d steps, %s RHS)\n",
                    config.title.c_str(), ranks, ranks == 1 ? "" : "s",
                    config.t_step_stop, overlap ? "overlap" : "synchronous");
        std::printf("state hash: 0x%016llx\n",
                    static_cast<unsigned long long>(run.state_hash));
        std::printf("walltime: %.3f s  (%lld RHS evals)\n", run.wall_s,
                    run.rhs_evals);
        if (overlap && tel.value("sched.graph_runs") > 0) {
            const double in_flight =
                static_cast<double>(tel.value("sched.comm_in_flight_ns"));
            const double exposed =
                static_cast<double>(tel.value("sched.comm_exposed_ns"));
            const double halo_bytes =
                static_cast<double>(tel.value("halo.bytes.x") +
                                    tel.value("halo.bytes.y") +
                                    tel.value("halo.bytes.z"));
            const double hidden = std::max(0.0, in_flight - exposed);
            std::printf("overlap: ratio %.3f  (hidden %.3f ms of %.3f ms "
                        "in-flight, %.2f MiB halos)\n",
                        in_flight > 0.0 ? hidden / in_flight : 0.0,
                        hidden * 1.0e-6, in_flight * 1.0e-6,
                        halo_bytes / (1024.0 * 1024.0));
        }
        if (args.has("metrics")) {
            Yaml m;
            m["schema"].set(Value("mfc-metrics-v1"));
            telemetry::metrics_yaml(m, tel, /*include_timing=*/false);
            m.save(args.get("metrics"));
            std::printf("wrote %s\n", args.get("metrics").c_str());
        }
        return 0;
    }
    const Toolchain tc;
    const CaseDict dict = load_case_file(args.positional()[0]);
    const GoldenFile out = tc.run(dict);
    if (args.has("out")) {
        out.save(args.get("out"));
        std::printf("wrote %s (%zu output arrays)\n", args.get("out").c_str(),
                    out.entries().size());
    } else {
        std::fputs(out.serialize().c_str(), stdout);
    }
    return 0;
}

int cmd_batch(const Args& args) {
    if (args.has("help")) {
        std::printf(
            "mfc batch --scheduler <slurm|pbs|lsf|flux|interactive>\n"
            "          [--name <job>] [--nodes <n>] [--tasks-per-node <n>]\n"
            "          [--gpus-per-node <n>] [--walltime <hh:mm:ss>]\n"
            "          [--partition <p>] [--account <a>] [--rdma]\n"
            "          [--profile] [--command <cmd>]\n");
        return 0;
    }
    JobOptions opts;
    opts.job_name = args.get("name", "mfc");
    opts.nodes = static_cast<int>(parse_int(args.get("nodes", "1")));
    opts.tasks_per_node =
        static_cast<int>(parse_int(args.get("tasks-per-node", "1")));
    opts.gpus_per_node =
        static_cast<int>(parse_int(args.get("gpus-per-node", "0")));
    opts.walltime = args.get("walltime", "01:00:00");
    opts.partition = args.get("partition", "");
    opts.account = args.get("account", "");
    opts.gpu_aware_mpi = args.has("rdma");
    opts.profile = args.has("profile");
    opts.command = args.get("command", "./mfc run case.txt");
    const Toolchain tc;
    std::fputs(
        tc.job_script(scheduler_from_string(args.get("scheduler", "slurm")), opts)
            .c_str(),
        stdout);
    return 0;
}

int cmd_profile(const Args& args) {
    if (args.has("help") ||
        (args.positional().empty() && !args.has("standard"))) {
        std::printf(
            "mfc profile <case-file> | --standard <edge> [options]\n\n"
            "Run a case with telemetry zones enabled and print the per-phase\n"
            "grindtime decomposition (see docs/observability.md).\n\n"
            "  --standard <edge>  standardized 3D two-fluid benchmark case\n"
            "                     with <edge> cells per dimension\n"
            "  -n <ranks>         decomposed run through simMPI over the\n"
            "                     case's active axes, with the min/mean/max\n"
            "                     spread across ranks (default 1: serial)\n"
            "  --steps <n>        timed steps (default: case t_step_stop)\n"
            "  --warmup <n>       untimed warm-up steps (default 1)\n"
            "  --threads <n>      worker threads for the pencil kernels\n"
            "                     (default 1; also MFC_NUM_THREADS)\n"
            "  --min-pct <p>      hide phases below p%% of total (default 0.5)\n"
            "  --trace <f.json>   write chrome://tracing events to <f.json>\n"
            "  --yaml <f.yml>     write the decomposition as YAML\n");
        return args.has("help") ? 0 : 2;
    }
    require_one_case(args);

    CaseConfig config =
        args.has("standard")
            ? standardized_benchmark_case(
                  static_cast<int>(parse_int(args.get("standard"))))
            : config_from_dict(load_case_file(args.positional()[0]));
    if (args.has("steps")) {
        config.t_step_stop = static_cast<int>(parse_int(args.get("steps")));
        config.validate();
    }
    const int ranks = static_cast<int>(parse_int(args.get("n", "1")));
    const int warmup = static_cast<int>(parse_int(args.get("warmup", "1")));
    const double min_pct = parse_double(args.get("min-pct", "0.5"));
    MFC_REQUIRE(ranks >= 1, "profile: -n must be positive");
    MFC_REQUIRE(warmup >= 0, "profile: --warmup must be non-negative");
    if (args.has("threads")) {
        exec::set_num_threads(static_cast<int>(parse_int(args.get("threads"))));
    }

    telemetry::set_enabled(true);
    telemetry::set_tracing(args.has("trace"));
    // Counter tracks ride along in the trace: the per-step registry
    // samples merge into the phase events as Chrome "C" rows.
    if (args.has("trace")) telemetry::set_armed(true);

    const long long cells = config.grid.total_cells();
    const int eqns = config.layout().num_eqns();
    std::printf("case: %s  (%lld cells, %d eqns, %d steps + %d warm-up, "
                "%d rank%s)\nisa:  %s\n\n",
                config.title.c_str(), cells, eqns, config.t_step_stop, warmup,
                ranks, ranks == 1 ? "" : "s", simd::isa_label().c_str());

    // The command owns the process, so reset() may drop the warm-up's
    // zones, trace events and counter samples before the timed run.
    const LaunchResult run =
        run_timed(config, {.ranks = ranks,
                           .warmup_steps = warmup,
                           .zones = true,
                           .reset_telemetry = true});
    const telemetry::GrindDecomposition decomposition =
        telemetry::grind_decomposition(run.zones, cells, eqns, run.rhs_evals);

    std::fputs(
        telemetry::decomposition_table(decomposition, min_pct).str().c_str(),
        stdout);
    if (ranks > 1) {
        std::printf("\nper-rank spread (exclusive time):\n%s",
                    telemetry::rank_spread_table(run.zones).str().c_str());
    }
    const double coverage =
        run.wall_s > 0.0
            ? 100.0 * decomposition.total_ns * 1.0e-9 / run.wall_s
            : 0.0;
    std::printf("\nwalltime   %.3f s   grindtime  %.3f ns/point/eqn/step "
                "(%lld RHS evals)\n",
                run.wall_s, run.grindtime_ns, run.rhs_evals);
    // With worker threads the snapshot merges per-thread CPU time, so
    // coverage can legitimately exceed 100% of walltime.
    std::printf("profiled   %.1f%% of walltime%s; phase grindtimes sum to "
                "%.3f ns\n",
                coverage,
                exec::num_threads() > 1 ? " (summed across threads)" : "",
                decomposition.total_grind_ns);

    if (args.has("trace")) {
        telemetry::write_chrome_trace(args.get("trace"));
        std::printf("wrote %s (open via chrome://tracing or ui.perfetto.dev)\n",
                    args.get("trace").c_str());
    }
    if (args.has("yaml")) {
        Yaml out;
        out["case"].set(Value(config.title));
        out["cells"].set(Value(cells));
        out["eqns"].set(Value(static_cast<long long>(eqns)));
        out["ranks"].set(Value(static_cast<long long>(ranks)));
        out["isa"].set(Value(simd::isa_label()));
        out["walltime_s"].set(Value(run.wall_s));
        out["grindtime_ns"].set(Value(run.grindtime_ns));
        out["phases"] = telemetry::phases_yaml(decomposition);
        out.save(args.get("yaml"));
        std::printf("wrote %s\n", args.get("yaml").c_str());
    }
    return 0;
}

int cmd_chaos(const Args& args) {
    if (args.has("help") ||
        (args.positional().empty() && !args.has("standard"))) {
        std::printf(
            "mfc chaos <case-file> | --standard [options]\n\n"
            "Fault-injection campaign: N trials of the case under injected\n"
            "faults, each recovered by rollback to the last checksummed\n"
            "checkpoint (see docs/resilience.md). The YAML report is fully\n"
            "deterministic for a given seed.\n\n"
            "  --standard          standardized 3D two-fluid benchmark case\n"
            "  --edge <n>          cells per dimension for --standard "
            "(default 16)\n"
            "  -n <ranks>          simMPI ranks (default 2)\n"
            "  --trials <n>        injected runs (default 4)\n"
            "  --seed <n>          campaign seed (default 1; 0 = case hash)\n"
            "  --faults <list>     comma list of "
            "crash,stall,drop,drop-once,corrupt,delay\n"
            "                      (default crash,drop,corrupt)\n"
            "  --steps <n>         time steps per trial (default 8)\n"
            "  --interval <n>      checkpoint every n steps (default 4;\n"
            "                      0 = Young/Daly auto from --mtbf)\n"
            "  --mtbf <s>          assumed MTBF for auto interval "
            "(default 300)\n"
            "  --max-attempts <n>  rollback budget per trial (default 16)\n"
            "  --dir <path>        checkpoint directory (default .)\n"
            "  --timeout-ms <n>    detector first poll timeout (default 5)\n"
            "  --retries <n>       detector retries before diagnosis "
            "(default 5)\n"
            "  --no-reference      skip the fault-free reference run\n"
            "  --postmortem <f>    dump the flight-recorder rings to <f> on\n"
            "                      each diagnosed failure (also honors the\n"
            "                      MFC_POSTMORTEM environment variable)\n"
            "  -o <report.yml>     write the YAML report\n\n"
            "Exit status 0 iff every trial completed and every detectable\n"
            "fault was detected.\n");
        return args.has("help") ? 0 : 2;
    }
    require_one_case(args);

    CaseConfig config =
        args.has("standard")
            ? standardized_benchmark_case(
                  static_cast<int>(parse_int(args.get("edge", "16"))))
            : config_from_dict(load_case_file(args.positional()[0]));
    config.t_step_stop = static_cast<int>(parse_int(args.get("steps", "8")));
    config.validate();

    resilience::ChaosOptions opts;
    opts.trials = static_cast<int>(parse_int(args.get("trials", "4")));
    opts.seed = static_cast<std::uint64_t>(parse_int(args.get("seed", "1")));
    if (args.has("faults")) {
        opts.mix.clear();
        for (const std::string& tok : split(args.get("faults"), ',')) {
            opts.mix.push_back(resilience::fault_kind_from_string(trim(tok)));
        }
    }
    opts.reference_check = !args.has("no-reference");
    opts.recovery.ranks = static_cast<int>(parse_int(args.get("n", "2")));
    opts.recovery.checkpoint_interval =
        static_cast<int>(parse_int(args.get("interval", "4")));
    opts.recovery.mtbf_s = parse_double(args.get("mtbf", "300"));
    opts.recovery.max_attempts =
        static_cast<int>(parse_int(args.get("max-attempts", "16")));
    opts.recovery.checkpoint_dir = args.get("dir", ".");
    opts.recovery.tag = "chaos";
    opts.recovery.comm.op_timeout =
        std::chrono::milliseconds(parse_int(args.get("timeout-ms", "5")));
    opts.recovery.comm.max_retries =
        static_cast<int>(parse_int(args.get("retries", "5")));
    if (args.has("postmortem")) {
        telemetry::set_postmortem_path(args.get("postmortem"));
    }

    const resilience::ChaosReport report =
        resilience::run_campaign(config, opts);

    std::printf("chaos campaign: %d trials, %d ranks, %d steps, "
                "checkpoint every %d\n\n",
                static_cast<int>(report.trials.size()), report.ranks,
                report.steps, report.interval);
    TextTable t({"Trial", "Fault", "Fired", "Detected", "Rollbacks",
                 "Replayed", "State"});
    for (const resilience::ChaosTrial& trial : report.trials) {
        t.add_row({std::to_string(trial.index), trial.fault.describe(),
                   trial.fired ? "yes" : "no",
                   trial.detected ? "yes"
                                  : (resilience::is_detectable(trial.fault.kind)
                                         ? "NO"
                                         : "benign"),
                   std::to_string(trial.stats.rollbacks +
                                  trial.stats.cold_restarts),
                   std::to_string(trial.stats.steps_replayed),
                   !trial.completed ? "INCOMPLETE"
                   : !opts.reference_check ? "n/a"
                   : trial.state_matches_reference ? "match"
                                                   : "MISMATCH"});
    }
    std::fputs(t.str().c_str(), stdout);
    std::printf("\ncompletion %d/%d   detected %d/%d detectable   "
                "wasted work %.1f%%\n",
                report.completed_trials,
                static_cast<int>(report.trials.size()), report.faults_detected,
                report.faults_detectable, report.wasted_work_pct);

    if (args.has("o")) {
        report.yaml().save(args.get("o"));
        std::printf("wrote %s\n", args.get("o").c_str());
    }
    return report.all_clear() ? 0 : 1;
}

int cmd_ensemble(const Args& args) {
    if (args.has("help")) {
        std::printf(
            "mfc ensemble [options]\n\n"
            "Campaign engine: serve a heterogeneous batch of simulations —\n"
            "regression cases, benchmark repetitions, chaos trials, and\n"
            "UQ samples — from one process, each exec worker thread\n"
            "running one job at a time (docs/ensemble.md).\n"
            "Reports are byte-identical for a fixed seed at any worker\n"
            "count; cached results are reused across runs.\n\n"
            "  --regression <n>    regression-suite cases (default 64)\n"
            "  --bench-reps <n>    repetitions of each of the 5 benchmark\n"
            "                      cases (default 2)\n"
            "  --chaos <n>         fault-injection trials (default 8)\n"
            "  --uq <n>            UQ samples of the standardized case\n"
            "                      (default 32)\n"
            "  --seed <n>          UQ sampler seed (default 2026)\n"
            "  --mc                Monte-Carlo sampling instead of Latin\n"
            "                      hypercube\n"
            "  --edge <n>          UQ base-case cells/dim (default 12)\n"
            "  --steps <n>         UQ time steps (default 4)\n"
            "  --mem <gb>          benchmark sizing per case (default 0.0002)\n"
            "  --threads <n>       exec worker threads (default 1; also\n"
            "                      MFC_NUM_THREADS) — one campaign worker\n"
            "                      per thread\n"
            "  --cache-dir <dir>   result cache directory (default: no cache)\n"
            "  --fail-fast         stop at the first failure\n"
            "  --max-failures <n>  stop after more than n failures\n"
            "  --golden-dir <dir>  regression golden root (default goldens;\n"
            "                      cases without a golden pass on completion)\n"
            "  --dir <path>        chaos checkpoint scratch (default: temp)\n"
            "  --timing            add a non-deterministic timing: section\n"
            "  -o <report.yml>     write the campaign report\n\n"
            "Exit status 0 iff every job passed and none were cancelled.\n");
        return 0;
    }
    if (args.has("threads")) {
        exec::set_num_threads(static_cast<int>(parse_int(args.get("threads"))));
    }

    const int n_regression =
        static_cast<int>(parse_int(args.get("regression", "64")));
    const int bench_reps =
        static_cast<int>(parse_int(args.get("bench-reps", "2")));
    const int n_chaos = static_cast<int>(parse_int(args.get("chaos", "8")));
    const int n_uq = static_cast<int>(parse_int(args.get("uq", "32")));

    std::vector<ensemble::JobSpec> jobs;
    if (n_regression > 0) {
        const TestSuite suite =
            Toolchain().test_suite(args.get("golden-dir", "goldens"));
        const std::size_t n = std::min(suite.cases().size(),
                                       static_cast<std::size_t>(n_regression));
        jobs = ensemble::regression_jobs(
            suite, std::span(suite.cases()).first(n), TestMode::Compare);
        for (ensemble::JobSpec& spec : jobs) {
            // A case with no golden passes on completion.
            if (!std::filesystem::exists(spec.golden_path)) spec.golden_path.clear();
        }
    }
    const int reg_added = static_cast<int>(jobs.size());
    const double mem = parse_double(args.get("mem", "0.0002"));
    for (int rep = 1; rep <= bench_reps; ++rep) {
        for (const std::string& name : BenchSuite::case_names()) {
            ensemble::JobSpec spec;
            spec.kind = ensemble::JobKind::Bench;
            spec.id = "bench-" + name + "-" + std::to_string(rep);
            spec.bench_case = name;
            spec.bench_mem_gb = mem;
            jobs.push_back(std::move(spec));
        }
    }
    if (n_chaos > 0) {
        const CaseDict chaos_base = dict_from_config(
            standardized_benchmark_case(/*cells_per_dim=*/10, /*t_step_stop=*/6));
        const std::string scratch = args.get(
            "dir", std::filesystem::temp_directory_path().string());
        for (int t = 0; t < n_chaos; ++t) {
            ensemble::JobSpec spec;
            spec.kind = ensemble::JobKind::Chaos;
            spec.id = "chaos-" + std::to_string(t);
            spec.params = chaos_base;
            spec.chaos_seed = static_cast<std::uint64_t>(t + 1);
            spec.chaos_ranks = 2;
            spec.scratch_dir = scratch;
            jobs.push_back(std::move(spec));
        }
    }
    if (n_uq > 0) {
        ensemble::UqPlan plan;
        plan.samples = n_uq;
        plan.seed = static_cast<std::uint64_t>(parse_int(args.get("seed", "2026")));
        plan.latin_hypercube = !args.has("mc");
        plan.edge = static_cast<int>(parse_int(args.get("edge", "12")));
        plan.steps = static_cast<int>(parse_int(args.get("steps", "4")));
        for (ensemble::JobSpec& spec :
             ensemble::make_uq_jobs(plan, ensemble::default_uq_parameters())) {
            jobs.push_back(std::move(spec));
        }
    }

    ensemble::EngineOptions eopts;
    eopts.cache_dir = args.get("cache-dir", "");
    eopts.fail_fast = args.has("fail-fast");
    eopts.max_failures =
        static_cast<int>(parse_int(args.get("max-failures", "-1")));
    eopts.timing = args.has("timing");

    ensemble::Engine engine(eopts);
    ensemble::CampaignYamlWriter writer;
    ensemble::RunningStats stats;
    ensemble::MomentFieldAccumulator moments;
    engine.add_consumer(&writer);
    engine.add_consumer(&stats);
    engine.add_consumer(&moments);

    std::printf("ensemble campaign: %zu jobs (%d regression, %d bench, "
                "%d chaos, %d uq)\n\n",
                jobs.size(), reg_added,
                bench_reps * static_cast<int>(BenchSuite::case_names().size()),
                n_chaos, n_uq);

    Yaml report;
    const ensemble::CampaignSummary s = engine.run(jobs, report);

    if (report.contains("kinds")) {
        TextTable t({"Kind", "Passed", "Total"});
        t.set_align(1, TextTable::Align::Right);
        t.set_align(2, TextTable::Align::Right);
        const Yaml& kinds = report.at("kinds");
        for (const std::string& kind : kinds.keys()) {
            t.add_row({kind,
                       kinds.at(kind).at("passed").value().to_string(),
                       kinds.at(kind).at("total").value().to_string()});
        }
        std::fputs(t.str().c_str(), stdout);
    }
    if (report.contains("failures")) {
        std::printf("\nfailures:\n");
        for (const Yaml& f : report.at("failures").items()) {
            std::printf("  %s\n", f.value().to_string().c_str());
        }
    }
    std::printf("\n%lld/%lld passed, %lld failed, %lld cancelled   "
                "cache hits %lld\n",
                s.passed, s.delivered, s.failed, s.cancelled, s.cached);
    std::printf("%d worker%s, %.2f s wall (%.1f jobs/s)\n", s.workers,
                s.workers == 1 ? "" : "s", s.wall_s,
                s.wall_s > 0.0 ? static_cast<double>(s.delivered) / s.wall_s
                               : 0.0);
    if (args.has("o")) {
        report.save(args.get("o"));
        std::printf("wrote %s\n", args.get("o").c_str());
    }
    return s.ok() ? 0 : 1;
}

int cmd_pre_process(const Args& args) {
    if (args.has("help") || args.positional().empty()) {
        std::printf("mfc pre_process <case-file> --out <snapshot.bin>\n");
        return args.has("help") ? 0 : 2;
    }
    const Toolchain tc;
    const std::string out = args.get("out", "ic.bin");
    tc.pre_process(load_case_file(args.positional()[0]), out);
    std::printf("wrote initial-condition snapshot %s\n", out.c_str());
    return 0;
}

int cmd_simulation(const Args& args) {
    if (args.has("help") || args.positional().empty()) {
        std::printf("mfc simulation <case-file> --in <ic.bin> --out <final.bin>\n");
        return args.has("help") ? 0 : 2;
    }
    const Toolchain tc;
    const std::string in = args.get("in", "ic.bin");
    const std::string out = args.get("out", "final.bin");
    tc.simulation(load_case_file(args.positional()[0]), in, out);
    std::printf("advanced %s -> %s\n", in.c_str(), out.c_str());
    return 0;
}

int cmd_post_process(const Args& args) {
    if (args.has("help") || args.positional().empty()) {
        std::printf("mfc post_process <case-file> --in <final.bin> --out <flow.vtk>\n");
        return args.has("help") ? 0 : 2;
    }
    const Toolchain tc;
    const std::string in = args.get("in", "final.bin");
    const std::string out = args.get("out", "flow.vtk");
    const std::vector<std::string> fields =
        tc.post_process(load_case_file(args.positional()[0]), in, out);
    std::printf("wrote %s with fields:", out.c_str());
    for (const std::string& f : fields) std::printf(" %s", f.c_str());
    std::printf("\n");
    return 0;
}

int cmd_devices(const Args& args) {
    if (args.has("help")) {
        std::printf(
            "mfc devices\n\n"
            "Table 3: the standardized case's grindtime on the 49 catalogued\n"
            "devices, the paper's measurement next to the roofline model's\n"
            "prediction and their ratio, then the Kendall tau of the two\n"
            "orderings and the ratio range. Pure model arithmetic; measure\n"
            "this host's row with `mfc profile --standard 32 --steps 4`.\n");
        return 0;
    }
    std::printf("Table 3: standardized case grindtime (two-phase 3D, 8 PDEs, "
                "WENO5 + HLLC + RK3, FP64)\n\n");
    const perf::KernelModel model;
    TextTable t({"Hardware", "Type", "Usage", "Compiler", "Paper [ns]",
                 "Model [ns]", "Ratio"});
    for (std::size_t col : {4u, 5u, 6u}) t.set_align(col, TextTable::Align::Right);
    std::vector<double> modeled;
    std::vector<double> paper;
    double min_ratio = 1e9;
    double max_ratio = 0.0;
    for (const perf::DeviceSpec& d : perf::device_catalog()) {
        const double g = model.grindtime_ns(d);
        const double ratio = g / d.paper_grindtime_ns;
        modeled.push_back(g);
        paper.push_back(d.paper_grindtime_ns);
        min_ratio = std::min(min_ratio, ratio);
        max_ratio = std::max(max_ratio, ratio);
        t.add_row({d.name, perf::to_string(d.type), d.usage, d.compiler,
                   format_sig2(d.paper_grindtime_ns), format_sig2(g),
                   format_fixed(ratio, 2)});
    }
    std::fputs(t.str().c_str(), stdout);
    std::printf("\nDevices: %zu   Kendall tau(model, paper) = %.3f   "
                "ratio range = [%.2f, %.2f]\n",
                modeled.size(), perf::kendall_tau(modeled, paper), min_ratio,
                max_ratio);
    return 0;
}

std::string by3(int a, int b, int c) {
    return std::to_string(a) + " x " + std::to_string(b) + " x " +
           std::to_string(c);
}

/// Fig. 2's columns, with Table 4's process box and global grid.
TextTable weak_table(const std::vector<perf::ScalingPoint>& points) {
    TextTable t({"Ranks", "Decomposition", "Discretization", "Cells [B]",
                 "Step [ms]", "Grind x ranks [ns]", "Comm %", "Efficiency"});
    for (std::size_t col : {0u, 3u, 4u, 5u, 6u, 7u})
        t.set_align(col, TextTable::Align::Right);
    for (const perf::ScalingPoint& p : points) {
        t.add_row({std::to_string(p.ranks),
                   by3(p.dims[0], p.dims[1], p.dims[2]),
                   by3(p.global.nx, p.global.ny, p.global.nz),
                   format_fixed(static_cast<double>(p.global.cells()) / 1e9, 2),
                   format_fixed(p.step_seconds * 1e3, 2),
                   format_fixed(p.grindtime_ns * p.ranks, 2),
                   format_fixed(100.0 * p.comm_fraction, 1),
                   format_fixed(100.0 * p.efficiency, 1) + "%"});
    }
    return t;
}

/// Fig. 3's columns: speedup and ideal against the first rank count.
TextTable strong_table(const std::vector<perf::ScalingPoint>& points) {
    TextTable t({"Ranks", "Cells/rank [M]", "Step [ms]", "Speedup", "Ideal",
                 "Efficiency"});
    for (std::size_t col = 0; col < 6; ++col)
        t.set_align(col, TextTable::Align::Right);
    const int base = points.front().ranks;
    for (const perf::ScalingPoint& p : points) {
        t.add_row({std::to_string(p.ranks),
                   format_fixed(static_cast<double>(p.cells_per_rank) / 1e6, 2),
                   format_fixed(p.step_seconds * 1e3, 2),
                   format_fixed(p.speedup, 1),
                   format_fixed(static_cast<double>(p.ranks) / base, 0),
                   format_fixed(100.0 * p.efficiency, 1) + "%"});
    }
    return t;
}

int cmd_scale(const Args& args) {
    if (args.has("help")) {
        std::printf(
            "mfc scale [--system <name>] [--strong] [--no-rdma] [--igr]\n"
            "          [--overlap] [--edge <n>] [--ranks <r1,r2,...>]\n\n"
            "Model weak or strong scaling of the standardized case from the\n"
            "roofline and interconnect models. Without --system every system\n"
            "below runs, and a weak run ends with the Table 5 summary. Without\n"
            "--ranks each system doubles from its base case to its limit case.\n\n"
            "  --strong   split one --edge^3 grid (default 634) over the ranks\n"
            "  --no-rdma  host-staged MPI instead of GPU-aware MPI\n"
            "  --igr      IGR numerics instead of WENO\n"
            "  --overlap  model the task-graph halo/compute overlap\n"
            "             schedule (src/sched) instead of the synchronous\n"
            "             exchange\n\n"
            "Paper results:\n"
            "  Fig. 2, Table 5  mfc scale\n"
            "  Table 4          mfc scale --system \"OLCF Frontier\"\n"
            "                     --ranks 128,384,1024,3072,8192,24576,65536\n"
            "  Fig. 3(a)        mfc scale --system \"OLCF Frontier\" --strong\n"
            "                     --ranks 8,16,32,64,128,256,512,1024,2048,4096\n"
            "                     (and again with --no-rdma)\n"
            "  Fig. 3(b)        mfc scale --system \"CSCS Alps\" --strong --igr\n"
            "                     --edge 1600\n"
            "                     --ranks 8,16,32,64,128,256,512,1024,2048,4096\n\n"
            "Systems:\n");
        for (const auto& s : perf::system_catalog()) {
            std::printf("  %s\n", s.name.c_str());
        }
        return 0;
    }
    const std::vector<perf::SystemSpec> systems =
        args.has("system") ? std::vector{perf::find_system(args.get("system"))}
                           : perf::system_catalog();
    std::vector<int> requested;
    if (args.has("ranks")) {
        for (const std::string& r : split(args.get("ranks"), ',')) {
            requested.push_back(static_cast<int>(parse_int(r)));
        }
    }
    const bool strong = args.has("strong");
    const int edge = static_cast<int>(parse_int(args.get("edge", "634")));
    const perf::NumericsModel numerics = args.has("igr")
                                             ? perf::NumericsModel::igr()
                                             : perf::NumericsModel{};

    TextTable table5({"System", "Base case", "Limit case", "Efficiency",
                      "Paper"});
    table5.set_align(3, TextTable::Align::Right);
    table5.set_align(4, TextTable::Align::Right);
    for (const perf::SystemSpec& sys : systems) {
        perf::ScalingSimulator sim(sys, numerics, !args.has("no-rdma"));
        sim.set_overlap(args.has("overlap"));
        const std::vector<int> ranks =
            requested.empty() ? sys.base_to_limit_ranks() : requested;
        const std::string size =
            strong ? std::to_string(edge) + "^3 cells"
                   : std::to_string(sys.weak_edge) + "^3 cells/rank";
        std::printf("%s — %s scaling: %s, %s, %s; %s numerics, %s MPI%s\n",
                    sys.name.c_str(), strong ? "strong" : "weak",
                    sys.device_name.c_str(), size.c_str(),
                    sys.network.name.c_str(), args.has("igr") ? "IGR" : "WENO",
                    args.has("no-rdma") ? "host-staged" : "GPU-aware",
                    args.has("overlap") ? ", overlap schedule" : "");
        if (strong) {
            const std::vector<perf::ScalingPoint> points =
                sim.strong_sweep(Extents{edge, edge, edge}, ranks);
            std::fputs(strong_table(points).str().c_str(), stdout);
        } else {
            const std::vector<perf::ScalingPoint> points = sim.weak_sweep(ranks);
            std::fputs(weak_table(points).str().c_str(), stdout);
            table5.add_row(
                {sys.name,
                 std::to_string(points.front().ranks) + " " + sys.rank_label,
                 std::to_string(points.back().ranks) + " " + sys.rank_label,
                 format_fixed(100.0 * points.back().efficiency, 0) + "%",
                 format_fixed(100.0 * sys.paper_efficiency, 0) + "%"});
        }
        std::printf("\n");
    }
    if (!strong && !args.has("system")) {
        std::printf("Table 5: weak-scaling efficiency, base to limit case\n");
        std::fputs(table5.str().c_str(), stdout);
    }
    return 0;
}

int usage() {
    std::printf(
        "mfc — testing and benchmarking toolchain (C++ reproduction of the\n"
        "MFC wrapper script; see README.md)\n\n"
        "usage: mfc <tool> [options]   (each tool accepts --help)\n\n");
    (void)cmd_tools();
    std::printf("%-12s %s\n", "profile",
                "Per-phase grindtime decomposition of a case");
    std::printf("%-12s %s\n", "ubench",
                "Microbenchmark the hot pencil kernels standalone");
    std::printf("%-12s %s\n", "chaos",
                "Fault-injection campaign with checkpoint recovery");
    std::printf("%-12s %s\n", "ensemble",
                "Serve a mixed simulation campaign from one process");
    std::printf("%-12s %s\n", "batch", "Render a scheduler batch script");
    std::printf("%-12s %s\n", "devices", "Table 3 device catalog, model vs paper");
    std::printf("%-12s %s\n", "scale",
                "Table 4, Fig. 2/3, Table 5: modeled weak/strong scaling");
    std::printf("%-12s %s\n", "pre_process", "Write an initial-condition snapshot");
    std::printf("%-12s %s\n", "simulation", "Advance a snapshot in time");
    std::printf("%-12s %s\n", "post_process", "Snapshot -> VTK visualization");
    return 2;
}

/// One verb: its handler, the most positional arguments it takes, and
/// the flags it accepts (--help is implicit).
struct Verb {
    const char* name;
    int (*run)(const Args&);
    std::size_t positionals;
    std::vector<std::string> values;   ///< flags that take a value
    std::vector<std::string> switches; ///< flags that stand alone
};

const std::vector<Verb>& verbs() {
    static const std::vector<Verb> table = {
        {"tools", [](const Args&) { return cmd_tools(); }, 0, {}, {}},
        {"load", cmd_load, 0, {"c", "m"}, {}},
        {"build", cmd_build, 0, {"c", "m", "gpu"}, {"case-optimization"}},
        {"test", cmd_test, 0, {"golden-dir", "o", "max"},
         {"list", "generate", "add-new-variables"}},
        {"bench", cmd_bench, 0,
         {"mem", "n", "o", "warmup", "threads", "chaos", "ensemble",
          "ranks-threads"},
         {"no-profile", "overlap", "timing"}},
        {"bench_diff", cmd_bench_diff, 2, {}, {}},
        {"ubench", cmd_ubench, 0, {"cells", "reps", "width", "o", "check"}, {}},
        {"run", cmd_run, 1, {"out", "threads", "ranks", "metrics"},
         {"overlap", "hash"}},
        {"profile", cmd_profile, 1,
         {"standard", "n", "steps", "warmup", "threads", "min-pct", "trace",
          "yaml"},
         {}},
        // `--standard` is a switch here; the edge rides on --edge.
        {"chaos", cmd_chaos, 1,
         {"edge", "n", "trials", "seed", "faults", "steps", "interval", "mtbf",
          "max-attempts", "dir", "timeout-ms", "retries", "postmortem", "o"},
         {"standard", "no-reference"}},
        {"ensemble", cmd_ensemble, 0,
         {"regression", "bench-reps", "chaos", "uq", "seed", "edge", "steps",
          "mem", "threads", "cache-dir", "max-failures", "golden-dir", "dir",
          "o"},
         {"mc", "fail-fast", "timing"}},
        {"batch", cmd_batch, 0,
         {"scheduler", "name", "nodes", "tasks-per-node", "gpus-per-node",
          "walltime", "partition", "account", "command"},
         {"rdma", "profile"}},
        {"devices", cmd_devices, 0, {}, {}},
        {"scale", cmd_scale, 0, {"system", "edge", "ranks"},
         {"strong", "no-rdma", "igr", "overlap"}},
        {"pre_process", cmd_pre_process, 1, {"out"}, {}},
        {"simulation", cmd_simulation, 1, {"in", "out"}, {}},
        {"post_process", cmd_post_process, 1, {"in", "out"}, {}},
    };
    return table;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string tool = argv[1];
    for (const Verb& verb : verbs()) {
        if (tool != verb.name) continue;
        try {
            return verb.run(Args(argc - 2, argv + 2, verb.values, verb.switches,
                                 verb.positionals));
        } catch (const mfc::Error& e) {
            std::fprintf(stderr, "mfc %s: error: %s\n", tool.c_str(), e.what());
            return 1;
        }
    }
    std::fprintf(stderr, "unknown tool: %s\n\n", tool.c_str());
    return usage();
}
