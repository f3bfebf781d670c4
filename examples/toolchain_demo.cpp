// End-to-end walk through the toolchain workflow of Section 3 — the five
// steps a user follows to test and benchmark a new system:
//
//   1. load        modules + environment (Listing 1 registry)
//   2. build       plan targets, offload model, and dependencies
//   3. test        regression suite with golden files (Section 4)
//   4. bench       five-case benchmark suite + bench_diff (Section 5)
//   5. run         a user-defined case file
//
// plus batch-script generation through the scheduler templates.

#include <cstdio>
#include <filesystem>

#include "ensemble/engine.hpp"
#include "exec/exec.hpp"
#include "toolchain/toolchain.hpp"

int main() {
    using namespace mfc;
    using namespace mfc::toolchain;
    const Toolchain tc;

    std::printf("== Table 1: tools accessible via the wrapper script ==\n");
    for (const ToolInfo& t : Toolchain::tools()) {
        std::printf("  %-10s %s\n", t.name.c_str(), t.description.c_str());
    }

    std::printf("\n== Step 1: source ./mfc.sh load  (system f = OLCF Frontier, "
                "config g) ==\n");
    const LoadPlan env = tc.load("f", "g");
    std::fputs(env.shell_script().c_str(), stdout);

    std::printf("\n== Step 2: ./mfc.sh build --gpu mp ==\n%s\n",
                tc.build(env, "mp", /*case_optimization=*/true).summary().c_str());

    const std::string golden_root =
        std::filesystem::temp_directory_path() / "mfcpp_demo_goldens";
    std::filesystem::remove_all(golden_root);
    const TestSuite full = tc.test_suite(golden_root);
    std::printf("\n== Step 3: ./mfc.sh test (sampled; full suite is %zu "
                "cases) ==\n",
                full.cases().size());
    CaseList sample;
    for (std::size_t i = 0; i < full.cases().size(); i += 40) {
        sample.push_back(full.cases()[i]);
        std::printf("  %s  %s\n", sample.back().uuid.c_str(),
                    sample.back().trace.c_str());
    }
    // `mfc test` runs the selected cases as one campaign, one job per
    // case, on the exec pool's workers.
    const TestSuite suite(sample, golden_root);
    const int threads = exec::num_threads();
    exec::set_num_threads(4);
    const auto run = [&](TestMode mode) {
        ensemble::Engine engine(ensemble::EngineOptions{});
        Yaml report;
        return engine.run(ensemble::regression_jobs(suite, suite.cases(), mode),
                          report);
    };
    const ensemble::CampaignSummary gen = run(TestMode::Generate);
    std::printf("  --generate: %lld/%lld golden files written\n", gen.passed,
                gen.total);
    const ensemble::CampaignSummary cmp = run(TestMode::Compare);
    std::printf("  compare:    %lld/%lld passed (tolerance 1e-12 abs & rel)\n",
                cmp.passed, cmp.total);
    exec::set_num_threads(threads);

    std::printf("\n== Step 4: ./mfc.sh bench --mem <gb> -o bench.yml ==\n");
    const Yaml ref = tc.bench(2.0e-4, 1).run_all("bench --mem 2e-4 -n 1");
    const Yaml faster = tc.bench(2.0e-4, 2).run_all("bench --mem 2e-4 -n 2");
    std::fputs(ref.dump().c_str(), stdout);
    std::printf("\n== ./mfc.sh bench_diff ref.yml new.yml ==\n");
    std::fputs(tc.bench_diff(ref, faster).str().c_str(), stdout);

    std::printf("\n== Step 5: ./mfc.sh run case.py ==\n");
    CaseDict user_case = base_case_dict(1);
    for (const auto& [k, v] : model_params("5eqn")) user_case[k] = v;
    for (const auto& [k, v] : ic_params("5eqn", 1, "halfspace")) user_case[k] = v;
    const GoldenFile out = tc.run(user_case);
    std::printf("  produced %zu output arrays (%zu values each)\n",
                out.entries().size(), out.entries().front().second.size());

    std::printf("\n== Batch script from the Frontier (Slurm) template ==\n");
    JobOptions job;
    job.job_name = "mfc_weak_scaling";
    job.nodes = 16;
    job.tasks_per_node = 8;
    job.gpus_per_node = 8;
    job.account = "CFD154";
    job.gpu_aware_mpi = true; // MPICH_GPU_SUPPORT_ENABLED=1
    job.command = "./mfc.sh run examples/3D_performance_test/case.py";
    std::fputs(tc.job_script(Scheduler::Slurm, job).c_str(), stdout);

    std::filesystem::remove_all(golden_root);
    std::printf("\nOK\n");
    return 0;
}
