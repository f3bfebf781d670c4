#include "core/error.hpp"
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
#include <utility>
#include <vector>

#include "ensemble/engine.hpp"
#include "exec/exec.hpp"
#include "toolchain/test_suite.hpp"
#include "solver/simulation.hpp"
#include "toolchain/toolchain.hpp"

namespace mfc::toolchain {
namespace {

namespace fs = std::filesystem;

/// Scoped exec thread-count override restoring the previous value.
class ThreadGuard {
public:
    explicit ThreadGuard(int n) : prev_(exec::num_threads()) {
        exec::set_num_threads(n);
    }
    ~ThreadGuard() { exec::set_num_threads(prev_); }
    ThreadGuard(const ThreadGuard&) = delete;
    ThreadGuard& operator=(const ThreadGuard&) = delete;

private:
    int prev_;
};

/// Each failed job's index and detail, in delivery order.
class FailureLog : public ensemble::Consumer {
public:
    void on_result(const ensemble::JobResult& r) override {
        if (!r.passed) failures.emplace_back(r.index, r.detail);
    }
    [[nodiscard]] std::string first() const {
        return failures.empty() ? "" : failures.front().second;
    }

    std::vector<std::pair<long long, std::string>> failures;
};

/// Run `cases` of `suite` under `mode` as one campaign on `threads`
/// workers, as `mfc test` does.
ensemble::CampaignSummary run_campaign(const TestSuite& suite,
                                       std::span<const TestCaseDef> cases,
                                       TestMode mode, FailureLog& log,
                                       int threads = 4) {
    const ThreadGuard guard(threads);
    ensemble::Engine engine(ensemble::EngineOptions{});
    engine.add_consumer(&log);
    Yaml report;
    return engine.run(ensemble::regression_jobs(suite, cases, mode), report);
}

class SuiteWorkflow : public testing::Test {
protected:
    void SetUp() override {
        root_ = testing::TempDir() + "/mfcpp_goldens_" +
                testing::UnitTest::GetInstance()->current_test_info()->name();
        fs::remove_all(root_);
    }
    void TearDown() override { fs::remove_all(root_); }

    /// A handful of quick cases spanning dimensions and models.
    static CaseList sample_cases() {
        const CaseList all = generate_full_suite();
        CaseList out;
        for (std::size_t i = 0; i < all.size(); i += all.size() / 12) {
            out.push_back(all[i]);
        }
        return out;
    }

    std::string root_;
};

TEST_F(SuiteWorkflow, CompareWithoutGoldenFails) {
    const TestSuite suite(sample_cases(), root_);
    const TestOutcome o =
        suite.run_case(suite.cases().front(), TestMode::Compare);
    EXPECT_FALSE(o.passed);
    EXPECT_NE(o.detail.find("golden file missing"), std::string::npos);
}

TEST_F(SuiteWorkflow, GenerateThenCompareAllPass) {
    const TestSuite suite(sample_cases(), root_);
    FailureLog gen_log;
    const ensemble::CampaignSummary gen =
        run_campaign(suite, suite.cases(), TestMode::Generate, gen_log);
    EXPECT_EQ(gen.failed, 0) << gen_log.first();
    EXPECT_EQ(gen.total, static_cast<long long>(suite.cases().size()));

    FailureLog cmp_log;
    const ensemble::CampaignSummary cmp =
        run_campaign(suite, suite.cases(), TestMode::Compare, cmp_log);
    EXPECT_EQ(cmp.failed, 0) << cmp_log.first();
    EXPECT_EQ(cmp.passed, cmp.total);
}

TEST_F(SuiteWorkflow, GoldenDirectoryLayoutPerUuid) {
    const TestSuite suite(sample_cases(), root_);
    const TestCaseDef& def = suite.cases().front();
    (void)suite.run_case(def, TestMode::Generate);
    EXPECT_TRUE(fs::exists(root_ + "/" + def.uuid + "/golden.txt"));
    EXPECT_TRUE(fs::exists(root_ + "/" + def.uuid + "/golden-metadata.txt"));
    // Metadata records the UUID and trace.
    std::ifstream meta(root_ + "/" + def.uuid + "/golden-metadata.txt");
    std::string contents((std::istreambuf_iterator<char>(meta)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find(def.uuid), std::string::npos);
    EXPECT_NE(contents.find(def.trace), std::string::npos);
}

TEST_F(SuiteWorkflow, TamperedGoldenIsDetected) {
    const TestSuite suite(sample_cases(), root_);
    const TestCaseDef& def = suite.cases().front();
    (void)suite.run_case(def, TestMode::Generate);

    // Corrupt one value beyond both tolerances.
    const std::string gpath = suite.golden_path(def.uuid);
    GoldenFile g = GoldenFile::load(gpath);
    auto entries = g.entries();
    entries.front().second.front() += 1.0;
    GoldenFile(entries).save(gpath);

    const TestOutcome o = suite.run_case(def, TestMode::Compare);
    EXPECT_FALSE(o.passed);
}

TEST_F(SuiteWorkflow, ZeroByteOrDirectoryGoldenFailsNamingTheFile) {
    const TestSuite suite(sample_cases(), root_);
    const TestCaseDef& def = suite.cases().front();
    ASSERT_TRUE(suite.run_case(def, TestMode::Generate).passed);
    const std::string gpath = suite.golden_path(def.uuid);

    std::ofstream(gpath, std::ios::trunc).close();
    TestOutcome o = suite.run_case(def, TestMode::Compare);
    EXPECT_FALSE(o.passed);
    EXPECT_NE(o.detail.find(gpath), std::string::npos) << o.detail;

    fs::remove(gpath);
    fs::create_directory(gpath);
    o = suite.run_case(def, TestMode::Compare);
    EXPECT_FALSE(o.passed);
    EXPECT_NE(o.detail.find(gpath), std::string::npos) << o.detail;
}

TEST_F(SuiteWorkflow, GoldenWriteToAFullDeviceFails) {
    if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    const TestSuite suite(sample_cases(), root_);
    const TestCaseDef& def = suite.cases().front();
    const std::string gpath = suite.golden_path(def.uuid);
    fs::create_directories(fs::path(gpath).parent_path());
    fs::create_symlink("/dev/full", gpath);
    const TestOutcome o = suite.run_case(def, TestMode::Generate);
    EXPECT_FALSE(o.passed);
    EXPECT_NE(o.detail.find(gpath), std::string::npos) << o.detail;
}

// golden-metadata.txt is written and checked like the golden: a path
// that cannot be opened, or a write that does not reach the file, fails
// the case naming the file.
TEST_F(SuiteWorkflow, MetadataWriteToADirectoryFails) {
    const TestSuite suite(sample_cases(), root_);
    const TestCaseDef& def = suite.cases().front();
    const std::string meta = root_ + "/" + def.uuid + "/golden-metadata.txt";
    fs::create_directories(meta);
    const TestOutcome o = suite.run_case(def, TestMode::Generate);
    EXPECT_FALSE(o.passed);
    EXPECT_NE(o.detail.find(meta), std::string::npos) << o.detail;
}

TEST_F(SuiteWorkflow, MetadataWriteToAFullDeviceFails) {
    if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    const TestSuite suite(sample_cases(), root_);
    const TestCaseDef& def = suite.cases().front();
    const std::string meta = root_ + "/" + def.uuid + "/golden-metadata.txt";
    fs::create_directories(fs::path(meta).parent_path());
    fs::create_symlink("/dev/full", meta);
    const TestOutcome o = suite.run_case(def, TestMode::Generate);
    EXPECT_FALSE(o.passed);
    EXPECT_NE(o.detail.find(meta), std::string::npos) << o.detail;
}

// A golden root that is a regular file cannot hold a case directory:
// the case fails naming the path instead of throwing out of run_case.
TEST_F(SuiteWorkflow, GoldenRootThatIsAFileFailsNamingThePath) {
    std::ofstream(root_).close();
    const TestSuite suite(sample_cases(), root_);
    const TestOutcome o =
        suite.run_case(suite.cases().front(), TestMode::Generate);
    EXPECT_FALSE(o.passed);
    EXPECT_NE(o.detail.find(root_), std::string::npos) << o.detail;
}

TEST_F(SuiteWorkflow, AddNewVariablesPreservesExisting) {
    const TestSuite suite(sample_cases(), root_);
    const TestCaseDef& def = suite.cases().front();
    (void)suite.run_case(def, TestMode::Generate);

    // Strip a variable from the golden file, then update.
    const std::string gpath = suite.golden_path(def.uuid);
    GoldenFile g = GoldenFile::load(gpath);
    auto entries = g.entries();
    const auto removed = entries.back();
    entries.pop_back();
    // Also perturb a kept entry to prove updates never touch it.
    auto kept = entries.front();
    entries.front().second.front() = -777.0;
    GoldenFile(entries).save(gpath);

    const TestOutcome o = suite.run_case(def, TestMode::AddNewVariables);
    EXPECT_TRUE(o.passed);
    const GoldenFile updated = GoldenFile::load(gpath);
    EXPECT_TRUE(updated.has(removed.first));               // re-added
    EXPECT_EQ(updated.values(removed.first), removed.second);
    EXPECT_DOUBLE_EQ(updated.values(kept.first).front(), -777.0); // untouched
}

TEST_F(SuiteWorkflow, AddNewVariablesWithoutGoldenFails) {
    const TestSuite suite(sample_cases(), root_);
    const TestOutcome o =
        suite.run_case(suite.cases().front(), TestMode::AddNewVariables);
    EXPECT_FALSE(o.passed);
}

TEST_F(SuiteWorkflow, RunSelectedByUuid) {
    const TestSuite suite(sample_cases(), root_);
    const std::string uuid = suite.cases()[1].uuid;
    FailureLog log;
    const ensemble::CampaignSummary s = run_campaign(
        suite, std::span(&suite.case_by_uuid(uuid), 1), TestMode::Generate,
        log);
    EXPECT_EQ(s.total, 1);
    EXPECT_EQ(s.passed, 1) << log.first();
    EXPECT_TRUE(fs::exists(suite.golden_path(uuid)));
    // Only the selected case's directory was written.
    EXPECT_EQ(std::distance(fs::directory_iterator(root_),
                            fs::directory_iterator()),
              1);
    EXPECT_THROW((void)suite.case_by_uuid("00000000"), Error);
}

// `mfc test` prints its FAIL lines from a consumer as results arrive.
// On a damaged golden set the failures arrive in case order, with the
// same details, at one thread and at four.
TEST_F(SuiteWorkflow, FailuresArriveInCaseOrderAtAnyThreadCount) {
    const CaseList all = generate_full_suite();
    CaseList cases;
    for (std::size_t i = 0; cases.size() < 24; i += all.size() / 24) {
        cases.push_back(all[i]);
    }
    const TestSuite suite(cases, root_);
    FailureLog gen;
    ASSERT_EQ(run_campaign(suite, suite.cases(), TestMode::Generate, gen)
                  .failed,
              0)
        << gen.first();

    const auto golden = [&](std::size_t i) {
        return suite.golden_path(suite.cases()[i].uuid);
    };
    for (const std::size_t i : {3, 11, 19}) {
        auto entries = GoldenFile::load(golden(i)).entries();
        entries.front().second.front() += 1.0;
        GoldenFile(entries).save(golden(i));
    }
    std::ofstream(golden(7), std::ios::trunc).close();
    fs::remove(golden(15));

    std::vector<std::pair<long long, std::string>> seen[2];
    const int threads[2] = {1, 4};
    for (int t = 0; t < 2; ++t) {
        FailureLog log;
        const ensemble::CampaignSummary s = run_campaign(
            suite, suite.cases(), TestMode::Compare, log, threads[t]);
        EXPECT_EQ(s.failed, 5) << "threads " << threads[t];
        seen[t] = log.failures;
    }
    EXPECT_EQ(seen[0], seen[1]);
    std::vector<long long> order;
    for (const auto& f : seen[0]) order.push_back(f.first);
    EXPECT_EQ(order, (std::vector<long long>{3, 7, 11, 15, 19}));
    ASSERT_EQ(seen[0].size(), 5u);
    EXPECT_NE(seen[0][1].second.find(golden(7)), std::string::npos)
        << seen[0][1].second;
    EXPECT_NE(seen[0][3].second.find("golden file missing"),
              std::string::npos)
        << seen[0][3].second;
}

TEST_F(SuiteWorkflow, GoldenOutputIsDeterministic) {
    const TestSuite suite(sample_cases(), root_);
    const TestCaseDef& def = suite.cases()[2];
    const GoldenFile a = TestSuite::execute_case(def.params);
    const GoldenFile b = TestSuite::execute_case(def.params);
    EXPECT_EQ(a.serialize(), b.serialize()); // bitwise-stable outputs
}

TEST_F(SuiteWorkflow, InvalidCaseReportsRunFailure) {
    CaseList cases = sample_cases();
    cases.front().params["weno_order"] = Value(4); // invalid
    const TestSuite suite(cases, root_);
    const TestOutcome o = suite.run_case(cases.front(), TestMode::Generate);
    EXPECT_FALSE(o.passed);
    EXPECT_NE(o.detail.find("run failed"), std::string::npos);
}

// --- facade -----------------------------------------------------------

TEST(Toolchain, ToolListMatchesTable1) {
    const auto& tools = Toolchain::tools();
    ASSERT_EQ(tools.size(), 6u);
    EXPECT_EQ(tools[0].name, "load");
    EXPECT_EQ(tools[1].name, "build");
    EXPECT_EQ(tools[2].name, "test");
    EXPECT_EQ(tools[3].name, "bench");
    EXPECT_EQ(tools[4].name, "bench_diff");
    EXPECT_EQ(tools[5].name, "run");
}

TEST(Toolchain, BuildPlanSelectsFftBackend) {
    const Toolchain tc;
    // CPU build -> FFTW.
    const LoadPlan cpu = tc.load("d", "cpu");
    const BuildPlan p1 = tc.build(cpu, "", false);
    EXPECT_EQ(p1.offload, OffloadModel::None);
    EXPECT_NE(std::find(p1.dependencies.begin(), p1.dependencies.end(), "fftw"),
              p1.dependencies.end());
    // NVIDIA GPU build -> cuFFT.
    const LoadPlan gpu = tc.load("d", "gpu");
    const BuildPlan p2 = tc.build(gpu, "acc", true);
    EXPECT_EQ(p2.offload, OffloadModel::OpenAcc);
    EXPECT_TRUE(p2.case_optimization);
    EXPECT_NE(std::find(p2.dependencies.begin(), p2.dependencies.end(), "cufft"),
              p2.dependencies.end());
    // AMD GPU build -> hipFFT.
    const LoadPlan frontier = tc.load("f", "g");
    const BuildPlan p3 = tc.build(frontier, "mp", false);
    EXPECT_NE(std::find(p3.dependencies.begin(), p3.dependencies.end(), "hipfft"),
              p3.dependencies.end());
}

TEST(Toolchain, BuildRejectsGpuModelOnCpuEnv) {
    const Toolchain tc;
    const LoadPlan cpu = tc.load("d", "cpu");
    EXPECT_THROW((void)tc.build(cpu, "acc", false), Error);
    EXPECT_THROW((void)tc.build(tc.load("d", "gpu"), "opencl", false), Error);
}

TEST(Toolchain, BuildPlanAlwaysHasSiloHdf5) {
    const Toolchain tc;
    const BuildPlan p = tc.build(tc.load("l", "cpu"), "", false);
    EXPECT_EQ(p.dependencies[0], "silo");
    EXPECT_EQ(p.dependencies[1], "hdf5");
    EXPECT_EQ(p.targets.size(), 3u);
    EXPECT_NE(p.summary().find("no-gpu"), std::string::npos);
}

TEST(Toolchain, ThreeTargetPipelineMatchesDirectRun) {
    // pre_process -> simulation -> post_process (Fig. 1's build targets)
    // must produce the same flow field as a direct Simulation::run().
    const Toolchain tc;
    CaseDict params = base_case_dict(2);
    for (const auto& [k, v] : model_params("5eqn")) params[k] = v;
    for (const auto& [k, v] : ic_params("5eqn", 2, "sphere")) params[k] = v;

    const std::string dir = testing::TempDir();
    const std::string ic = dir + "/pipeline_ic.bin";
    const std::string fin = dir + "/pipeline_final.bin";
    const std::string vtk = dir + "/pipeline.vtk";
    tc.pre_process(params, ic);
    tc.simulation(params, ic, fin);
    const std::vector<std::string> fields = tc.post_process(params, fin, vtk);

    // Fields include vorticity in 2D, and the VTK file parses as text.
    EXPECT_NE(std::find(fields.begin(), fields.end(), "vorticity"), fields.end());
    EXPECT_NE(std::find(fields.begin(), fields.end(), "schlieren"), fields.end());
    std::ifstream v(vtk);
    ASSERT_TRUE(v.good());
    std::string header;
    std::getline(v, header);
    EXPECT_EQ(header, "# vtk DataFile Version 3.0");

    // The final snapshot equals a direct run's state (bitwise).
    const CaseConfig config = config_from_dict(params);
    Simulation direct(config);
    direct.initialize();
    direct.run();
    Simulation loaded(config);
    loaded.initialize();
    loaded.load_restart(fin);
    for (int q = 0; q < direct.layout().num_eqns(); ++q) {
        for (int j = 0; j < config.grid.cells.ny; ++j) {
            for (int i = 0; i < config.grid.cells.nx; ++i) {
                ASSERT_EQ(loaded.state().eq(q)(i, j, 0),
                          direct.state().eq(q)(i, j, 0));
            }
        }
    }
    std::remove(ic.c_str());
    std::remove(fin.c_str());
    std::remove(vtk.c_str());
}

TEST(Toolchain, RunExecutesUserCase) {
    const Toolchain tc;
    CaseDict params = base_case_dict(1);
    for (const auto& [k, v] : model_params("5eqn")) params[k] = v;
    for (const auto& [k, v] : ic_params("5eqn", 1, "halfspace")) params[k] = v;
    const GoldenFile out = tc.run(params);
    EXPECT_EQ(out.entries().size(), 6u);
}

} // namespace
} // namespace mfc::toolchain
