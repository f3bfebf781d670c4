#include "core/error.hpp"
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "toolchain/test_suite.hpp"
#include "solver/simulation.hpp"
#include "toolchain/toolchain.hpp"

namespace mfc::toolchain {
namespace {

namespace fs = std::filesystem;

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
    const SuiteSummary gen = suite.run_all(TestMode::Generate);
    EXPECT_EQ(gen.failed, 0) << (gen.failures.empty()
                                     ? ""
                                     : gen.failures.front().trace + ": " +
                                           gen.failures.front().detail);
    EXPECT_EQ(gen.total, static_cast<int>(suite.cases().size()));

    const SuiteSummary cmp = suite.run_all(TestMode::Compare);
    EXPECT_EQ(cmp.failed, 0) << (cmp.failures.empty()
                                     ? ""
                                     : cmp.failures.front().trace + ": " +
                                           cmp.failures.front().detail);
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
    const SuiteSummary s = suite.run_selected({uuid}, TestMode::Generate);
    EXPECT_EQ(s.total, 1);
    EXPECT_EQ(s.passed, 1);
    EXPECT_TRUE(fs::exists(suite.golden_path(uuid)));
    EXPECT_THROW((void)suite.case_by_uuid("00000000"), Error);
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
