#include "core/error.hpp"
#include <gtest/gtest.h>

#include "toolchain/bench_suite.hpp"
#include "toolchain/toolchain.hpp"

namespace mfc::toolchain {
namespace {

constexpr double kTinyMem = 2.0e-4; // GB per rank: ~10^3-cell cases

TEST(Bench, FiveCasesCoveringCommonFeatures) {
    // Section 5: "MFC's automated benchmark suite contains five test
    // cases that cover its most commonly used features".
    EXPECT_EQ(BenchSuite::case_names().size(), 5u);
}

TEST(Bench, CaseConfigsSpanTheModels) {
    const BenchSuite suite(kTinyMem, 1);
    EXPECT_EQ(suite.case_config("5eq_weno5_hllc").model, ModelKind::FiveEquation);
    EXPECT_EQ(suite.case_config("euler_weno5_hllc").model, ModelKind::Euler);
    EXPECT_EQ(suite.case_config("6eq_weno5_hllc").model, ModelKind::SixEquation);
    EXPECT_EQ(suite.case_config("5eq_weno3_hll").weno_order, 3);
    EXPECT_EQ(suite.case_config("5eq_weno3_hll").riemann_solver,
              RiemannSolverKind::HLL);
    EXPECT_TRUE(suite.case_config("igr_jacobi").igr.enabled);
    EXPECT_THROW((void)suite.case_config("nope"), Error);
}

TEST(Bench, MemoryTargetScalesProblemSize) {
    const BenchSuite small(kTinyMem, 1);
    const BenchSuite large(8.0 * kTinyMem, 1);
    EXPECT_GT(large.case_config("5eq_weno5_hllc").grid.total_cells(),
              small.case_config("5eq_weno5_hllc").grid.total_cells());
}

TEST(Bench, RankCountScalesGlobalProblem) {
    // Weak-scaling style sizing: more ranks, proportionally more cells.
    const BenchSuite one(kTinyMem, 1);
    const BenchSuite eight(kTinyMem, 8);
    const double ratio =
        static_cast<double>(eight.case_config("5eq_weno5_hllc").grid.total_cells()) /
        static_cast<double>(one.case_config("5eq_weno5_hllc").grid.total_cells());
    EXPECT_GT(ratio, 4.0);
    EXPECT_LT(ratio, 16.0);
}

TEST(Bench, RunCaseProducesPositiveGrindtime) {
    const BenchSuite suite(kTinyMem, 1);
    const BenchCaseResult r = suite.run_case("5eq_weno5_hllc");
    EXPECT_GT(r.wall_s, 0.0);
    EXPECT_GT(r.grindtime_ns, 0.0);
    EXPECT_EQ(r.eqns, 8);
    EXPECT_GT(r.cells, 0);
}

TEST(Bench, ParallelRunReportsResults) {
    const BenchSuite suite(kTinyMem, 4);
    const BenchCaseResult r = suite.run_case("euler_weno5_hllc");
    EXPECT_GT(r.grindtime_ns, 0.0);
    EXPECT_EQ(r.ranks, 4);
}

TEST(Bench, YamlSummaryShape) {
    const BenchSuite suite(kTinyMem, 1);
    const Yaml y = suite.run_all("./mfc.sh bench --mem 1 -o out.yml");
    EXPECT_EQ(y.at("metadata").at("invocation").value().as_string(),
              "./mfc.sh bench --mem 1 -o out.yml");
    EXPECT_EQ(y.at("metadata").at("ranks").value().as_int(), 1);
    for (const std::string& name : BenchSuite::case_names()) {
        ASSERT_TRUE(y.at("cases").contains(name)) << name;
        EXPECT_GT(y.at("cases").at(name).at("grindtime_ns").value().as_double(),
                  0.0);
        EXPECT_GT(y.at("cases").at(name).at("walltime_s").value().as_double(), 0.0);
    }
    // The YAML text round-trips.
    const Yaml back = Yaml::parse(y.dump());
    EXPECT_EQ(back.at("cases").keys().size(), 5u);
}

TEST(Bench, InvalidArgumentsThrow) {
    EXPECT_THROW(BenchSuite(-1.0, 1), Error);
    EXPECT_THROW(BenchSuite(1.0, 0), Error);
    EXPECT_THROW(BenchSuite(1.0, 1, BenchOptions{-1, true}), Error);
}

TEST(Bench, ProfiledRunDecomposesGrindtime) {
    const BenchSuite suite(kTinyMem, 1);
    const BenchCaseResult r = suite.run_case("5eq_weno5_hllc");
    ASSERT_FALSE(r.phases.empty());
    // Exclusive phase grindtimes sum back to the measured grindtime;
    // warm-up and profiler overhead stay within the 5% acceptance band.
    double phase_sum = 0.0;
    for (const telemetry::PhaseGrind& p : r.phases) {
        EXPECT_GE(p.calls, 1) << p.path;
        phase_sum += p.grind_ns;
    }
    EXPECT_NEAR(phase_sum, r.grindtime_ns, 0.05 * r.grindtime_ns);
    EXPECT_EQ(r.warmup_steps, 1);
}

TEST(Bench, ProfilingCanBeDisabled) {
    const BenchSuite suite(kTinyMem, 1, BenchOptions{1, false});
    const BenchCaseResult r = suite.run_case("5eq_weno5_hllc");
    EXPECT_TRUE(r.phases.empty());
    EXPECT_GT(r.grindtime_ns, 0.0);
}

TEST(Bench, ParallelPhasesCarryRankSpread) {
    const BenchSuite suite(kTinyMem, 2);
    const BenchCaseResult r = suite.run_case("5eq_weno5_hllc");
    ASSERT_FALSE(r.phases.empty());
    bool found_halo = false;
    for (const telemetry::PhaseGrind& p : r.phases) {
        EXPECT_LE(p.min_grind_ns, p.grind_ns) << p.path;
        EXPECT_LE(p.grind_ns, p.max_grind_ns) << p.path;
        if (p.path.find("halo") != std::string::npos) found_halo = true;
    }
    EXPECT_TRUE(found_halo); // decomposed runs exchange halos
}

TEST(Bench, ProfilingLeavesDeterministicMetricsUntouched) {
    // Rank zone reports travel through per-rank slots, never through the
    // instrumented communicator, so a profiled decomposed suite counts
    // exactly the traffic of an unprofiled one.
    const auto deterministic = [](bool profile) {
        BenchOptions options;
        options.profile = profile;
        return BenchSuite(kTinyMem, 2, options)
            .run_all("det")
            .at("metrics")
            .at("deterministic")
            .dump();
    };
    EXPECT_EQ(deterministic(true), deterministic(false));
}

TEST(Bench, YamlSummaryCarriesPhases) {
    const BenchSuite suite(kTinyMem, 1);
    const Yaml y = suite.run_all("phases-test");
    EXPECT_EQ(y.at("metadata").at("warmup_steps").value().as_int(), 1);
    const Yaml& c = y.at("cases").at("5eq_weno5_hllc");
    ASSERT_TRUE(c.contains("phases"));
    const Yaml& phases = c.at("phases");
    ASSERT_FALSE(phases.keys().empty());
    double pct_sum = 0.0;
    for (const std::string& path : phases.keys()) {
        EXPECT_GE(phases.at(path).at("grind_ns").value().as_double(), 0.0);
        EXPECT_GE(phases.at(path).at("calls").value().as_int(), 1);
        pct_sum += phases.at(path).at("pct").value().as_double();
    }
    EXPECT_NEAR(pct_sum, 100.0, 1.0);
    // The phases subtree round-trips through YAML text.
    const Yaml back = Yaml::parse(y.dump());
    EXPECT_TRUE(back.at("cases").at("5eq_weno5_hllc").contains("phases"));
}

TEST(BenchDiff, TableComparesCaseByCase) {
    Yaml ref, cand;
    ref["cases"]["a"]["grindtime_ns"].set(Value(10.0));
    ref["cases"]["b"]["grindtime_ns"].set(Value(4.0));
    cand["cases"]["a"]["grindtime_ns"].set(Value(5.0));
    cand["cases"]["b"]["grindtime_ns"].set(Value(8.0));
    const TextTable t = bench_diff(ref, cand);
    const std::string s = t.str();
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_NE(s.find("2.00x"), std::string::npos); // a: 10 -> 5
    EXPECT_NE(s.find("0.50x"), std::string::npos); // b: 4 -> 8
}

TEST(BenchDiff, FlagsWorstRegressingPhase) {
    const auto phase = [](Yaml& node, const std::string& path, double grind,
                          double pct) {
        node["phases"][path]["grind_ns"].set(Value(grind));
        node["phases"][path]["pct"].set(Value(pct));
        node["phases"][path]["calls"].set(Value(1LL));
    };
    Yaml ref, cand;
    ref["cases"]["a"]["grindtime_ns"].set(Value(10.0));
    cand["cases"]["a"]["grindtime_ns"].set(Value(12.0));
    Yaml& r = ref["cases"]["a"];
    Yaml& c = cand["cases"]["a"];
    phase(r, "step/rhs/weno_x", 6.0, 60.0);
    phase(r, "step/rhs/riemann", 3.0, 30.0);
    phase(r, "step/bc", 0.05, 0.5); // below the 1% noise floor
    phase(c, "step/rhs/weno_x", 6.1, 50.0);
    phase(c, "step/rhs/riemann", 5.4, 45.0); // 1.8x: the regression
    phase(c, "step/bc", 1.0, 5.0);           // 20x but noise-floored
    const std::string s = bench_diff(ref, cand).str();
    EXPECT_NE(s.find("Worst phase"), std::string::npos);
    EXPECT_NE(s.find("step/rhs/riemann +80.0%"), std::string::npos);
    EXPECT_EQ(s.find("step/bc"), std::string::npos);
}

TEST(BenchDiff, NoPhasesMeansNoWorstPhaseColumnValue) {
    Yaml ref, cand;
    ref["cases"]["a"]["grindtime_ns"].set(Value(10.0));
    cand["cases"]["a"]["grindtime_ns"].set(Value(5.0));
    const std::string s = bench_diff(ref, cand).str();
    EXPECT_NE(s.find("n/a"), std::string::npos);
}

TEST(BenchDiff, MissingCandidateCaseIsNa) {
    Yaml ref, cand;
    ref["cases"]["a"]["grindtime_ns"].set(Value(10.0));
    cand["cases"]["other"]["grindtime_ns"].set(Value(1.0));
    const std::string s = bench_diff(ref, cand).str();
    EXPECT_NE(s.find("n/a"), std::string::npos);
}

TEST(BenchDiff, MissingCasesSectionDegradesToEmptyTable) {
    // A summary from a different tool (or a chaos report) has no `cases:`
    // at all; the diff must not throw.
    Yaml ref, cand;
    ref["metadata"]["invocation"].set(Value("ref"));
    cand["cases"]["a"]["grindtime_ns"].set(Value(1.0));
    EXPECT_NO_THROW({
        const TextTable t = bench_diff(ref, cand);
        EXPECT_EQ(t.rows(), 0u);
    });
    EXPECT_NO_THROW((void)bench_diff(cand, ref));
}

TEST(BenchDiff, MalformedCaseEntryDegradesToNa) {
    // A case entry without grindtime_ns (truncated or hand-edited file)
    // renders as n/a instead of throwing.
    Yaml ref, cand;
    ref["cases"]["a"]["cells"].set(Value(100));
    cand["cases"]["a"]["grindtime_ns"].set(Value(1.0));
    const std::string s = bench_diff(ref, cand).str();
    EXPECT_NE(s.find("n/a"), std::string::npos);
}

TEST(BenchDiff, ReportWithoutResilienceSectionsOmitsTheTable) {
    Yaml ref, cand;
    ref["cases"]["a"]["grindtime_ns"].set(Value(10.0));
    cand["cases"]["a"]["grindtime_ns"].set(Value(5.0));
    const std::string s = bench_diff_report(ref, cand);
    EXPECT_EQ(s.find("Resilience"), std::string::npos);
}

TEST(BenchDiff, OneSidedResilienceSectionRendersNa) {
    // Candidate from a build with chaos support, reference from an older
    // build without it: the resilience table appears, reference side n/a.
    Yaml ref, cand;
    ref["cases"]["a"]["grindtime_ns"].set(Value(10.0));
    cand["cases"]["a"]["grindtime_ns"].set(Value(5.0));
    cand["resilience"]["trials"].set(Value(4));
    cand["resilience"]["run_to_completion_rate"].set(Value(1.0));
    const std::string s = bench_diff_report(ref, cand);
    EXPECT_NE(s.find("Resilience"), std::string::npos);
    EXPECT_NE(s.find("run_to_completion_rate"), std::string::npos);
    EXPECT_NE(s.find("n/a"), std::string::npos);
}

TEST(BenchDiff, TwoSidedResilienceSectionCompares) {
    Yaml ref, cand;
    ref["cases"]["a"]["grindtime_ns"].set(Value(10.0));
    cand["cases"]["a"]["grindtime_ns"].set(Value(5.0));
    for (Yaml* side : {&ref, &cand}) {
        (*side)["resilience"]["trials"].set(Value(4));
        (*side)["resilience"]["faults_injected"].set(Value(4));
        (*side)["resilience"]["faults_detected"].set(Value(4));
    }
    const std::string s = bench_diff_report(ref, cand);
    EXPECT_NE(s.find("faults_detected"), std::string::npos);
}

TEST(BenchDiff, ReportWithoutUbenchSectionsOmitsTheTable) {
    Yaml ref, cand;
    ref["cases"]["a"]["grindtime_ns"].set(Value(10.0));
    cand["cases"]["a"]["grindtime_ns"].set(Value(5.0));
    const std::string s = bench_diff_report(ref, cand);
    EXPECT_EQ(s.find("Kernel"), std::string::npos);
}

TEST(BenchDiff, BaselineWithoutUbenchRendersNa) {
    // Reference YAML from a build predating `ubench:`: the kernel table
    // still renders (candidate side), reference cells degrade to n/a
    // instead of throwing — mirroring the resilience handling.
    Yaml ref, cand;
    ref["cases"]["a"]["grindtime_ns"].set(Value(10.0));
    cand["cases"]["a"]["grindtime_ns"].set(Value(5.0));
    cand["ubench"]["weno5_js"]["ns_per_cell"].set(Value(12.5));
    cand["ubench"]["weno5_js"]["gbs"].set(Value(1.9));
    std::string s;
    EXPECT_NO_THROW(s = bench_diff_report(ref, cand));
    EXPECT_NE(s.find("weno5_js"), std::string::npos);
    EXPECT_NE(s.find("12.50"), std::string::npos);
    EXPECT_NE(s.find("n/a"), std::string::npos);
}

TEST(BenchDiff, TwoSidedUbenchComparesKernelByKernel) {
    Yaml ref, cand;
    ref["cases"]["a"]["grindtime_ns"].set(Value(10.0));
    cand["cases"]["a"]["grindtime_ns"].set(Value(5.0));
    ref["ubench"]["riemann_hllc"]["ns_per_cell"].set(Value(100.0));
    cand["ubench"]["riemann_hllc"]["ns_per_cell"].set(Value(50.0));
    // Kernel present on one side only: row renders, missing side is n/a.
    ref["ubench"]["weno5_js"]["ns_per_cell"].set(Value(14.0));
    const std::string s = bench_diff_report(ref, cand);
    EXPECT_NE(s.find("riemann_hllc"), std::string::npos);
    EXPECT_NE(s.find("2.00x"), std::string::npos);
    EXPECT_NE(s.find("weno5_js"), std::string::npos);
    EXPECT_NE(s.find("n/a"), std::string::npos);
}

TEST(Bench, YamlSummaryCarriesUbenchSection) {
    const BenchSuite suite(kTinyMem, 1);
    const Yaml y = suite.run_all("ubench-test");
    ASSERT_TRUE(y.contains("ubench"));
    const Yaml& ub = y.at("ubench");
    ASSERT_FALSE(ub.keys().empty());
    for (const std::string& kernel : ub.keys()) {
        EXPECT_GT(ub.at(kernel).at("ns_per_cell").value().as_double(), 0.0)
            << kernel;
        EXPECT_GT(ub.at(kernel).at("gbs").value().as_double(), 0.0) << kernel;
    }
}

TEST(BenchDiff, EndToEndThroughYamlFiles) {
    // bench -> save yaml -> load -> diff, as a user would (Section 3,
    // Step 4).
    const Toolchain tc;
    const Yaml ref = tc.bench(kTinyMem, 1).run_all("ref");
    const std::string path = testing::TempDir() + "/bench_ref.yml";
    ref.save(path);
    const Yaml loaded = Yaml::load(path);
    const TextTable t = tc.bench_diff(loaded, ref);
    EXPECT_EQ(t.rows(), 5u);
    std::remove(path.c_str());
}

} // namespace
} // namespace mfc::toolchain
