// Integration: the complete regression-suite round trip, end to end —
// generate golden files for EVERY generated case (588 at last count, all
// executed through the real solver) and then re-run the whole suite in
// compare mode, as `./mfc.sh test --generate` followed by `./mfc.sh test`
// would on a new machine (Section 3, steps 3): one campaign of the
// suite's regression jobs per mode, on four workers.

#include "core/error.hpp"
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "ensemble/engine.hpp"
#include "exec/exec.hpp"
#include "toolchain/test_suite.hpp"
#include "toolchain/toolchain.hpp"

namespace mfc::toolchain {
namespace {

namespace fs = std::filesystem;

/// Reports the first nine failed cases as test failures (capping the
/// noise); job i is case i of `cases`.
class ReportFailures : public ensemble::Consumer {
public:
    explicit ReportFailures(const CaseList& cases) : cases_(cases) {}

    void on_result(const ensemble::JobResult& r) override {
        if (r.passed || ++failed_ > 9) return;
        const TestCaseDef& c = cases_[static_cast<std::size_t>(r.index)];
        ADD_FAILURE() << c.uuid << "  " << c.trace << ": " << r.detail;
    }

private:
    const CaseList& cases_;
    int failed_ = 0;
};

/// Every case of `suite` under `mode`, as one campaign.
ensemble::CampaignSummary run_suite(const TestSuite& suite, TestMode mode) {
    ensemble::Engine engine(ensemble::EngineOptions{});
    ReportFailures failures(suite.cases());
    engine.add_consumer(&failures);
    Yaml report;
    return engine.run(ensemble::regression_jobs(suite, suite.cases(), mode),
                      report);
}

TEST(IntegrationSuite, FullGenerateThenCompareCycle) {
    const std::string root = testing::TempDir() + "/mfcpp_full_suite";
    fs::remove_all(root);

    const Toolchain tc;
    const TestSuite suite = tc.test_suite(root);
    ASSERT_GT(suite.cases().size(), 500u);
    const int threads = exec::num_threads();
    exec::set_num_threads(4);

    // Step 3a: --generate for every case. A failure here means some
    // feature combination crashed or produced non-finite output.
    const ensemble::CampaignSummary gen = run_suite(suite, TestMode::Generate);
    EXPECT_EQ(gen.failed, 0);

    // Every case produced its golden pair.
    std::size_t golden_count = 0;
    for (const auto& entry : fs::directory_iterator(root)) {
        if (fs::exists(entry.path() / "golden.txt") &&
            fs::exists(entry.path() / "golden-metadata.txt")) {
            ++golden_count;
        }
    }
    EXPECT_EQ(golden_count, suite.cases().size());

    // Step 3b: plain `test` — everything must compare clean against the
    // goldens just written (determinism of the entire stack).
    const ensemble::CampaignSummary cmp = run_suite(suite, TestMode::Compare);
    EXPECT_EQ(cmp.failed, 0);
    EXPECT_EQ(cmp.passed, static_cast<long long>(suite.cases().size()));

    exec::set_num_threads(threads);
    fs::remove_all(root);
}

TEST(IntegrationSuite, GoldenOutputsAreFinite) {
    // Spot-sweep across the suite: every 7th case's outputs are finite.
    const CaseList all = generate_full_suite();
    for (std::size_t i = 0; i < all.size(); i += 7) {
        const GoldenFile out = TestSuite::execute_case(all[i].params);
        for (const auto& [name, values] : out.entries()) {
            for (const double v : values) {
                ASSERT_TRUE(std::isfinite(v)) << all[i].trace << " / " << name;
            }
        }
    }
}

} // namespace
} // namespace mfc::toolchain
