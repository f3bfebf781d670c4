#include "core/error.hpp"
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "toolchain/case_io.hpp"
#include "toolchain/test_suite.hpp"

namespace mfc::toolchain {
namespace {

TEST(CaseIo, ParsesKeyEqualsValue) {
    const CaseDict d = parse_case_text("nx = 200\ndt = 1e-3\nigr = T\n"
                                       "model_eqns = euler\n");
    EXPECT_EQ(d.at("nx").as_int(), 200);
    EXPECT_DOUBLE_EQ(d.at("dt").as_double(), 1e-3);
    EXPECT_TRUE(d.at("igr").as_bool());
    EXPECT_EQ(d.at("model_eqns").as_string(), "euler");
}

TEST(CaseIo, WhitespaceSeparatedFormAccepted) {
    const CaseDict d = parse_case_text("nx 64\n");
    EXPECT_EQ(d.at("nx").as_int(), 64);
}

TEST(CaseIo, CommentsAndBlanksIgnored) {
    const CaseDict d = parse_case_text("# header\n\nnx = 8  # trailing\n");
    EXPECT_EQ(d.size(), 1u);
    EXPECT_EQ(d.at("nx").as_int(), 8);
}

TEST(CaseIo, MalformedLinesThrow) {
    EXPECT_THROW((void)parse_case_text("just_a_token\n"), Error);
    EXPECT_THROW((void)parse_case_text("a b c\n"), Error);
    EXPECT_THROW((void)parse_case_text("= 3\n"), Error);
    EXPECT_THROW((void)parse_case_text("nx =\n"), Error);
}

TEST(CaseIo, DuplicateKeyThrows) {
    EXPECT_THROW((void)parse_case_text("nx = 8\nnx = 16\n"), Error);
}

TEST(CaseIo, DumpParseRoundTrip) {
    CaseDict d;
    d["nx"] = 128;
    d["dt"] = 2.5e-4;
    d["igr"] = true;
    d["model_eqns"] = std::string("5eqn");
    const CaseDict back = parse_case_text(dump_case_text(d));
    EXPECT_EQ(back, d);
}

TEST(CaseIo, FileRoundTrip) {
    const std::string path = testing::TempDir() + "/case_io_test.case";
    CaseDict d;
    d["nx"] = 32;
    d["patch1_pressure"] = 0.1;
    save_case_file(d, path);
    EXPECT_EQ(load_case_file(path), d);
    std::remove(path.c_str());
}

TEST(CaseIo, MissingFileThrows) {
    EXPECT_THROW((void)load_case_file("/nonexistent/x.case"), Error);
}

TEST(CaseIo, MinimalEulerSodCaseRunsFinite) {
    // Regression: unspecified fluid parameters must default to an ideal
    // gas (a stiffened-water default once turned this exact case into
    // NaNs within a few steps).
    const CaseDict d = parse_case_text(R"(
model_eqns   = euler
num_fluids   = 1
nx           = 100
dt           = 1e-3
t_step_stop  = 50
bc_x_beg     = -3
bc_x_end     = -3
num_patches  = 2
patch1_geometry   = domain
patch1_alpha_rho1 = 0.125
patch1_pressure   = 0.1
patch2_geometry   = halfspace
patch2_position   = 0.5
patch2_alpha_rho1 = 1.0
patch2_pressure   = 1.0
)");
    const CaseConfig c = config_from_dict(d);
    EXPECT_DOUBLE_EQ(c.fluids[0].gamma(), 1.4);
    EXPECT_DOUBLE_EQ(c.fluids[0].pi_inf(), 0.0);
    const GoldenFile out = TestSuite::execute_case(d);
    for (const auto& [name, values] : out.entries()) {
        for (const double v : values) {
            ASSERT_TRUE(std::isfinite(v)) << name;
        }
    }
}

} // namespace
} // namespace mfc::toolchain
