#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lane_check.hpp"

namespace mfc {
namespace {

constexpr double kEps = 1.0e-16;

// Every property runs at W = 1 and, lane-checked, at W = 4.
std::pair<double, double> edges(const std::vector<double>& v, std::size_t i,
                                int order) {
    return lanes::edges_checked(v.data() + i, order, kEps);
}

TEST(Weno, FirstOrderIsPiecewiseConstant) {
    const std::vector<double> v = {1.0, 2.0, 3.0};
    const auto [l, r] = edges(v, 1, 1);
    EXPECT_DOUBLE_EQ(l, 2.0);
    EXPECT_DOUBLE_EQ(r, 2.0);
}

class WenoExactness : public testing::TestWithParam<int> {};

TEST_P(WenoExactness, ReproducesConstants) {
    const int order = GetParam();
    const std::vector<double> v(7, 3.5);
    const auto [l, r] = edges(v, 3, order);
    EXPECT_NEAR(l, 3.5, 1e-13);
    EXPECT_NEAR(r, 3.5, 1e-13);
}

TEST_P(WenoExactness, ReproducesLinearData) {
    const int order = GetParam();
    if (order == 1) GTEST_SKIP() << "first order is not linear-exact";
    // Cell averages of f(x) = x on unit cells centered at i.
    std::vector<double> v(7);
    for (int i = 0; i < 7; ++i) v[static_cast<std::size_t>(i)] = i;
    const auto [l, r] = edges(v, 3, order);
    EXPECT_NEAR(l, 2.5, 1e-11);
    EXPECT_NEAR(r, 3.5, 1e-11);
}

TEST_P(WenoExactness, LeftRightSymmetry) {
    // Mirroring the stencil must swap the edge values.
    const int order = GetParam();
    const std::vector<double> v = {1.0, 4.0, 2.0, 7.0, 3.0, 0.5, 2.5};
    std::vector<double> m(v.rbegin(), v.rend());
    const auto [l1, r1] = edges(v, 3, order);
    const auto [l2, r2] = edges(m, 3, order);
    EXPECT_NEAR(l1, r2, 1e-12);
    EXPECT_NEAR(r1, l2, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Orders, WenoExactness, testing::Values(1, 3, 5));

TEST(Weno, FifthOrderQuadraticExactOnSmoothData) {
    // WENO5's candidate stencils are quadratic-exact; with smooth data the
    // nonlinear weights approach the ideal ones, so cell-average data of
    // a quadratic is reconstructed to its true edge point values.
    // f(x)=x^2: cell average over [i-1/2, i+1/2] is i^2 + 1/12.
    std::vector<double> v(7);
    for (int i = 0; i < 7; ++i) {
        const double x = i;
        v[static_cast<std::size_t>(i)] = x * x + 1.0 / 12.0;
    }
    const auto [l, r] = edges(v, 3, 5);
    EXPECT_NEAR(r, 3.5 * 3.5, 1e-8);
    EXPECT_NEAR(l, 2.5 * 2.5, 1e-8);
}

TEST(Weno, ConvergenceOrderOnSmoothFunction) {
    // Reconstruct sin(x) edge values from exact cell averages and verify
    // the design order of accuracy between two resolutions.
    for (const int order : {3, 5}) {
        double err[2];
        for (int level = 0; level < 2; ++level) {
            const int n = 16 << level;
            const double h = 1.0 / n;
            double max_err = 0.0;
            // Cell average of sin over [x-h/2, x+h/2]:
            // (cos(x-h/2)-cos(x+h/2))/h.
            const auto avg = [&](int i) {
                const double x = (i + 0.5) * h;
                return (std::cos(x - 0.5 * h) - std::cos(x + 0.5 * h)) / h;
            };
            for (int i = 3; i < n - 3; ++i) {
                double stencil[5];
                for (int o = -2; o <= 2; ++o) stencil[o + 2] = avg(i + o);
                const auto [l, r] =
                    lanes::edges_checked(stencil + 2, order, kEps);
                const double exact_r = std::sin((i + 1) * h);
                const double exact_l = std::sin(i * h);
                max_err = std::max(max_err, std::abs(r - exact_r));
                max_err = std::max(max_err, std::abs(l - exact_l));
            }
            err[level] = max_err;
        }
        const double rate = std::log2(err[0] / err[1]);
        EXPECT_GE(rate, order - 0.6)
            << "order " << order << ": errors " << err[0] << " " << err[1];
    }
}

TEST(Weno, EssentiallyNonOscillatoryAtDiscontinuity) {
    // Reconstructed edges around a step stay within the data range
    // (no significant over/undershoot).
    const std::vector<double> v = {0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0};
    for (std::size_t i = 2; i <= 4; ++i) {
        for (const int order : {3, 5}) {
            const auto [l, r] = edges(v, i, order);
            EXPECT_GT(l, -0.05);
            EXPECT_LT(l, 1.05);
            EXPECT_GT(r, -0.05);
            EXPECT_LT(r, 1.05);
        }
    }
}

TEST(Weno, RequiredGhostsMatchesStencil) {
    EXPECT_EQ(weno_ghost_layers(1), 1);
    EXPECT_EQ(weno_ghost_layers(3), 2);
    EXPECT_EQ(weno_ghost_layers(5), 3);
    EXPECT_THROW((void)weno_ghost_layers(4), Error);
    EXPECT_THROW((void)weno_ghost_layers(7), Error);
}

TEST(Weno, LargerEpsSmearsWeights) {
    // With huge eps the scheme reverts to the linear (ideal-weight)
    // combination; both must agree on smooth data, differ at a kink.
    const std::vector<double> kink = {0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0};
    const auto [l1, r1] = lanes::edges_checked(kink.data() + 3, 5, 1e-16);
    const auto [l2, r2] = lanes::edges_checked(kink.data() + 3, 5, 1e6);
    EXPECT_NE(l1, l2);
}

} // namespace
} // namespace mfc
