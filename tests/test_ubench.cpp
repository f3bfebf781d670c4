#include <cmath>

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "perf/ubench.hpp"
#include "simd/simd.hpp"

namespace mfc::perf {
namespace {

UbenchOptions smoke_options() {
    UbenchOptions o;
    o.cells = 256;
    o.reps = 2;
    return o;
}

TEST(Ubench, RegistryCoversTheHotKernels) {
    const std::vector<std::string>& names = ubench_kernels();
    ASSERT_FALSE(names.empty());
    for (const char* expected :
         {"prim_convert", "weno5_js", "weno5_m", "weno5_z", "weno3_js",
          "riemann_hllc", "riemann_hll", "igr_flux", "igr_jacobi",
          "rk_axpy"}) {
        bool found = false;
        for (const std::string& n : names) found = found || n == expected;
        EXPECT_TRUE(found) << expected;
    }
}

TEST(Ubench, EveryKernelRunsAndReportsFinitePositiveTiming) {
    for (const UbenchResult& r : run_ubench_all(smoke_options())) {
        EXPECT_TRUE(std::isfinite(r.ns_per_cell)) << r.name;
        EXPECT_GT(r.ns_per_cell, 0.0) << r.name;
        EXPECT_TRUE(std::isfinite(r.gbs)) << r.name;
        EXPECT_GT(r.gbs, 0.0) << r.name;
        EXPECT_GT(r.model_ns_per_cell, 0.0) << r.name;
        EXPECT_GT(r.cost.bytes_per_cell, 0.0) << r.name;
        EXPECT_TRUE(std::isfinite(r.checksum)) << r.name;
        EXPECT_EQ(r.cells, 256) << r.name;
    }
}

TEST(Ubench, ChecksumIsWidthIndependent) {
    // The kernels under test are the same templates the solver dispatches;
    // their outputs must not depend on the simd width.
    const int prev = simd::width();
    const UbenchOptions o = smoke_options();
    for (const std::string& name : ubench_kernels()) {
        simd::set_width(1);
        const double scalar = run_ubench(name, o).checksum;
        for (const int w : {2, 4, 8}) {
            simd::set_width(w);
            EXPECT_EQ(run_ubench(name, o).checksum, scalar)
                << name << " width " << w;
        }
    }
    simd::set_width(prev);
}

TEST(Ubench, UnknownKernelAndBadOptionsThrow) {
    EXPECT_THROW((void)run_ubench("nope", smoke_options()), Error);
    UbenchOptions bad = smoke_options();
    bad.cells = 1;
    EXPECT_THROW((void)run_ubench("rk_axpy", bad), Error);
    bad = smoke_options();
    bad.reps = 0;
    EXPECT_THROW((void)run_ubench("rk_axpy", bad), Error);
}

TEST(Ubench, ReferenceCoreIsWellFormed) {
    const DeviceSpec& core = reference_core();
    EXPECT_GT(core.mem_bw_gbs, 0.0);
    EXPECT_GT(core.fp64_tflops, 0.0);
    // A memory-bound kernel's model time scales with its byte count.
    const KernelCost light{8.0, 1.0};
    const KernelCost heavy{80.0, 1.0};
    EXPECT_GT(heavy.ns_per_cell(core), light.ns_per_cell(core));
}

TEST(Ubench, ModelNamesTheCeilingThatBinds) {
    const DeviceSpec& core = reference_core();
    ASSERT_GT(core.fp64_div_per_ns, 0.0);
    const KernelCost streaming{800.0, 1.0};
    const KernelCost arithmetic{8.0, 10000.0};
    const KernelCost dividing{8.0, 1.0, 90.0, 10.0};
    EXPECT_EQ(streaming.bound(core), KernelBound::Memory);
    EXPECT_EQ(arithmetic.bound(core), KernelBound::Flops);
    EXPECT_EQ(dividing.bound(core), KernelBound::Divider);
    // The model is the binding time; square roots count as divides.
    EXPECT_DOUBLE_EQ(dividing.ns_per_cell(core), 100.0 / core.fp64_div_per_ns);
    EXPECT_DOUBLE_EQ(streaming.ns_per_cell(core), streaming.memory_ns(core));
    // A device without a divider rate (the Table 3 catalog) leaves the
    // divider out.
    DeviceSpec catalog = core;
    catalog.fp64_div_per_ns = 0.0;
    EXPECT_NE(dividing.bound(catalog), KernelBound::Divider);
    EXPECT_STREQ(to_string(KernelBound::Divider), "divider");
}

} // namespace
} // namespace mfc::perf
