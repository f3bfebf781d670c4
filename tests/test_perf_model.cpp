#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "perf/device.hpp"
#include "perf/kernel_model.hpp"
#include "perf/network.hpp"
#include "perf/scaling.hpp"
#include "perf/system.hpp"

namespace mfc::perf {
namespace {

// --- device catalog (Table 3) -------------------------------------------

TEST(DeviceCatalog, HasTheFullTable3Population) {
    // The paper benchmarks "approximately 50 compute devices"; Table 3
    // lists 49 rows.
    EXPECT_EQ(device_catalog().size(), 49u);
}

TEST(DeviceCatalog, NamesAreUnique) {
    std::set<std::string> names;
    for (const auto& d : device_catalog()) names.insert(d.name);
    EXPECT_EQ(names.size(), device_catalog().size());
}

TEST(DeviceCatalog, PaperReferenceValuesAreOrdered) {
    // The catalog is stored in Table 3 order (ascending grindtime).
    const auto& cat = device_catalog();
    for (std::size_t i = 1; i < cat.size(); ++i) {
        EXPECT_LE(cat[i - 1].paper_grindtime_ns, cat[i].paper_grindtime_ns)
            << cat[i].name;
    }
}

TEST(DeviceCatalog, HeadlineEntriesMatchPaper) {
    EXPECT_DOUBLE_EQ(find_device("NVIDIA GH200").paper_grindtime_ns, 0.32);
    EXPECT_DOUBLE_EQ(find_device("AMD MI250X").paper_grindtime_ns, 0.55);
    EXPECT_DOUBLE_EQ(find_device("Fujitsu A64FX").paper_grindtime_ns, 63.0);
    EXPECT_EQ(find_device("NVIDIA GH200").type, DeviceType::APU);
    EXPECT_EQ(find_device("AMD EPYC 7763").usage, "64 cores");
}

TEST(DeviceCatalog, UnknownDeviceThrows) {
    EXPECT_THROW((void)find_device("Imaginary X1000"), Error);
}

TEST(DeviceCatalog, SpecsArePhysical) {
    for (const auto& d : device_catalog()) {
        EXPECT_GT(d.mem_bw_gbs, 0.0) << d.name;
        EXPECT_GT(d.fp64_tflops, 0.0) << d.name;
        EXPECT_GT(d.mem_gb, 0.0) << d.name;
        EXPECT_GT(d.eff_bw, 0.0) << d.name;
        EXPECT_GT(d.eff_flops, 0.0) << d.name;
        EXPECT_GT(d.paper_grindtime_ns, 0.0) << d.name;
        EXPECT_FALSE(d.compiler.empty()) << d.name;
    }
}

// --- roofline model -------------------------------------------------------

TEST(KernelModel, EveryDeviceWithinFactorTwoOfPaper) {
    const KernelModel model;
    for (const auto& d : device_catalog()) {
        const double g = model.grindtime_ns(d);
        const double ratio = g / d.paper_grindtime_ns;
        EXPECT_GT(ratio, 0.5) << d.name << " model " << g;
        EXPECT_LT(ratio, 2.0) << d.name << " model " << g;
    }
}

TEST(KernelModel, OrderingAgreesWithPaper) {
    // Kendall rank correlation between modeled and measured grindtimes
    // across the whole table: the "who wins" structure must hold.
    const KernelModel model;
    std::vector<double> modeled;
    std::vector<double> paper;
    for (const auto& d : device_catalog()) {
        modeled.push_back(model.grindtime_ns(d));
        paper.push_back(d.paper_grindtime_ns);
    }
    EXPECT_GT(kendall_tau(modeled, paper), 0.85);
}

TEST(KendallTau, CountsConcordantAndDiscordantPairs) {
    const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(kendall_tau(a, {10.0, 20.0, 30.0, 40.0}), 1.0);
    EXPECT_DOUBLE_EQ(kendall_tau(a, {40.0, 30.0, 20.0, 10.0}), -1.0);
    // Pairs (0,1) (0,2) (0,3) (2,3) concordant, (1,2) discordant, and
    // (1,3) tied in the second series counts as neither: 3/5.
    EXPECT_DOUBLE_EQ(kendall_tau(a, {1.0, 3.0, 2.0, 3.0}), 0.6);
    EXPECT_THROW((void)kendall_tau(a, {1.0, 2.0}), Error);
}

TEST(KernelModel, GpusBeatTheirHostCpus) {
    // Paper headline: data-center GPUs lead the table.
    const KernelModel m;
    EXPECT_LT(m.grindtime_ns(find_device("NVIDIA H100 SXM5")),
              m.grindtime_ns(find_device("Intel Xeon 8480CL")));
    EXPECT_LT(m.grindtime_ns(find_device("AMD MI250X")),
              m.grindtime_ns(find_device("AMD EPYC 7763")));
}

TEST(KernelModel, MonotoneInBandwidthForMemoryBoundDevices) {
    const KernelModel m;
    DeviceSpec a = find_device("NVIDIA H100 SXM5");
    DeviceSpec b = a;
    b.mem_bw_gbs *= 2.0;
    EXPECT_LT(m.grindtime_ns(b), m.grindtime_ns(a));
}

TEST(KernelModel, RooflineSwitchesToComputeBound) {
    const KernelModel m;
    DeviceSpec d = find_device("NVIDIA H100 SXM5");
    d.fp64_tflops = 0.01; // cripple FP64: compute term must dominate
    const double expected = (m.flops_per_unit / 1000.0) / (0.01 * d.eff_flops);
    EXPECT_DOUBLE_EQ(m.grindtime_ns(d), expected);
}

TEST(KernelModel, CaseOptimizationIsTenfold) {
    // Section 5: --case-optimization yields "approximately a ten-fold
    // improvement in grindtime performance".
    const KernelModel m;
    const DeviceSpec& d = find_device("NVIDIA V100");
    EXPECT_NEAR(m.grindtime_ns(d, false) / m.grindtime_ns(d, true), 10.0, 1e-9);
}

// --- network model -------------------------------------------------------

TEST(Network, LatencyAndBandwidthCompose) {
    NetworkModel n = slingshot11();
    const double t = n.exchange_seconds(25.0e9, 0.0, true);
    EXPECT_NEAR(t, 1.0, 1e-9); // 25 GB at 25 GB/s
    const double tl = n.exchange_seconds(0.0, 10.0, true);
    EXPECT_NEAR(tl, 10.0 * 2.0e-6, 1e-12);
}

TEST(Network, HostStagingPenalizesNonGpuAware) {
    const NetworkModel n = slingshot11();
    const double aware = n.exchange_seconds(1.0e9, 1.0, true);
    const double staged = n.exchange_seconds(1.0e9, 1.0, false);
    EXPECT_GT(staged, aware);
    // The penalty is exactly two host-link copies.
    EXPECT_NEAR(staged - aware, 2.0e9 / (n.host_link_gbs * 1e9), 1e-9);
}

TEST(Network, OverlapHidesFraction) {
    NetworkModel n = slingshot11();
    n.overlap_fraction = 0.75;
    EXPECT_DOUBLE_EQ(n.exposed_seconds(4.0), 1.0);
}

// --- system catalog (Table 5) ---------------------------------------------

TEST(SystemCatalog, FourFlagshipSystems) {
    ASSERT_EQ(system_catalog().size(), 4u);
    EXPECT_EQ(system_catalog()[0].name, "OLCF Summit");
    EXPECT_EQ(system_catalog()[1].name, "CSCS Alps");
    EXPECT_EQ(system_catalog()[2].name, "OLCF Frontier");
    EXPECT_EQ(system_catalog()[3].name, "LLNL El Capitan");
}

TEST(SystemCatalog, Table5BaseAndLimitCases) {
    const SystemSpec& summit = find_system("OLCF Summit");
    EXPECT_EQ(summit.base_ranks, 216);
    EXPECT_EQ(summit.limit_ranks, 13825);
    const SystemSpec& frontier = find_system("OLCF Frontier");
    EXPECT_EQ(frontier.base_ranks, 128);
    EXPECT_EQ(frontier.limit_ranks, 65536);
    EXPECT_EQ(frontier.rank_label, "GCDs");
    const SystemSpec& elcap = find_system("LLNL El Capitan");
    EXPECT_EQ(elcap.base_ranks, 64);
    EXPECT_EQ(elcap.limit_ranks, 32768);
    const SystemSpec& alps = find_system("CSCS Alps");
    EXPECT_EQ(alps.base_ranks, 64);
    EXPECT_EQ(alps.limit_ranks, 9200);
}

TEST(SystemCatalog, BaseToLimitRanksDoubleUpToTheLimitCase) {
    EXPECT_EQ(find_system("OLCF Frontier").base_to_limit_ranks(),
              (std::vector<int>{128, 256, 512, 1024, 2048, 4096, 8192, 16384,
                                32768, 65536}));
    // Summit's limit case is not a doubling of its base case.
    EXPECT_EQ(find_system("OLCF Summit").base_to_limit_ranks(),
              (std::vector<int>{216, 432, 864, 1728, 3456, 6912, 13824,
                                13825}));
}

TEST(SystemCatalog, FrontierRanksAreGcds) {
    // One rank drives half an MI250X.
    const SystemSpec& f = find_system("OLCF Frontier");
    EXPECT_DOUBLE_EQ(f.rank_fraction, 0.5);
    const ScalingSimulator sim(f, NumericsModel{});
    const KernelModel km;
    EXPECT_NEAR(sim.rank_grindtime_ns(),
                2.0 * km.grindtime_ns(find_device("AMD MI250X")), 1e-12);
}

// --- Table 4: weak-scaling decompositions ----------------------------------

TEST(WeakDecomposition, ReproducesTable4Exactly) {
    const ScalingSimulator sim(find_system("OLCF Frontier"), NumericsModel{});
    const auto rows = sim.weak_sweep({128, 384, 1024, 3072, 8192, 24576, 65536});
    ASSERT_EQ(rows.size(), 7u);

    const std::array<std::array<int, 3>, 7> decomp = {{{4, 4, 8},
                                                       {6, 8, 8},
                                                       {8, 8, 16},
                                                       {12, 16, 16},
                                                       {16, 16, 32},
                                                       {24, 32, 32},
                                                       {32, 32, 64}}};
    const std::array<double, 7> cells_b = {1.02, 3.07, 8.19, 24.6,
                                           65.5, 197.0, 524.0};
    for (std::size_t r = 0; r < rows.size(); ++r) {
        EXPECT_EQ(rows[r].dims, decomp[r]) << "ranks " << rows[r].ranks;
        EXPECT_NEAR(static_cast<double>(rows[r].global.cells()) / 1.0e9,
                    cells_b[r], 0.01 * cells_b[r]);
        // 200^3 per rank exactly.
        EXPECT_EQ(rows[r].global.cells(),
                  static_cast<long long>(rows[r].ranks) * 200 * 200 * 200);
    }
    // Spot-check the discretizations in the paper's table.
    EXPECT_EQ(rows[0].global, (Extents{800, 800, 1600}));
    EXPECT_EQ(rows[6].global, (Extents{6400, 6400, 12800}));
}

// --- weak scaling (Fig. 2 / Table 5) ---------------------------------------

class WeakScaling : public testing::TestWithParam<std::string> {};

TEST_P(WeakScaling, EfficiencyMatchesTable5Band) {
    const SystemSpec& sys = find_system(GetParam());
    const ScalingSimulator sim(sys, NumericsModel{});
    const auto points = sim.weak_sweep(sys.base_to_limit_ranks());

    // Paper: "weak scaling efficiencies above 95% for all systems".
    const double limit_eff = points.back().efficiency;
    EXPECT_GT(limit_eff, 0.90) << sys.name;
    EXPECT_LE(limit_eff, 1.0 + 1e-9) << sys.name;
    // And within a few points of the system's Table 5 value.
    EXPECT_NEAR(limit_eff, sys.paper_efficiency, 0.05) << sys.name;

    // Grindtime x ranks ~ constant (the paper's ideal-weak-scaling
    // criterion, Section 6.2).
    const double base_product = points.front().grindtime_ns * points.front().ranks;
    for (const auto& p : points) {
        EXPECT_NEAR(p.grindtime_ns * p.ranks, base_product, 0.1 * base_product);
    }
}

INSTANTIATE_TEST_SUITE_P(Table5Systems, WeakScaling,
                         testing::Values("OLCF Summit", "CSCS Alps",
                                         "OLCF Frontier", "LLNL El Capitan"));

TEST(WeakScaling, EfficiencyDecreasesWithScale) {
    const ScalingSimulator sim(find_system("OLCF Frontier"), NumericsModel{});
    const auto pts = sim.weak_sweep({128, 1024, 8192, 65536});
    for (std::size_t i = 1; i < pts.size(); ++i) {
        EXPECT_LE(pts[i].efficiency, pts[i - 1].efficiency + 1e-9);
    }
}

// --- strong scaling (Fig. 3) ------------------------------------------------

TEST(StrongScaling, GpuAwareMpiImprovesEfficiency) {
    // Fig. 3(a): RDMA (GPU-aware MPI) improves strong scaling on Frontier.
    const SystemSpec& frontier = find_system("OLCF Frontier");
    const Extents global{634, 634, 634}; // 31.9M cells per GCD at 8 ranks
    const std::vector<int> ranks = {8, 64, 512, 4096};
    const ScalingSimulator with_rdma(frontier, NumericsModel{}, true);
    const ScalingSimulator without(frontier, NumericsModel{}, false);
    const auto a = with_rdma.strong_sweep(global, ranks);
    const auto b = without.strong_sweep(global, ranks);
    for (std::size_t i = 1; i < ranks.size(); ++i) {
        EXPECT_GT(a[i].speedup, b[i].speedup) << "ranks " << ranks[i];
    }
    // Speedup grows with ranks but stays below ideal.
    for (std::size_t i = 1; i < a.size(); ++i) {
        EXPECT_GT(a[i].speedup, a[i - 1].speedup);
        EXPECT_LT(a[i].speedup, static_cast<double>(ranks[i]) / ranks[0] + 1e-9);
    }
}

TEST(StrongScaling, BaseCaseSaturatesGcdMemory) {
    // Paper: "maximum problem size per GCD on OLCF Frontier is
    // approximately 32M grid cells", hence 634^3 over 8 ranks.
    const long long per_rank = 634LL * 634 * 634 / 8;
    EXPECT_NEAR(static_cast<double>(per_rank), 31.9e6, 0.1e6);
}

TEST(StrongScaling, LargerBaseCaseScalesFurther) {
    // Fig. 3(b): the IGR-enabled 1600^3 base case on Alps holds higher
    // efficiency at large rank counts than Frontier's 634^3 case.
    const auto frontier = ScalingSimulator(find_system("OLCF Frontier"),
                                           NumericsModel{}, true);
    const auto alps = ScalingSimulator(find_system("CSCS Alps"),
                                       NumericsModel::igr(), true);
    const std::vector<int> ranks = {8, 64, 512, 4096};
    const auto f = frontier.strong_sweep(Extents{634, 634, 634}, ranks);
    const auto a = alps.strong_sweep(Extents{1600, 1600, 1600}, ranks);
    EXPECT_GT(a.back().efficiency, f.back().efficiency);
    EXPECT_GT(a.back().efficiency, 0.80);
}

TEST(StrongScaling, EfficiencyFallsAsCommunicationGrows) {
    const ScalingSimulator sim(find_system("OLCF Frontier"), NumericsModel{});
    const auto pts = sim.strong_sweep(Extents{634, 634, 634}, {8, 64, 512, 4096});
    for (std::size_t i = 1; i < pts.size(); ++i) {
        EXPECT_LE(pts[i].efficiency, pts[i - 1].efficiency + 1e-9);
        EXPECT_GE(pts[i].comm_fraction, pts[i - 1].comm_fraction - 1e-9);
    }
}

TEST(ScalingSimulator, StepTimeScalesWithLocalSize) {
    const ScalingSimulator sim(find_system("CSCS Alps"), NumericsModel{});
    const double t1 = sim.step_seconds(Extents{256, 256, 256}, 8);
    const double t2 = sim.step_seconds(Extents{512, 512, 512}, 8);
    EXPECT_GT(t2, 7.0 * t1); // ~8x the cells
    EXPECT_LT(t2, 9.0 * t1);
}

TEST(ScalingSimulator, OverlapBoundedByComputeAndFullyExposedSchedules) {
    // The overlap model (max(compute, comm - residue) + residue) must sit
    // between the compute-only lower bound and the fully exposed
    // (compute + whole exchange) upper bound at every decomposition.
    SystemSpec sys = find_system("OLCF Frontier");
    sys.network.overlap_fraction = 0.0; // expose the whole exchange
    ScalingSimulator sync_sim(sys, NumericsModel{});
    ScalingSimulator over_sim(sys, NumericsModel{});
    over_sim.set_overlap(true);
    EXPECT_FALSE(sync_sim.overlap());
    EXPECT_TRUE(over_sim.overlap());
    for (const int ranks : {8, 64, 512, 4096}) {
        double sync_cf = 0.0;
        double over_cf = 0.0;
        const Extents global{634, 634, 634};
        const double t_sync = sync_sim.step_seconds(global, ranks, &sync_cf);
        const double t_over = over_sim.step_seconds(global, ranks, &over_cf);
        EXPECT_LE(t_over, t_sync + 1e-15) << ranks;
        // Compute-only bound: strip the comm fraction from the sync step.
        const double t_compute = t_sync * (1.0 - sync_cf);
        EXPECT_GE(t_over, t_compute - 1e-15) << ranks;
        EXPECT_GE(over_cf, 0.0);
        EXPECT_LE(over_cf, 1.0);
        // Overlap hides communication, so its exposed fraction can never
        // exceed the fully synchronous one.
        EXPECT_LE(over_cf, sync_cf + 1e-12) << ranks;
    }
}

TEST(ScalingSimulator, OverlapTightensStrongScaling) {
    // Hiding the exchange raises modeled strong-scaling efficiency at
    // large rank counts (where comm dominates the sync schedule).
    SystemSpec sys = find_system("OLCF Frontier");
    sys.network.overlap_fraction = 0.0;
    ScalingSimulator sync_sim(sys, NumericsModel{});
    ScalingSimulator over_sim(sys, NumericsModel{});
    over_sim.set_overlap(true);
    const auto s = sync_sim.strong_sweep(Extents{634, 634, 634}, {8, 4096});
    const auto o = over_sim.strong_sweep(Extents{634, 634, 634}, {8, 4096});
    EXPECT_GE(o.back().efficiency, s.back().efficiency - 1e-12);
}

TEST(KernelModel, HaloPackCostsAreMemoryOnly) {
    EXPECT_DOUBLE_EQ(kHaloPackCost.bytes_per_cell, 16.0);
    EXPECT_DOUBLE_EQ(kHaloUnpackCost.bytes_per_cell, 16.0);
    EXPECT_DOUBLE_EQ(kHaloPackCost.flops_per_cell, 0.0);
    // Pure streaming: modeled time is the memory roofline.
    const DeviceSpec& core = reference_core();
    EXPECT_GT(kHaloPackCost.ns_per_cell(core), 0.0);
}

TEST(ScalingSimulator, IgrNumericsAreCheaperPerUnit) {
    const DeviceSpec& gh200 = find_device("NVIDIA GH200");
    const NumericsModel weno;
    const NumericsModel igr = NumericsModel::igr();
    EXPECT_LT(igr.kernel.grindtime_ns(gh200), weno.kernel.grindtime_ns(gh200));
}

} // namespace
} // namespace mfc::perf
