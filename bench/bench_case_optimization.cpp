// Ablation for Section 5's --case-optimization claim: "specifying certain
// case parameters as compile-time constants enables more aggressive
// compiler optimizations ... approximately a ten-fold improvement in
// grindtime performance, though speedup varies depending on the compiler
// and hardware used."
//
// We measure the same mechanism at the kernel level on this host: the WENO
// reconstruction with its order fixed at compile time (inlinable,
// unrollable — the --case-optimization path) versus dispatched through an
// opaque function pointer with a runtime order (the generic build, where
// the compiler cannot specialize — the regime of the paper's
// "-Minline=reshape" and "!$DIR INLINEALWAYS" war stories in Section 5.1).
// The roofline model's 10x device-level factor is printed for reference.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "core/rng.hpp"
#include "numerics/vec_weno.hpp"
#include "perf/device.hpp"
#include "perf/kernel_model.hpp"

namespace {

using namespace mfc;

constexpr std::size_t kCells = 4096;

using V1 = simd::vd<1>;

std::vector<double> make_row() {
    std::vector<double> v(kCells + 8);
    Rng rng(3);
    for (double& x : v) x = rng.uniform(0.5, 2.0);
    return v;
}

/// Compile-time-constant order: the optimizer sees weno_edges_v<1>(…, 5,
/// …) and specializes the switch away.
void BM_CaseOptimized(benchmark::State& state) {
    const std::vector<double> v = make_row();
    V1 l = 0.0, r = 0.0;
    for (auto _ : state) {
        for (std::size_t i = 4; i < kCells + 4; ++i) {
            weno_edges_v<1>(v.data() + i, 5, 1e-16, l, r);
            benchmark::DoNotOptimize(l);
            benchmark::DoNotOptimize(r);
        }
    }
    state.SetItemsProcessed(state.iterations() * kCells);
}
BENCHMARK(BM_CaseOptimized);

/// Section 5.1: "thread-private arrays that lack a known size at compile
/// time require expensive memory reallocation for each independent loop"
/// (CCE on AMD GPUs). The same pathology on a CPU: a per-cell
/// heap-allocated scratch stencil versus a compile-time-sized stack array.
void BM_ScratchCompileTimeSize(benchmark::State& state) {
    const std::vector<double> v = make_row();
    V1 l = 0.0, r = 0.0;
    for (auto _ : state) {
        for (std::size_t i = 4; i < kCells + 4; ++i) {
            double stencil[5]; // size known at compile time
            for (int o = -2; o <= 2; ++o) stencil[o + 2] = v[i + static_cast<std::size_t>(o + 2) - 2];
            weno_edges_v<1>(stencil + 2, 5, 1e-16, l, r);
            benchmark::DoNotOptimize(l);
            benchmark::DoNotOptimize(r);
        }
    }
    state.SetItemsProcessed(state.iterations() * kCells);
}
BENCHMARK(BM_ScratchCompileTimeSize);

void BM_ScratchRuntimeAllocated(benchmark::State& state) {
    const std::vector<double> v = make_row();
    volatile std::size_t runtime_size = 5; // defeats stack promotion
    V1 l = 0.0, r = 0.0;
    for (auto _ : state) {
        for (std::size_t i = 4; i < kCells + 4; ++i) {
            std::vector<double> stencil(runtime_size); // reallocated per cell
            for (int o = -2; o <= 2; ++o) stencil[static_cast<std::size_t>(o + 2)] = v[i + static_cast<std::size_t>(o + 2) - 2];
            weno_edges_v<1>(stencil.data() + 2, 5, 1e-16, l, r);
            benchmark::DoNotOptimize(l);
            benchmark::DoNotOptimize(r);
        }
    }
    state.SetItemsProcessed(state.iterations() * kCells);
}
BENCHMARK(BM_ScratchRuntimeAllocated);

using WenoFn = void (*)(const double*, int, double, V1&, V1&, WenoVariant);

/// Runtime parameters behind an opaque call: no inlining, no unrolling —
/// the unoptimized generic-build path.
void BM_RuntimeDispatch(benchmark::State& state) {
    const std::vector<double> v = make_row();
    // Volatile function pointer and order defeat specialization the same
    // way a runtime case file parameter does.
    volatile WenoFn fn = &weno_edges_v<1>;
    volatile int order = 5;
    V1 l = 0.0, r = 0.0;
    for (auto _ : state) {
        for (std::size_t i = 4; i < kCells + 4; ++i) {
            fn(v.data() + i, order, 1e-16, l, r, WenoVariant::JS);
            benchmark::DoNotOptimize(l);
            benchmark::DoNotOptimize(r);
        }
    }
    state.SetItemsProcessed(state.iterations() * kCells);
}
BENCHMARK(BM_RuntimeDispatch);

} // namespace

int main(int argc, char** argv) {
    std::printf("== Section 5 ablation: case optimization ==\n");
    const mfc::perf::KernelModel model;
    const mfc::perf::DeviceSpec& v100 = mfc::perf::find_device("NVIDIA V100");
    std::printf("Device-level model: grindtime %.2f ns (optimized) vs %.2f ns "
                "(generic) — 10x.\n",
                model.grindtime_ns(v100, true), model.grindtime_ns(v100, false));
    std::printf("Host kernel-level measurements:\n"
                "  BM_CaseOptimized vs BM_RuntimeDispatch      — inlining/"
                "specialization effect\n"
                "  BM_ScratchCompileTimeSize vs ...Runtime...  — Section 5.1 "
                "scratch-reallocation effect\n\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
