// Weak scaling on this machine, for real: the same standardized-style case
// is decomposed over 1, 2, 4, and 8 simMPI ranks with a fixed local block
// per rank (Section 6.2's methodology at desk scale), reporting the
// grindtime x ranks product that should stay constant under ideal weak
// scaling. The modeled Frontier numbers are printed beside, connecting the
// host experiment to the Fig. 2 reproduction.
//
// Note: this host exposes a single core, so thread ranks time-share it —
// grindtime x ranks staying ~constant is exactly the expected signature
// (each step does R times the work in R times the wall time).

#include <cstdio>

#include "core/table.hpp"
#include "perf/scaling.hpp"
#include "solver/launch.hpp"

int main() {
    using namespace mfc;

    constexpr int kLocalEdge = 16;
    constexpr int kSteps = 4;

    std::printf("Weak scaling on this host: %d^3 cells per rank, %d steps\n\n",
                kLocalEdge, kSteps);

    TextTable t({"Ranks", "Global grid", "Wall [s]", "Grindtime [ns]",
                 "Grind x ranks [ns]"});
    for (std::size_t col = 2; col < 5; ++col) t.set_align(col, TextTable::Align::Right);

    for (const int ranks : {1, 2, 4, 8}) {
        CaseConfig c = standardized_benchmark_case(kLocalEdge, kSteps);
        const std::array<int, 3> dims = case_topology(c, ranks).dims;
        c.grid.cells = Extents{dims[0] * kLocalEdge, dims[1] * kLocalEdge,
                               dims[2] * kLocalEdge};
        const LaunchResult run = run_timed(c, {.ranks = ranks});

        t.add_row({std::to_string(ranks),
                   std::to_string(c.grid.cells.nx) + " x " +
                       std::to_string(c.grid.cells.ny) + " x " +
                       std::to_string(c.grid.cells.nz),
                   format_fixed(run.wall_s, 3),
                   format_fixed(run.grindtime_ns, 1),
                   format_fixed(run.grindtime_ns * ranks, 1)});
    }
    std::fputs(t.str().c_str(), stdout);

    std::printf("\nModeled OLCF Frontier (200^3 per GCD), for comparison:\n");
    const perf::ScalingSimulator sim(perf::find_system("OLCF Frontier"),
                                     perf::NumericsModel{});
    for (const auto& p : sim.weak_sweep({128, 8192, 65536})) {
        std::printf("  %6d GCDs: grindtime x ranks = %.2f ns, efficiency %.1f%%\n",
                    p.ranks, p.grindtime_ns * p.ranks, 100.0 * p.efficiency);
    }
    return 0;
}
