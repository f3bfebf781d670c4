#include "perf/scaling.hpp"

#include <algorithm>
#include <cmath>

#include "comm/cart.hpp"
#include "core/error.hpp"
#include "grid/grid.hpp"

namespace mfc::perf {

ScalingSimulator::ScalingSimulator(SystemSpec system, NumericsModel numerics,
                                   bool gpu_aware_mpi)
    : system_(std::move(system)), numerics_(numerics), gpu_aware_(gpu_aware_mpi) {}

double ScalingSimulator::rank_grindtime_ns() const {
    // A rank driving a fraction of a device sees that fraction of its
    // bandwidth and FLOPs, i.e. 1/fraction times the device grindtime.
    return numerics_.kernel.grindtime_ns(system_.device()) /
           system_.rank_fraction;
}

double ScalingSimulator::step_seconds(const Extents& global, int ranks,
                                      double* comm_fraction) const {
    MFC_REQUIRE(ranks >= 1, "step_seconds: ranks must be positive");
    const std::array<int, 3> dims = comm::dims_create(ranks, 3);

    // Worst-case (largest) local block: rank at coords (0,0,0) by the
    // remainder-first convention of decompose().
    const LocalBlock block = decompose(global, dims, {0, 0, 0});
    const long long local = block.cells.cells();

    // Compute: grindtime covers one RHS evaluation per unit.
    const double compute_per_rhs =
        rank_grindtime_ns() * static_cast<double>(local) *
        static_cast<double>(numerics_.num_eqns) * 1.0e-9;

    // Halo traffic per RHS evaluation: one face slab per communicating
    // neighbor, ghost_layers deep, all equations.
    double bytes = 0.0;
    double messages = 0.0;
    const int n[3] = {block.cells.nx, block.cells.ny, block.cells.nz};
    for (int d = 0; d < 3; ++d) {
        if (dims[static_cast<std::size_t>(d)] <= 1) continue;
        const int faces = std::min(2, dims[static_cast<std::size_t>(d)] - 1) == 1
                              ? 1
                              : 2; // interior ranks exchange both sides
        const double area = static_cast<double>(local) / n[d];
        bytes += faces * area * numerics_.ghost_layers * numerics_.num_eqns * 8.0;
        messages += faces;
    }

    // Full-system congestion degrades injection bandwidth linearly with
    // machine fill, down to full_system_bw_fraction at the limit case.
    NetworkModel net = system_.network;
    const double fill =
        std::min(1.0, static_cast<double>(ranks) /
                          static_cast<double>(system_.limit_ranks));
    net.bw_gbs_per_device *=
        1.0 - (1.0 - system_.full_system_bw_fraction) * fill;

    const double exch = net.exchange_seconds(bytes, messages, gpu_aware_);

    // One global reduction (stable-dt / diagnostics) per step.
    const double reduce_s = 2.0 * std::ceil(std::log2(std::max(2, ranks))) *
                            net.latency_us * 1.0e-6;

    double rhs_s;
    double exposed_per_rhs;
    if (overlap_) {
        // Task-graph schedule: the in-flight exchange hides under the
        // interior sweeps; what cannot hide is the pack/unpack DRAM
        // traffic (it produces/consumes the message bytes at the
        // endpoints) and the per-message latency of the posts.
        const DeviceSpec& dev = system_.device();
        const double halo_cells = bytes / 8.0;
        const double residue_raw =
            halo_cells *
                (kHaloPackCost.ns_per_cell(dev) +
                 kHaloUnpackCost.ns_per_cell(dev)) *
                1.0e-9 / system_.rank_fraction +
            messages * net.latency_us * 1.0e-6;
        const double residue = std::min(residue_raw, exch);
        rhs_s = std::max(compute_per_rhs, exch - residue) + residue;
        exposed_per_rhs = rhs_s - compute_per_rhs;
    } else {
        // Synchronous schedule: the interconnect's flat exposure
        // heuristic, every exposed microsecond added to compute.
        const double comm_per_rhs = net.exposed_seconds(exch);
        rhs_s = compute_per_rhs + comm_per_rhs;
        exposed_per_rhs = comm_per_rhs;
    }

    const double step = numerics_.rk_stages * rhs_s + reduce_s;
    if (comm_fraction != nullptr) {
        *comm_fraction =
            (numerics_.rk_stages * exposed_per_rhs + reduce_s) / step;
    }
    return step;
}

namespace {

double grind_of(double step_seconds, const Extents& global, int eqns,
                int stages) {
    return step_seconds * 1.0e9 /
           (static_cast<double>(global.cells()) * eqns * stages);
}

} // namespace

std::vector<ScalingPoint>
ScalingSimulator::weak_sweep(const std::vector<int>& rank_counts) const {
    std::vector<ScalingPoint> out;
    double base_step = 0.0;
    for (const int ranks : rank_counts) {
        const std::array<int, 3> dims = comm::dims_create(ranks, 3);
        Extents global{dims[0] * system_.weak_edge, dims[1] * system_.weak_edge,
                       dims[2] * system_.weak_edge};
        ScalingPoint p;
        p.ranks = ranks;
        p.dims = dims;
        p.global = global;
        p.cells_per_rank = static_cast<long long>(system_.weak_edge) *
                           system_.weak_edge * system_.weak_edge;
        p.step_seconds = step_seconds(global, ranks, &p.comm_fraction);
        p.grindtime_ns =
            grind_of(p.step_seconds, global, numerics_.num_eqns, numerics_.rk_stages);
        if (out.empty()) base_step = p.step_seconds;
        // Ideal weak scaling keeps step time constant as ranks grow.
        p.efficiency = base_step / p.step_seconds;
        p.speedup = 1.0;
        out.push_back(p);
    }
    return out;
}

std::vector<ScalingPoint>
ScalingSimulator::strong_sweep(const Extents& global,
                               const std::vector<int>& rank_counts) const {
    std::vector<ScalingPoint> out;
    double base_step = 0.0;
    int base_ranks = 1;
    for (const int ranks : rank_counts) {
        const std::array<int, 3> dims = comm::dims_create(ranks, 3);
        ScalingPoint p;
        p.ranks = ranks;
        p.dims = dims;
        p.global = global;
        p.cells_per_rank = decompose(global, dims, {0, 0, 0}).cells.cells();
        p.step_seconds = step_seconds(global, ranks, &p.comm_fraction);
        p.grindtime_ns =
            grind_of(p.step_seconds, global, numerics_.num_eqns, numerics_.rk_stages);
        if (out.empty()) {
            base_step = p.step_seconds;
            base_ranks = ranks;
        }
        p.speedup = base_step / p.step_seconds;
        const double ideal = static_cast<double>(ranks) / base_ranks;
        p.efficiency = p.speedup / ideal;
        out.push_back(p);
    }
    return out;
}

} // namespace mfc::perf
