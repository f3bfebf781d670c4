#pragma once

#include "perf/device.hpp"

namespace mfc::perf {

/// Roofline model of MFC's RHS kernels. The solved work unit is one
/// (grid point, equation, RHS evaluation) — the denominator of grindtime.
///
/// The per-unit resource counts are derived from the structure of this
/// repository's own RHS (see src/solver/rhs.cpp): per cell and direction,
/// WENO reconstruction reads a (2r+1)-point stencil per equation, the
/// Riemann solve touches both neighbor states, and the state is streamed
/// once per Runge-Kutta stage. Summed over three directions and divided
/// by the equation count this amounts to O(1 kB) of effective DRAM
/// traffic and a few hundred FLOPs per unit.
struct KernelModel {
    double bytes_per_unit = 1250.0; ///< effective DRAM bytes / unit
    double flops_per_unit = 450.0;  ///< FP64 operations / unit

    /// Section 5: without --case-optimization (compile-time-constant case
    /// parameters) grindtime degrades by roughly this factor.
    double case_optimization_speedup = 10.0;

    /// Modeled grindtime (ns per unit) for a device: the roofline
    /// max(memory time, compute time) with the device's calibrated
    /// sustained-efficiency factors.
    [[nodiscard]] double grindtime_ns(const DeviceSpec& dev,
                                      bool case_optimized = true) const {
        const double mem_ns = bytes_per_unit / (dev.mem_bw_gbs * dev.eff_bw);
        const double flop_ns =
            (flops_per_unit / 1000.0) / (dev.fp64_tflops * dev.eff_flops);
        const double base = mem_ns > flop_ns ? mem_ns : flop_ns;
        return case_optimized ? base : base * case_optimization_speedup;
    }

    /// Wall seconds for `rhs_evals` RHS evaluations over `cells` points
    /// and `eqns` equations on one device.
    [[nodiscard]] double compute_seconds(const DeviceSpec& dev, double cells,
                                         int eqns, double rhs_evals,
                                         bool case_optimized = true) const {
        return grindtime_ns(dev, case_optimized) * cells *
               static_cast<double>(eqns) * rhs_evals * 1.0e-9;
    }
};

/// The ceiling a kernel's modeled time comes from.
enum class KernelBound { Memory, Flops, Divider };

[[nodiscard]] const char* to_string(KernelBound b);

/// Roofline cost of one standalone pencil kernel, per row cell — the
/// per-kernel analogue of KernelModel's whole-RHS unit. `bytes_per_cell`
/// counts the effective streaming traffic of the kernel's inputs and
/// outputs (stencil reads count once: consecutive cells reuse them);
/// `flops_per_cell` the FP64 operations on the taken path;
/// `divs_per_cell` and `sqrts_per_cell` the divides and square roots on
/// it, counted from the kernel source (identical divides that inlining
/// shares count once). The divider is only partly pipelined, so on a core
/// it is a third ceiling next to bandwidth and FLOP rate. `mfc ubench` compares
/// each kernel's measured ns/cell against ns_per_cell() on
/// reference_core() and names the ceiling that binds.
struct KernelCost {
    double bytes_per_cell = 0.0;
    double flops_per_cell = 0.0;
    double divs_per_cell = 0.0;
    double sqrts_per_cell = 0.0;

    [[nodiscard]] double memory_ns(const DeviceSpec& dev) const {
        return bytes_per_cell / (dev.mem_bw_gbs * dev.eff_bw);
    }
    [[nodiscard]] double flop_ns(const DeviceSpec& dev) const {
        return (flops_per_cell / 1000.0) / (dev.fp64_tflops * dev.eff_flops);
    }
    /// Square roots share the divide unit and count at the divide rate.
    [[nodiscard]] double divider_ns(const DeviceSpec& dev) const {
        return dev.fp64_div_per_ns > 0.0
                   ? (divs_per_cell + sqrts_per_cell) / dev.fp64_div_per_ns
                   : 0.0;
    }

    /// The ceiling that binds: the largest of the three times.
    [[nodiscard]] KernelBound bound(const DeviceSpec& dev) const {
        const double mem = memory_ns(dev);
        const double flop = flop_ns(dev);
        const double div = divider_ns(dev);
        if (div > mem && div > flop) return KernelBound::Divider;
        return flop > mem ? KernelBound::Flops : KernelBound::Memory;
    }

    /// Modeled ns per cell: the max of memory, FLOP and divider time.
    [[nodiscard]] double ns_per_cell(const DeviceSpec& dev) const {
        const double mem = memory_ns(dev);
        const double flop = flop_ns(dev);
        const double div = divider_ns(dev);
        const double roof = mem > flop ? mem : flop;
        return div > roof ? div : roof;
    }
};

/// Roofline entries for the halo pack/unpack kernels (src/grid/halo.cpp):
/// gathering a ghost slab into a contiguous message buffer (or scattering
/// it back) reads and writes each packed cell once — 16 effective bytes
/// per cell, no arithmetic. These feed both `mfc ubench` and the
/// non-overlappable residue of ScalingSimulator's overlap model (packing
/// cannot hide under compute: it produces the bytes the network sends).
inline constexpr KernelCost kHaloPackCost{16.0, 0.0};
inline constexpr KernelCost kHaloUnpackCost{16.0, 0.0};

/// Roofline entry for ubench's `transpose_tile` reference copy, kept
/// because the repository benchmark times it: tile_rows() x-adjacent
/// pencils staged through one cache-blocked transpose tile, every fetched
/// line consumed whole: 8 bytes in + 8 bytes out per cell.
inline constexpr KernelCost kTransposeTileCost{16.0, 0.0};

/// The single-core device the ubench model normalizes against: one
/// generic server-class x86 core running the kernels as built (host ISA
/// level, no FMA contraction). Its FP64 peak follows the lane count the
/// kernels run at: the build's register width (2 doubles for SSE2, 4 for
/// AVX2, 8 for AVX-512), capped by the simd width. Sustained per-core
/// bandwidth and FP64 throughput are deliberately round numbers; the
/// model column is a magnitude anchor, not a calibration. The divide
/// throughput is measured: see reference_core() in ubench.cpp.
[[nodiscard]] const DeviceSpec& reference_core();

} // namespace mfc::perf
