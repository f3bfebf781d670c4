#pragma once

#include <array>
#include <vector>

#include "core/field.hpp"
#include "perf/kernel_model.hpp"
#include "perf/system.hpp"

namespace mfc::perf {

/// One point of a scaling sweep.
struct ScalingPoint {
    int ranks = 1;
    std::array<int, 3> dims{1, 1, 1}; ///< process box (dims_create)
    Extents global;              ///< global grid at this point
    long long cells_per_rank = 0; ///< worst-case (largest) local block
    double step_seconds = 0.0;   ///< modeled wall time per time step
    double grindtime_ns = 0.0;   ///< ns / (global point * eqn * rhs eval)
    double comm_fraction = 0.0;  ///< exposed comm / total step time
    double efficiency = 1.0;     ///< weak: t_base/t; strong: speedup/ideal
    double speedup = 1.0;        ///< strong scaling only (vs base ranks)
};

/// Numerics description the model needs: equation count, ghost width,
/// and Runge-Kutta stages (the standardized case: 8 eqns, WENO5 ghosts,
/// RK3), plus whether the IGR kernel model applies.
struct NumericsModel {
    int num_eqns = 8;
    int ghost_layers = 3;
    int rk_stages = 3;
    KernelModel kernel;

    /// Kernel model for IGR "alternative numerics" (Section 6.3): cheaper
    /// per-unit memory traffic (no reconstruction stencils / Riemann
    /// solves), which is what admits the larger Alps base case.
    [[nodiscard]] static NumericsModel igr() {
        NumericsModel n;
        n.kernel.bytes_per_unit = 600.0;
        n.kernel.flops_per_unit = 250.0;
        return n;
    }
};

/// Analytic performance simulator for weak and strong scaling on a
/// SystemSpec. The decomposition, local block sizes, and halo-message
/// geometry are computed with the *same* dims_create/decompose code the
/// real solver runs; only the per-byte and per-flop costs come from the
/// device and network models.
class ScalingSimulator {
public:
    ScalingSimulator(SystemSpec system, NumericsModel numerics,
                     bool gpu_aware_mpi = true);

    /// Grindtime (ns/unit) of one rank of this system.
    [[nodiscard]] double rank_grindtime_ns() const;

    /// Weak scaling: every rank holds a weak_edge^3 block (perfect cubes,
    /// so all halo exchanges are equivalent); on Frontier the points' dims
    /// and global grids are Table 4. Efficiency is relative to the sweep's
    /// first point.
    [[nodiscard]] std::vector<ScalingPoint>
    weak_sweep(const std::vector<int>& rank_counts) const;

    /// Strong scaling: fixed global grid split over increasing ranks;
    /// speedup is grindtime(base)/grindtime(R) as in Fig. 3.
    [[nodiscard]] std::vector<ScalingPoint>
    strong_sweep(const Extents& global, const std::vector<int>& rank_counts) const;

    /// Modeled time for one time step at the given decomposition.
    [[nodiscard]] double step_seconds(const Extents& global, int ranks,
                                      double* comm_fraction = nullptr) const;

    /// Switch the communication model to the task-graph overlap schedule
    /// (src/sched): per RHS evaluation the step pays
    ///     max(compute, overlappable comm) + residue
    /// instead of compute + exposed comm. The residue is the part of the
    /// exchange that cannot hide under compute — pack/unpack DRAM traffic
    /// (kHaloPackCost/kHaloUnpackCost) plus per-message latency — capped
    /// by the exchange itself. Off by default (the synchronous schedule
    /// with the interconnect's flat exposure heuristic).
    void set_overlap(bool enabled) { overlap_ = enabled; }
    [[nodiscard]] bool overlap() const { return overlap_; }

    [[nodiscard]] const SystemSpec& system() const { return system_; }
    [[nodiscard]] const NumericsModel& numerics() const { return numerics_; }

private:
    SystemSpec system_;
    NumericsModel numerics_;
    bool gpu_aware_;
    bool overlap_ = false;
};

} // namespace mfc::perf
