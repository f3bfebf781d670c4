#pragma once

#include <string>
#include <vector>

#include "perf/device.hpp"
#include "perf/network.hpp"

namespace mfc::perf {

/// A leadership-class machine from Table 5 / Fig. 2: a per-rank compute
/// device, its share of the interconnect, and the paper's base/limit case
/// sizes and measured weak-scaling efficiency (reference data).
struct SystemSpec {
    std::string name;
    std::string device_name; ///< Table 3 catalog entry backing each rank
    /// Fraction of the catalog device that one MPI rank drives (Frontier
    /// ranks drive a single MI250X GCD, i.e. half the device).
    double rank_fraction = 1.0;
    NetworkModel network;
    int base_ranks = 8;
    int limit_ranks = 64;
    /// Weak-scaling local problem edge (cells per rank = edge^3); chosen
    /// to hit the paper's memory-per-rank target (Table 4: 200^3 = 16 GB
    /// per MI250X GCD on Frontier).
    int weak_edge = 200;
    /// Fraction of injection bandwidth surviving full-system congestion.
    double full_system_bw_fraction = 0.5;
    double paper_efficiency = 1.0; ///< Table 5 "Efficiency"
    std::string rank_label = "GPUs"; ///< Table 5 device-count label

    [[nodiscard]] const DeviceSpec& device() const {
        return find_device(device_name);
    }

    /// Fig. 2's rank counts: base_ranks doubling while below limit_ranks,
    /// then limit_ranks itself.
    [[nodiscard]] std::vector<int> base_to_limit_ranks() const;
};

/// Table 5 systems: OLCF Summit, CSCS Alps, OLCF Frontier, LLNL El
/// Capitan (paper order).
[[nodiscard]] const std::vector<SystemSpec>& system_catalog();
[[nodiscard]] const SystemSpec& find_system(const std::string& name);

} // namespace mfc::perf
