#pragma once

#include <string>
#include <vector>

namespace mfc::perf {

/// Compute-device class, as in Table 3's "Type" column.
enum class DeviceType { CPU, GPU, APU };

[[nodiscard]] std::string to_string(DeviceType t);

/// One hardware platform from the paper's Table 3 catalog, with the
/// published specifications that drive the roofline model and the paper's
/// measured grindtime as reference data.
///
/// `eff_bw` / `eff_flops` are calibrated software-efficiency factors (the
/// fraction of peak the MFC kernels sustain with the best compiler for
/// that platform). Most devices use their vendor-class defaults; the
/// handful of per-device overrides (A64FX's immature SVE code generation,
/// MI300A's early APU software stack, ...) are documented in
/// EXPERIMENTS.md. eff_bw may exceed 1 where cache residency cuts DRAM
/// traffic below the model's nominal byte count.
struct DeviceSpec {
    std::string name;
    DeviceType type = DeviceType::CPU;
    std::string vendor;
    std::string usage;        ///< e.g. "1 GPU", "64 cores" (Table 3 "Usage")
    std::string compiler;     ///< best-performing compiler
    double mem_bw_gbs = 0.0;  ///< sustained memory bandwidth, GB/s
    double fp64_tflops = 0.0; ///< FP64 peak, TFLOP/s
    double mem_gb = 0.0;      ///< device memory capacity, GB
    double eff_bw = 1.0;
    double eff_flops = 0.3;
    double paper_grindtime_ns = 0.0; ///< Table 3 "Time" reference value
    /// Sustained FP64 divides (or square roots) per ns; 0 leaves the
    /// divider out of the model (the Table 3 devices).
    double fp64_div_per_ns = 0.0;
};

/// The full Table 3 catalog (49 platforms), ordered as in the paper
/// (ascending grindtime).
[[nodiscard]] const std::vector<DeviceSpec>& device_catalog();

/// Lookup by exact name; throws mfc::Error when absent.
[[nodiscard]] const DeviceSpec& find_device(const std::string& name);

/// Kendall rank correlation of two equally long series, as Table 3's
/// model-against-paper ordering check: (concordant - discordant) /
/// (concordant + discordant) over all pairs, where a pair tied in either
/// series counts as neither. 1 is the same order, -1 the reverse, NaN
/// when every pair is tied.
[[nodiscard]] double kendall_tau(const std::vector<double>& a,
                                 const std::vector<double>& b);

} // namespace mfc::perf
