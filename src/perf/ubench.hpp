#pragma once

#include <string>
#include <vector>

#include "perf/kernel_model.hpp"

namespace mfc::perf {

/// Standalone microbenchmarks of the solver's hot pencil kernels
/// (`mfc ubench`). Each kernel runs on deterministic, physically valid
/// synthetic rows — the same templates the RHS dispatches, at the
/// simd width currently selected by mfc::simd::width() — and reports
/// min-of-reps timing so a kernel regression can be localized without
/// running a full case. Results land in the `ubench:` section of the
/// bench YAML and diff through `mfc bench_diff`.
struct UbenchOptions {
    int cells = 4096; ///< row length per kernel invocation
    int reps = 33;    ///< timed repetitions; the minimum is reported
};

struct UbenchResult {
    std::string name;
    int cells = 0;
    int reps = 0;
    double ns_per_cell = 0.0;       ///< min over reps
    double gbs = 0.0;               ///< cost.bytes_per_cell / ns_per_cell
    double model_ns_per_cell = 0.0; ///< cost.ns_per_cell(reference_core())
    KernelBound bound = KernelBound::Memory; ///< cost.bound(reference_core())
    KernelCost cost;
    double checksum = 0.0; ///< deterministic output digest (and DCE sink)
};

/// Registered kernel names, in execution order of the RHS.
[[nodiscard]] const std::vector<std::string>& ubench_kernels();

/// Run one kernel by name; throws mfc::Error for unknown names.
[[nodiscard]] UbenchResult run_ubench(const std::string& name,
                                      const UbenchOptions& options = {});

/// Run every registered kernel.
[[nodiscard]] std::vector<UbenchResult>
run_ubench_all(const UbenchOptions& options = {});

} // namespace mfc::perf
