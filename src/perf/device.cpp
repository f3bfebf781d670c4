#include "perf/device.hpp"

#include "core/error.hpp"

namespace mfc::perf {

std::string to_string(DeviceType t) {
    switch (t) {
    case DeviceType::CPU: return "CPU";
    case DeviceType::GPU: return "GPU";
    case DeviceType::APU: return "APU";
    }
    MFC_ASSERT(false);
}

namespace {

// Vendor-class software-efficiency defaults (fraction of peak sustained by
// the MFC kernels), calibrated once against the paper's reference table:
//   NVIDIA data-center GPUs: eff_bw 1.0   (HBM-bandwidth bound)
//   NVIDIA consumer GPUs:    eff_flops 0.21 (FP64-throughput bound)
//   AMD GPUs:                eff_bw 0.75
//   CPUs:                    eff_bw 1.5, eff_flops 0.06 (cache reuse cuts
//                            DRAM traffic; scalar-heavy WENO limits FLOPs)
constexpr double kNvDcBw = 1.0;
constexpr double kNvFl = 0.30;
constexpr double kNvConsumerFl = 0.21;
constexpr double kAmdBw = 0.75;
constexpr double kCpuBw = 1.5;
constexpr double kCpuFl = 0.06;

std::vector<DeviceSpec> build_catalog() {
    using T = DeviceType;
    std::vector<DeviceSpec> c;
    const auto add = [&](std::string name, T type, std::string vendor,
                         std::string usage, std::string compiler, double bw,
                         double tflops, double mem, double eb, double ef,
                         double paper) {
        c.push_back(DeviceSpec{std::move(name), type, std::move(vendor),
                               std::move(usage), std::move(compiler), bw,
                               tflops, mem, eb, ef, paper});
    };

    // --- Table 3, left column (fastest first) -----------------------------
    add("NVIDIA GH200", T::APU, "NVIDIA", "1 GPU", "NVHPC", 4000, 34.0, 96, kNvDcBw, kNvFl, 0.32);
    add("NVIDIA H100 SXM5", T::GPU, "NVIDIA", "1 GPU", "NVHPC", 3350, 34.0, 80, kNvDcBw, kNvFl, 0.38);
    add("NVIDIA H100 PCIe", T::GPU, "NVIDIA", "1 GPU", "NVHPC", 2000, 26.0, 80, 1.39, kNvFl, 0.45);
    add("AMD MI250X", T::GPU, "AMD", "1 GPU", "CCE", 3277, 47.9, 128, kAmdBw, kNvFl, 0.55);
    add("AMD MI300A", T::APU, "AMD", "1 APU", "CCE", 5300, 61.3, 128, 0.41, kNvFl, 0.57);
    add("NVIDIA A100", T::GPU, "NVIDIA", "1 GPU", "NVHPC", 1600, 9.7, 40, 1.26, kNvFl, 0.62);
    add("NVIDIA V100", T::GPU, "NVIDIA", "1 GPU", "NVHPC", 900, 7.8, 16, 1.40, kNvFl, 0.99);
    add("NVIDIA A30", T::GPU, "NVIDIA", "1 GPU", "NVHPC", 933, 5.2, 24, 1.22, kNvFl, 1.1);
    add("AMD EPYC 9965", T::CPU, "AMD", "192 cores", "AOCC", 614, 6.9, 1152, kCpuBw, kCpuFl, 1.2);
    add("AMD MI100", T::GPU, "AMD", "1 GPU", "CCE", 1229, 11.5, 32, kAmdBw, kNvFl, 1.4);
    add("AMD EPYC 9755", T::CPU, "AMD", "128 cores", "AOCC", 614, 8.2, 1152, kCpuBw, kCpuFl, 1.4);
    add("Intel Xeon 6980P", T::CPU, "Intel", "128 cores", "OneAPI", 614, 8.2, 1024, kCpuBw, kCpuFl, 1.4);
    add("NVIDIA L40S", T::GPU, "NVIDIA", "1 GPU", "NVHPC", 864, 1.4, 48, kNvDcBw, kNvConsumerFl, 1.7);
    add("AMD EPYC 9654", T::CPU, "AMD", "96 cores", "AOCC", 461, 5.4, 768, kCpuBw, kCpuFl, 1.7);
    add("Intel Xeon 6960P", T::CPU, "Intel", "72 cores", "OneAPI", 614, 4.6, 1024, 1.23, kCpuFl, 1.7);
    add("NVIDIA P100", T::GPU, "NVIDIA", "1 GPU", "NVHPC", 732, 4.7, 16, 0.72, kNvFl, 2.4);
    add("Intel Xeon 8592+", T::CPU, "Intel", "64 cores", "OneAPI", 358, 4.1, 512, kCpuBw, kCpuFl, 2.6);
    add("Intel Xeon 6900E", T::CPU, "Intel", "192 cores", "OneAPI", 614, 3.1, 1024, kCpuBw, kCpuFl, 2.6);
    add("AMD EPYC 9534", T::CPU, "AMD", "64 cores", "AOCC", 461, 3.6, 768, 1.17, kCpuFl, 2.7);
    add("NVIDIA A40", T::GPU, "NVIDIA", "1 GPU", "NVHPC", 696, 0.58, 48, kNvDcBw, kNvConsumerFl, 3.3);
    add("Intel Xeon Max 9468", T::CPU, "Intel", "48 cores", "OneAPI", 1000, 3.1, 128, 0.36, kCpuFl, 3.5);
    add("NVIDIA Grace CPU", T::CPU, "NVIDIA", "72 cores", "NVHPC", 500, 3.4, 480, 0.68, kCpuFl, 3.7);
    add("NVIDIA RTX6000", T::GPU, "NVIDIA", "1 GPU", "NVHPC", 672, 0.5, 24, kNvDcBw, kNvConsumerFl, 3.9);
    add("AMD EPYC 7763", T::CPU, "AMD", "64 cores", "GNU", 205, 2.5, 256, kCpuBw, kCpuFl, 4.1);
    add("Intel Xeon 6740E", T::CPU, "Intel", "92 cores", "OneAPI", 333, 1.5, 512, 1.26, kCpuFl, 4.2);

    // --- Table 3, right column ---------------------------------------------
    add("NVIDIA A10", T::GPU, "NVIDIA", "1 GPU", "NVHPC", 600, 0.49, 24, kNvDcBw, kNvConsumerFl, 4.3);
    add("AMD EPYC 7713", T::CPU, "AMD", "64 cores", "GNU", 205, 2.0, 256, 1.22, kCpuFl, 5.0);
    add("Intel Xeon 8480CL", T::CPU, "Intel", "56 cores", "OneAPI", 307, 3.6, 512, 0.81, kCpuFl, 5.0);
    add("Intel Xeon 6454S", T::CPU, "Intel", "32 cores", "OneAPI", 307, 2.0, 512, 0.73, kCpuFl, 5.6);
    add("Intel Xeon 8462Y+", T::CPU, "Intel", "32 cores", "OneAPI", 307, 2.3, 512, 0.66, kCpuFl, 6.2);
    add("Intel Xeon 6548Y+", T::CPU, "Intel", "32 cores", "OneAPI", 333, 2.1, 512, 0.57, kCpuFl, 6.6);
    add("Intel Xeon 8352Y", T::CPU, "Intel", "32 cores", "OneAPI", 205, 1.7, 256, 0.92, kCpuFl, 6.6);
    add("Ampere Altra Q80-28", T::CPU, "Ampere", "80 cores", "GNU", 205, 1.8, 256, 0.90, kCpuFl, 6.8);
    add("AMD EPYC 7513", T::CPU, "AMD", "32 cores", "GNU", 205, 1.3, 256, 1.17, kCpuFl, 7.4);
    add("Intel Xeon 8268", T::CPU, "Intel", "24 cores", "OneAPI", 141, 1.8, 192, 1.18, kCpuFl, 7.5);
    add("AMD EPYC 7452", T::CPU, "AMD", "32 cores", "GNU", 205, 1.1, 256, 1.22, kCpuFl, 8.4);
    add("NVIDIA T4", T::GPU, "NVIDIA", "1 GPU", "NVHPC", 320, 0.25, 16, kNvDcBw, kNvConsumerFl, 8.8);
    add("Intel Xeon 8160", T::CPU, "Intel", "24 cores", "OneAPI", 128, 1.6, 192, 1.10, kCpuFl, 8.9);
    add("IBM Power10", T::CPU, "IBM", "24 cores", "GNU", 409, 1.1, 256, 0.31, kCpuFl, 10.0);
    add("AMD EPYC 7401", T::CPU, "AMD", "24 cores", "GNU", 170, 0.77, 256, kCpuBw, kCpuFl, 10.0);
    add("Intel Xeon 6226", T::CPU, "Intel", "12 cores", "OneAPI", 141, 1.1, 192, 0.52, kCpuFl, 17.0);
    add("Apple M1 Max", T::CPU, "Apple", "10 cores", "GNU", 400, 0.4, 64, kCpuBw, kCpuFl, 20.0);
    add("IBM Power9", T::CPU, "IBM", "20 cores", "GNU", 170, 0.56, 256, 0.35, kCpuFl, 21.0);
    add("Cavium ThunderX2", T::CPU, "Cavium", "32 cores", "GNU", 171, 0.56, 256, 0.35, kCpuFl, 21.0);
    add("Arm Cortex-A78AE", T::CPU, "Arm", "16 cores", "GNU", 102, 0.12, 32, kCpuBw, 0.15, 25.0);
    add("Intel Xeon E5-2650V4", T::CPU, "Intel", "12 cores", "GNU", 77, 0.42, 128, 0.60, kCpuFl, 27.0);
    add("Apple M2", T::CPU, "Apple", "8 cores", "GNU", 100, 0.28, 24, kCpuBw, kCpuFl, 32.0);
    add("Intel Xeon E7-4850V3", T::CPU, "Intel", "14 cores", "GNU", 68, 0.5, 128, 0.54, kCpuFl, 34.0);
    add("Fujitsu A64FX", T::CPU, "Fujitsu", "48 cores", "GNU", 1024, 2.7, 32, kCpuBw, 0.0026, 63.0);
    return c;
}

} // namespace

const std::vector<DeviceSpec>& device_catalog() {
    static const std::vector<DeviceSpec> catalog = build_catalog();
    return catalog;
}

const DeviceSpec& find_device(const std::string& name) {
    for (const DeviceSpec& d : device_catalog()) {
        if (d.name == name) return d;
    }
    fail("unknown device: " + name);
}

double kendall_tau(const std::vector<double>& a, const std::vector<double>& b) {
    MFC_REQUIRE(a.size() == b.size(), "kendall_tau: series differ in length");
    long long concordant = 0;
    long long discordant = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (std::size_t j = i + 1; j < a.size(); ++j) {
            const double s = (a[i] - a[j]) * (b[i] - b[j]);
            if (s > 0) ++concordant;
            else if (s < 0) ++discordant;
        }
    }
    return static_cast<double>(concordant - discordant) /
           static_cast<double>(concordant + discordant);
}

} // namespace mfc::perf
