#include "simd/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

namespace mfc::simd {

namespace {

/// One 512-bit register of doubles in an AVX-512 build, 256 bits
/// otherwise.
#if defined(__AVX512F__)
constexpr int kDefaultWidth = 8;
#else
constexpr int kDefaultWidth = 4;
#endif

int initial_width() {
    const char* env = std::getenv("MFC_SIMD_WIDTH");
    if (env == nullptr || *env == '\0') { return kDefaultWidth; }
    int w = 0;
    try {
        w = std::stoi(env);
    } catch (const std::exception&) {
        fail("MFC_SIMD_WIDTH must be an integer (got \"" + std::string(env) +
             "\")");
    }
    MFC_REQUIRE(width_allowed(w),
                "MFC_SIMD_WIDTH must be 1, 2, 4, or 8 (got " +
                    std::string(env) + ")");
    return w;
}

std::atomic<int>& width_state() {
    static std::atomic<int> w{initial_width()};
    return w;
}

/// The level the compiler targeted, from its predefined macros.
const char* isa_name() {
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512CD__) && \
    defined(__AVX512DQ__) && defined(__AVX512VL__)
    return "x86-64-v4";
#elif defined(__AVX2__) && defined(__FMA__) && defined(__BMI2__)
    return "x86-64-v3";
#elif defined(__x86_64__)
    return "x86-64";
#else
    return "portable";
#endif
}

} // namespace

bool width_allowed(int w) { return w == 1 || w == 2 || w == 4 || w == 8; }

int width() { return width_state().load(std::memory_order_relaxed); }

void set_width(int w) {
    MFC_REQUIRE(width_allowed(w), "SIMD width must be 1, 2, 4, or 8 (got " +
                                      std::to_string(w) + ")");
    width_state().store(w, std::memory_order_relaxed);
}

std::string isa_label() {
    return std::string(isa_name()) + " W=" + std::to_string(width());
}

int register_lanes() {
#if defined(__AVX512F__)
    return 8;
#elif defined(__AVX__)
    return 4;
#else
    return 2;
#endif
}

} // namespace mfc::simd
