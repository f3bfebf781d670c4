#pragma once

#include <string>
#include <utility>
#include <vector>

namespace mfc::toolchain {

/// Golden files (Section 4.2): reference output data used to verify
/// correctness by comparing current results against previously validated
/// solutions. Each line holds one named, flattened output array in MFC's
/// serial output formatting (full-precision scientific notation), which
/// diffs cleanly across systems while staying small in version control.
class GoldenFile {
public:
    using Entry = std::pair<std::string, std::vector<double>>;

    GoldenFile() = default;
    explicit GoldenFile(std::vector<Entry> entries) : entries_(std::move(entries)) {}

    [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
    [[nodiscard]] bool has(const std::string& name) const;
    [[nodiscard]] const std::vector<double>& values(const std::string& name) const;
    void add(std::string name, std::vector<double> values);

    [[nodiscard]] std::string serialize() const;
    [[nodiscard]] static GoldenFile parse(const std::string& text);

    void save(const std::string& path) const;
    [[nodiscard]] static GoldenFile load(const std::string& path);

private:
    std::vector<Entry> entries_;
};

/// Result of a golden comparison, reporting where tolerances were
/// exceeded. A value fails only when BOTH its absolute and relative
/// errors exceed their thresholds — the default 1e-12 reflecting
/// floating-point round-off and non-IEEE-754-compliant optimized
/// arithmetic (Section 4.2).
struct CompareResult {
    bool ok = true;
    int mismatched_values = 0;
    double max_abs_err = 0.0;
    double max_rel_err = 0.0;
    std::string message; ///< first failure, human-readable
};

inline constexpr double kDefaultTolerance = 1.0e-12;

[[nodiscard]] CompareResult compare_golden(const GoldenFile& reference,
                                           const GoldenFile& current,
                                           double abs_tol = kDefaultTolerance,
                                           double rel_tol = kDefaultTolerance);

/// The --add-new-variables mode (Section 4.2): variables present in
/// `fresh` but missing from `existing` are appended; existing values are
/// never modified, maintaining the integrity of the original data.
[[nodiscard]] GoldenFile add_new_variables(const GoldenFile& existing,
                                           const GoldenFile& fresh);

/// golden-metadata.txt content: CMake-configuration-like build/system
/// information plus the case parameters (Section 4.2).
[[nodiscard]] std::string golden_metadata(const std::string& uuid,
                                          const std::string& trace,
                                          const std::string& canonical_params);

/// Write `text` to `path`; throws mfc::Error naming the file when it cannot
/// be opened (a directory) or the write does not reach it whole (a full device).
void write_text_file(const std::string& path, const std::string& text);

} // namespace mfc::toolchain
