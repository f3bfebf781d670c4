#pragma once

#include <string>

#include "toolchain/case_generators.hpp"
#include "toolchain/golden.hpp"

namespace mfc::toolchain {

/// What `./mfc.sh test` should do with each case (Section 4.2).
enum class TestMode {
    Compare,         ///< run and compare against the stored golden file
    Generate,        ///< run and (re)write golden.txt + golden-metadata.txt
    AddNewVariables, ///< run and append outputs missing from golden.txt
};

struct TestOutcome {
    bool passed = false;
    std::string detail; ///< why the case failed; empty when it passed
};

/// The golden step of one regression case, given its fresh outputs
/// `current`; TestSuite::run_case and every ensemble regression job call
/// it. `golden_path` is `<root>/<UUID>/golden.txt`: Generate creates its
/// directory and writes golden-metadata.txt beside it (the directory
/// names the UUID). Never throws: returns "" when the case passes,
/// otherwise why it failed, naming the path on any I/O or file-system
/// error.
[[nodiscard]] std::string golden_step(TestMode mode,
                                      const std::string& golden_path,
                                      const std::string& trace,
                                      const CaseDict& params,
                                      const GoldenFile& current);

/// The regression suite: its cases and their golden directories
/// `<root>/<UUID>/golden.txt` (plus golden-metadata.txt), following the
/// layout Section 4 describes. `mfc test` runs them as one campaign.
class TestSuite {
public:
    TestSuite(CaseList cases, std::string golden_root);

    [[nodiscard]] const CaseList& cases() const { return cases_; }

    /// Locate a case by UUID (the `-o <UUID>` selector); throws if absent.
    [[nodiscard]] const TestCaseDef& case_by_uuid(const std::string& uuid) const;

    /// Run one case under the given mode: execute_case, then golden_step.
    [[nodiscard]] TestOutcome run_case(const TestCaseDef& def, TestMode mode) const;

    [[nodiscard]] std::string golden_path(const std::string& uuid) const;

    /// Execute a case dictionary and collect its flattened outputs — the
    /// simulation step shared by every mode.
    [[nodiscard]] static GoldenFile execute_case(const CaseDict& params);

private:
    CaseList cases_;
    std::string root_;
};

} // namespace mfc::toolchain
