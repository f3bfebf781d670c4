#include "toolchain/test_suite.hpp"

#include <exception>
#include <filesystem>

#include "core/error.hpp"
#include "core/strings.hpp"
#include "solver/simulation.hpp"

namespace mfc::toolchain {

namespace fs = std::filesystem;

std::string golden_step(TestMode mode, const std::string& golden_path,
                        const std::string& trace, const CaseDict& params,
                        const GoldenFile& current) {
    // A golden or golden root that cannot be written, read or parsed
    // fails this case with the path named; the rest of the suite runs.
    try {
        if (mode == TestMode::Generate) {
            const fs::path dir = fs::path(golden_path).parent_path();
            fs::create_directories(dir);
            current.save(golden_path);
            write_text_file((dir / "golden-metadata.txt").string(),
                            golden_metadata(dir.filename().string(), trace,
                                            canonical_dict(params)));
            return "";
        }
        if (!fs::exists(golden_path)) {
            return mode == TestMode::Compare
                       ? "golden file missing (run with --generate first)"
                       : "no golden file to update";
        }
        const GoldenFile golden = GoldenFile::load(golden_path);
        if (mode == TestMode::AddNewVariables) {
            add_new_variables(golden, current).save(golden_path);
            return "";
        }
        const CompareResult r = compare_golden(golden, current);
        return r.ok ? "" : r.message;
    } catch (const std::exception& e) {
        return e.what();
    }
}

TestSuite::TestSuite(CaseList cases, std::string golden_root)
    : cases_(std::move(cases)), root_(std::move(golden_root)) {
    // The golden root is created lazily by --generate; read-only uses
    // (--list, compare) must not leave directories behind.
}

const TestCaseDef& TestSuite::case_by_uuid(const std::string& uuid) const {
    for (const TestCaseDef& c : cases_) {
        if (c.uuid == uuid) return c;
    }
    fail("TestSuite: no case with UUID " + uuid);
}

std::string TestSuite::golden_path(const std::string& uuid) const {
    return root_ + "/" + uuid + "/golden.txt";
}

GoldenFile TestSuite::execute_case(const CaseDict& params) {
    const CaseConfig config = config_from_dict(params);
    Simulation sim(config);
    sim.initialize();
    sim.run();
    return GoldenFile(sim.flattened_outputs());
}

TestOutcome TestSuite::run_case(const TestCaseDef& def, TestMode mode) const {
    TestOutcome out;
    try {
        out.detail = golden_step(mode, golden_path(def.uuid), def.trace,
                                 def.params, execute_case(def.params));
    } catch (const Error& e) {
        out.detail = std::string("run failed: ") + e.what();
    }
    out.passed = out.detail.empty();
    return out;
}

} // namespace mfc::toolchain
