#include "toolchain/test_suite.hpp"

#include <filesystem>
#include <fstream>

#include "core/error.hpp"
#include "solver/simulation.hpp"

namespace mfc::toolchain {

namespace fs = std::filesystem;

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

std::string TestSuite::metadata_path(const std::string& uuid) const {
    return root_ + "/" + uuid + "/golden-metadata.txt";
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
    out.uuid = def.uuid;
    out.trace = def.trace;
    const std::string gpath = golden_path(def.uuid);

    GoldenFile current;
    try {
        current = execute_case(def.params);
    } catch (const Error& e) {
        out.passed = false;
        out.detail = std::string("run failed: ") + e.what();
        return out;
    }

    // A golden that cannot be written, read or parsed fails this case
    // with the file named; it does not abort the rest of the suite.
    try {
        switch (mode) {
        case TestMode::Generate: {
            fs::create_directories(fs::path(gpath).parent_path());
            current.save(gpath);
            std::ofstream meta(metadata_path(def.uuid));
            meta << golden_metadata(def.uuid, def.trace, canonical_dict(def.params));
            out.passed = true;
            out.detail = "generated";
            return out;
        }
        case TestMode::AddNewVariables: {
            if (!fs::exists(gpath)) {
                out.passed = false;
                out.detail = "no golden file to update";
                return out;
            }
            const GoldenFile merged = add_new_variables(GoldenFile::load(gpath), current);
            merged.save(gpath);
            out.passed = true;
            out.detail = "updated";
            return out;
        }
        case TestMode::Compare: {
            if (!fs::exists(gpath)) {
                out.passed = false;
                out.detail = "golden file missing (run with --generate first)";
                return out;
            }
            const CompareResult r = compare_golden(GoldenFile::load(gpath), current);
            out.passed = r.ok;
            out.detail = r.ok ? "pass" : r.message;
            return out;
        }
        }
    } catch (const Error& e) {
        out.passed = false;
        out.detail = e.what();
        return out;
    }
    MFC_ASSERT(false);
}

SuiteSummary TestSuite::run_all(TestMode mode) const {
    SuiteSummary s;
    for (const TestCaseDef& def : cases_) {
        const TestOutcome o = run_case(def, mode);
        ++s.total;
        if (o.passed) {
            ++s.passed;
        } else {
            ++s.failed;
            s.failures.push_back(o);
        }
    }
    return s;
}

SuiteSummary TestSuite::run_selected(const std::vector<std::string>& uuids,
                                     TestMode mode) const {
    SuiteSummary s;
    for (const std::string& uuid : uuids) {
        const TestOutcome o = run_case(case_by_uuid(uuid), mode);
        ++s.total;
        if (o.passed) {
            ++s.passed;
        } else {
            ++s.failed;
            s.failures.push_back(o);
        }
    }
    return s;
}

} // namespace mfc::toolchain
