#include "ensemble/cache.hpp"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/error.hpp"
#include "core/hash.hpp"
#include "core/yaml.hpp"
#include "toolchain/case_stack.hpp"

namespace mfc::ensemble {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSchema = "mfc-ensemble-cache-v2";

/// Content hash of the golden file a regression job compares against, so
/// regenerating a golden invalidates cached verdicts. Missing files hash
/// as a distinct sentinel (the job will fail either way, but cheaply).
std::uint64_t golden_content_hash(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) return fnv1a64("golden-absent");
    std::ostringstream ss;
    ss << in.rdbuf();
    return fnv1a64(ss.str());
}

} // namespace

std::string hex64(std::uint64_t v) {
    // The 'x' prefix keeps the rendering out of Value::parse's numeric
    // forms: a bare digit-only hash ("1234...") would round-trip through
    // YAML as an integer (or worse, "12e3..." as a double), corrupting
    // bit-exact payloads.
    char buf[18];
    std::snprintf(buf, sizeof buf, "x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t parse_hex64(const std::string& s) {
    MFC_REQUIRE(s.size() == 17 && s[0] == 'x',
                "hex64: expected x + 16 hex digits: '" + s + "'");
    std::uint64_t v = 0;
    for (const char c : s.substr(1)) {
        v <<= 4;
        if (c >= '0' && c <= '9') {
            v |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
            fail("hex64: invalid digit in '" + s + "'");
        }
    }
    return v;
}

std::uint64_t job_key(const JobSpec& spec) {
    std::string record(kSchema);
    record += '\n';
    record += "kind=" + to_string(spec.kind) + '\n';
    switch (spec.kind) {
    case JobKind::Bench:
        record += "bench_case=" + spec.bench_case + '\n';
        record += "bench_mem_gb=" + Value(spec.bench_mem_gb).to_string() + '\n';
        break;
    case JobKind::Chaos:
        record += "chaos_seed=" + std::to_string(spec.chaos_seed) + '\n';
        record += "chaos_ranks=" + std::to_string(spec.chaos_ranks) + '\n';
        break;
    case JobKind::Regression:
        if (!spec.golden_path.empty()) {
            record += "golden=" +
                      hex64(golden_content_hash(spec.golden_path)) + '\n';
        }
        break;
    case JobKind::Uq: break;
    }
    record += toolchain::canonical_dict(spec.params);
    return fnv1a64(record);
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string ResultCache::path_for(std::uint64_t key) const {
    return dir_ + "/" + hex64(key) + ".yml";
}

std::optional<JobResult> ResultCache::lookup(const JobSpec& spec,
                                             std::uint64_t key) {
    if (!enabled()) return std::nullopt;
    const std::lock_guard<std::mutex> lk(m_);
    try {
        const std::string path = path_for(key);
        if (!fs::exists(path)) {
            ++misses_;
            return std::nullopt;
        }
        const Yaml node = Yaml::load(path);
        // A mismatched key or kind means a hash collision or a stale
        // rename — treat as a miss rather than serving a wrong result.
        if (parse_hex64(node.at("key").value().as_string()) != key ||
            node.at("kind").value().as_string() != to_string(spec.kind)) {
            ++misses_;
            return std::nullopt;
        }
        JobResult r;
        r.index = spec.index;
        r.id = spec.id;
        r.kind = spec.kind;
        r.from_cache = true;
        r.key = key;
        r.passed = node.at("passed").value().as_bool();
        r.state_hash = parse_hex64(node.at("state_hash").value().as_string());
        if (node.contains("detail")) {
            r.detail = node.at("detail").value().to_string();
        }
        if (node.contains("sample")) {
            for (const Yaml& item : node.at("sample").items()) {
                r.sample.push_back(std::bit_cast<double>(
                    parse_hex64(item.value().as_string())));
            }
        }
        ++hits_;
        return r;
    } catch (const Error&) {
        ++misses_; // unparseable entry: fall through to execution
        return std::nullopt;
    }
}

void ResultCache::store(const JobSpec& spec, const JobResult& result,
                        std::uint64_t key) {
    if (!enabled() || !spec.cacheable() || result.from_cache) return;
    const std::lock_guard<std::mutex> lk(m_);
    try {
        fs::create_directories(dir_);
        Yaml node;
        node["key"].set(Value(hex64(key)));
        node["kind"].set(Value(to_string(result.kind)));
        node["passed"].set(Value(result.passed));
        node["state_hash"].set(Value(hex64(result.state_hash)));
        if (!result.detail.empty()) {
            // Keep the entry single-line parseable.
            std::string detail = result.detail;
            for (char& c : detail) {
                if (c == '\n' || c == '\r') c = ' ';
            }
            node["detail"].set(Value(detail));
        }
        if (!result.sample.empty()) {
            Yaml& sample = node["sample"];
            for (const double v : result.sample) {
                // Hex bit patterns round-trip IEEE-754 doubles exactly, so
                // moments accumulated from cached samples are bitwise
                // equal to freshly computed ones.
                sample.push_back(Yaml(Value(hex64(std::bit_cast<std::uint64_t>(v)))));
            }
        }
        // Write-temp-then-rename: a crash mid-store can never leave a
        // half-written entry under the final name.
        const std::string path = path_for(key);
        const std::string tmp = path + ".tmp";
        node.save(tmp);
        fs::rename(tmp, path);
        ++stores_;
    } catch (const std::exception&) {
        // Cache stores are best-effort; failures only cost future misses.
    }
}

long long ResultCache::hits() const {
    const std::lock_guard<std::mutex> lk(m_);
    return hits_;
}

long long ResultCache::misses() const {
    const std::lock_guard<std::mutex> lk(m_);
    return misses_;
}

long long ResultCache::stores() const {
    const std::lock_guard<std::mutex> lk(m_);
    return stores_;
}

} // namespace mfc::ensemble
