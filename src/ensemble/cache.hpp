#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "ensemble/job.hpp"

namespace mfc::ensemble {

/// Cache key for a job: a hardened FNV-1a hash over everything that can
/// influence the job's deterministic outputs. The record includes:
///
///  - a schema version (bump to invalidate every entry after a format or
///    solver-semantics change),
///  - the job kind and its kind-specific knobs (bench case + sizing,
///    chaos seed + rank count),
///  - the full canonicalized case dictionary (solver, scheme, EOS, IC,
///    boundary and time-marching parameters — sorted key=value lines, so
///    the hash is independent of insertion order and platform),
///  - the golden file's content hash when the job compares against one
///    (a regenerated golden must invalidate cached pass/fail verdicts).
///
/// Execution choices that provably cannot change a result stay out of the
/// key: the SIMD width, the ISA level, and the worker-thread count (every
/// one is bitwise-neutral; the state pins and the width/thread parity
/// suites enforce it). A campaign therefore hits its cache on any host.
///
/// The key is deterministic across platforms, runs, and PRs; known values
/// are pinned in test_ensemble.cpp.
[[nodiscard]] std::uint64_t job_key(const JobSpec& spec);

/// On-disk result cache: one small YAML file per key under `dir`, holding
/// the deterministic slice of a JobResult (passed, state hash, detail,
/// and the UQ sample payload bit-exactly as hex-encoded IEEE-754 words).
/// Unreadable, mismatched, or truncated entries are treated as misses —
/// the cache can always be deleted or partially corrupted without
/// changing campaign results, only their cost. Thread-safe.
class ResultCache {
public:
    /// `dir` is created on first store; "" disables the cache entirely.
    explicit ResultCache(std::string dir);

    [[nodiscard]] bool enabled() const { return !dir_.empty(); }

    /// Look up `key`; a hit returns a JobResult with from_cache = true
    /// and the identity fields (index, id, kind) taken from `spec`.
    [[nodiscard]] std::optional<JobResult> lookup(const JobSpec& spec,
                                                  std::uint64_t key);

    /// Store a completed job's deterministic outputs under `key`.
    /// Uncacheable jobs (bench) and failed stores are ignored.
    void store(const JobSpec& spec, const JobResult& result,
               std::uint64_t key);

    [[nodiscard]] long long hits() const;
    [[nodiscard]] long long misses() const;
    [[nodiscard]] long long stores() const;

private:
    [[nodiscard]] std::string path_for(std::uint64_t key) const;

    std::string dir_;
    mutable std::mutex m_;
    long long hits_ = 0;
    long long misses_ = 0;
    long long stores_ = 0;
};

/// Lowercase "x"-prefixed 16-hex-digit rendering of a 64-bit hash (cache
/// file names, state-hash fields in reports). The prefix keeps the text
/// from ever re-parsing as a YAML number.
[[nodiscard]] std::string hex64(std::uint64_t v);
/// Inverse of hex64; throws mfc::Error on malformed input.
[[nodiscard]] std::uint64_t parse_hex64(const std::string& s);

} // namespace mfc::ensemble
