// src/ensemble — campaign engine (job cursor, reorder buffer, stop
// policy), result cache, streaming consumers, and the UQ sampling plan.

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/hash.hpp"
#include "core/rng.hpp"
#include "ensemble/cache.hpp"
#include "ensemble/engine.hpp"
#include "ensemble/stats.hpp"
#include "ensemble/uq.hpp"
#include "exec/exec.hpp"
#include "simd/simd.hpp"
#include "toolchain/bench_suite.hpp"
#include "toolchain/case_stack.hpp"

namespace fs = std::filesystem;
using namespace mfc;
using namespace mfc::ensemble;

namespace {

/// Scoped exec thread-count override restoring the previous value.
class ThreadGuard {
public:
    explicit ThreadGuard(int n) : prev_(exec::num_threads()) {
        exec::set_num_threads(n);
    }
    ~ThreadGuard() { exec::set_num_threads(prev_); }

private:
    int prev_;
};

std::string unique_dir(const std::string& stem) {
    const std::string d =
        (fs::temp_directory_path() / (stem + std::to_string(::getpid())))
            .string();
    fs::remove_all(d);
    return d;
}

/// A small valid simulation dictionary (tiny standardized case).
CaseDict tiny_case(int steps = 2) {
    return dict_from_config(
        standardized_benchmark_case(/*cells_per_dim=*/8, steps));
}

JobSpec tiny_job(JobKind kind, const std::string& id) {
    JobSpec spec;
    spec.kind = kind;
    spec.id = id;
    spec.params = tiny_case();
    return spec;
}

} // namespace

// ---------------------------------------------------------------- stats

TEST(EnsembleStats, WelfordMatchesTwoPassReference) {
    Rng rng(7);
    std::vector<double> xs(257);
    for (double& x : xs) x = rng.uniform(-3.0, 11.0);

    Welford w;
    for (const double x : xs) w.add(x);

    double mean = 0.0;
    for (const double x : xs) mean += x;
    mean /= static_cast<double>(xs.size());
    double m2 = 0.0;
    for (const double x : xs) m2 += (x - mean) * (x - mean);

    EXPECT_EQ(w.count(), static_cast<long long>(xs.size()));
    EXPECT_NEAR(w.mean(), mean, 1e-12);
    EXPECT_NEAR(w.variance(), m2 / static_cast<double>(xs.size()), 1e-12);
    EXPECT_NEAR(w.sample_variance(),
                m2 / static_cast<double>(xs.size() - 1), 1e-12);
}

TEST(EnsembleStats, WelfordFieldMatchesPerCellScalars) {
    Rng rng(13);
    const std::size_t cells = 33;
    std::vector<std::vector<double>> samples(12,
                                             std::vector<double>(cells, 0.0));
    for (auto& s : samples) {
        for (double& v : s) v = rng.uniform(0.0, 5.0);
    }

    WelfordField field;
    std::vector<Welford> per_cell(cells);
    for (const auto& s : samples) {
        field.add(s);
        for (std::size_t i = 0; i < cells; ++i) per_cell[i].add(s[i]);
    }

    ASSERT_EQ(field.size(), cells);
    for (std::size_t i = 0; i < cells; ++i) {
        // Same update order per cell => bitwise-equal moments.
        EXPECT_EQ(field.mean()[i], per_cell[i].mean());
        EXPECT_EQ(field.variance()[i], per_cell[i].variance());
    }
}

TEST(EnsembleStats, WelfordFieldRejectsLengthChange) {
    WelfordField field;
    field.add({1.0, 2.0});
    EXPECT_THROW(field.add({1.0, 2.0, 3.0}), Error);
}

// ------------------------------------------------------------- consumers

TEST(EnsembleConsumers, TallyCountsAreOrderIndependent) {
    std::vector<JobResult> results;
    for (int i = 0; i < 40; ++i) {
        JobResult r;
        r.index = i;
        r.id = "job-" + std::to_string(i);
        r.kind = i % 2 == 0 ? JobKind::Regression : JobKind::Uq;
        r.passed = i % 5 != 0;
        results.push_back(r);
    }

    PassFailTally in_order(false, -1);
    for (const JobResult& r : results) in_order.on_result(r);

    Rng rng(3);
    for (std::size_t i = results.size(); i > 1; --i) {
        std::swap(results[i - 1], results[rng.bounded(i)]);
    }
    PassFailTally shuffled(false, -1);
    for (const JobResult& r : results) shuffled.on_result(r);

    EXPECT_EQ(in_order.passed(), shuffled.passed());
    EXPECT_EQ(in_order.failed(), shuffled.failed());
    EXPECT_EQ(in_order.passed(), 32);
    EXPECT_EQ(in_order.failed(), 8);
}

TEST(EnsembleConsumers, TallyStopPolicies) {
    JobResult pass;
    pass.passed = true;
    JobResult fail;
    fail.passed = false;

    PassFailTally fail_fast(true, -1);
    fail_fast.on_result(pass);
    EXPECT_FALSE(fail_fast.should_stop());
    fail_fast.on_result(fail);
    EXPECT_TRUE(fail_fast.should_stop());

    PassFailTally budget(false, 2);
    budget.on_result(fail);
    budget.on_result(fail);
    EXPECT_FALSE(budget.should_stop()); // 2 failures allowed
    budget.on_result(fail);
    EXPECT_TRUE(budget.should_stop());
}

TEST(EnsembleConsumers, MomentAccumulatorIgnoresFailedAndForeignJobs) {
    MomentFieldAccumulator acc;
    JobResult uq;
    uq.kind = JobKind::Uq;
    uq.passed = true;
    uq.sample = {1.0, 2.0};
    acc.on_result(uq);

    JobResult failed = uq;
    failed.passed = false;
    acc.on_result(failed);
    JobResult reg = uq;
    reg.kind = JobKind::Regression;
    acc.on_result(reg);

    EXPECT_EQ(acc.moments().count(), 1);
}

// --------------------------------------------------------------- hashing

TEST(EnsembleCache, Hex64RoundTripsAwkwardPatterns) {
    // Digit-only and exponent-looking hex strings must survive a YAML
    // round trip — that is what the 'x' prefix is for.
    for (const std::uint64_t v :
         {0ull, 0x1234567890123456ull, 0x12e4567890123456ull,
          0xffffffffffffffffull}) {
        const std::string s = hex64(v);
        EXPECT_EQ(s.size(), 17u);
        EXPECT_EQ(s[0], 'x');
        EXPECT_EQ(parse_hex64(s), v);
    }
    EXPECT_THROW((void)parse_hex64("1234"), Error);
    EXPECT_THROW((void)parse_hex64("xg234567890123456"), Error);
}

TEST(EnsembleCache, JobKeyPinsRecordFormat) {
    // The key IS fnv1a64 of a documented record; this pins the on-disk
    // format so accidental changes invalidate loudly, not silently.
    JobSpec spec;
    spec.kind = JobKind::Uq;
    spec.params = {{"a", 1}, {"b", 2.5}};
    const std::string record = std::string("mfc-ensemble-cache-v2\n") +
                               "kind=uq\n" +
                               toolchain::canonical_dict(spec.params);
    EXPECT_EQ(job_key(spec), fnv1a64(record));
}

TEST(EnsembleCache, JobKeyCoversHardenedFields) {
    JobSpec spec = tiny_job(JobKind::Uq, "uq-0000");
    const std::uint64_t base = job_key(spec);

    // Identity: the id is scheduling metadata, not physics.
    JobSpec renamed = spec;
    renamed.id = "uq-9999";
    EXPECT_EQ(job_key(renamed), base);

    // SIMD width and thread count cannot change a result, so they do not
    // change the key either: a campaign hits its cache on any host.
    const int prev_width = simd::width();
    for (const int w : {1, 2, 4, 8}) {
        simd::set_width(w);
        EXPECT_EQ(job_key(spec), base) << "width " << w;
    }
    simd::set_width(prev_width);
    {
        const ThreadGuard threads(2);
        EXPECT_EQ(job_key(spec), base);
    }

    // Any case-dict change re-keys (solver/scheme/EOS/IC fields alike).
    JobSpec tweaked = spec;
    tweaked.params["weno_order"] = 3;
    EXPECT_NE(job_key(tweaked), base);

    // Kind discriminates even for identical dictionaries.
    JobSpec chaos = spec;
    chaos.kind = JobKind::Chaos;
    EXPECT_NE(job_key(chaos), base);

    // Chaos knobs are part of the chaos key.
    JobSpec chaos2 = chaos;
    chaos2.chaos_seed = 99;
    EXPECT_NE(job_key(chaos2), job_key(chaos));

    // Golden content re-keys a regression job when it changes.
    const std::string dir = unique_dir("mfc_ens_golden");
    fs::create_directories(dir);
    const std::string golden = dir + "/golden.txt";
    std::ofstream(golden) << "content-1\n";
    JobSpec reg = spec;
    reg.kind = JobKind::Regression;
    reg.golden_path = golden;
    const std::uint64_t key1 = job_key(reg);
    std::ofstream(golden) << "content-2\n";
    EXPECT_NE(job_key(reg), key1);
    fs::remove_all(dir);
}

// ----------------------------------------------------------------- cache

TEST(EnsembleCache, StoreAndLookupRoundTripsBitExactly) {
    const std::string dir = unique_dir("mfc_ens_cache");
    ResultCache cache(dir);
    JobSpec spec = tiny_job(JobKind::Uq, "uq-0001");

    JobResult r;
    r.id = spec.id;
    r.kind = JobKind::Uq;
    r.passed = true;
    r.state_hash = 0x123456789abcdef0ull;
    r.detail = "two\nlines";
    r.sample = {1.0 / 3.0, -0.0, 6000.000000000001};

    const std::uint64_t key = job_key(spec);
    cache.store(spec, r, key);
    EXPECT_EQ(cache.stores(), 1);

    const auto hit = cache.lookup(spec, key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->from_cache);
    EXPECT_TRUE(hit->passed);
    EXPECT_EQ(hit->state_hash, r.state_hash);
    ASSERT_EQ(hit->sample.size(), r.sample.size());
    for (std::size_t i = 0; i < r.sample.size(); ++i) {
        // Bitwise: hex-bit-pattern encoding, not decimal round-trip.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(hit->sample[i]),
                  std::bit_cast<std::uint64_t>(r.sample[i]));
    }
    fs::remove_all(dir);
}

TEST(EnsembleCache, CorruptedOrMismatchedEntriesAreMisses) {
    const std::string dir = unique_dir("mfc_ens_corrupt");
    ResultCache cache(dir);
    JobSpec spec = tiny_job(JobKind::Uq, "uq-0002");
    JobResult r;
    r.passed = true;
    r.kind = JobKind::Uq;
    const std::uint64_t key = job_key(spec);
    cache.store(spec, r, key);

    // Truncate the entry: lookup must degrade to a miss, not throw.
    {
        std::ofstream out(dir + "/" + hex64(key) + ".yml");
        out << "key: garbage\n";
    }
    EXPECT_FALSE(cache.lookup(spec, key).has_value());

    // A different kind under the same key is a miss, not a wrong hit.
    cache.store(spec, r, key);
    JobSpec other = spec;
    other.kind = JobKind::Chaos;
    EXPECT_FALSE(cache.lookup(other, key).has_value());

    // Bench jobs never cache.
    JobSpec bench;
    bench.kind = JobKind::Bench;
    bench.bench_case = "igr_jacobi";
    JobResult br;
    br.kind = JobKind::Bench;
    cache.store(bench, br, 7);
    EXPECT_FALSE(cache.lookup(bench, 7).has_value());
    fs::remove_all(dir);
}

// An entry is written under a temporary name and renamed into place only
// after a checked write, so a store that cannot write publishes nothing
// (a symlink to /dev/full takes the open and refuses the bytes).
TEST(EnsembleCache, AFailedStorePublishesNothing) {
    if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    const std::string dir = unique_dir("mfc_ens_full");
    fs::create_directories(dir);
    ResultCache cache(dir);
    const JobSpec spec = tiny_job(JobKind::Uq, "uq-0003");
    JobResult r;
    r.passed = true;
    r.kind = JobKind::Uq;
    const std::uint64_t key = job_key(spec);
    const std::string entry = dir + "/" + hex64(key) + ".yml";
    fs::create_symlink("/dev/full", entry + ".tmp");
    cache.store(spec, r, key);
    EXPECT_EQ(cache.stores(), 0);
    ASSERT_FALSE(fs::exists(fs::symlink_status(entry))) << "published " << entry;
    EXPECT_FALSE(cache.lookup(spec, key).has_value());
    fs::remove_all(dir);
}

// A regression job that writes its golden must run to write it, so a
// warm cache never serves it; its mode and trace stay out of the key.
TEST(EnsembleCache, GoldenWritingJobsAlwaysRun) {
    const std::string dir = unique_dir("mfc_ens_generate");
    JobSpec spec = tiny_job(JobKind::Regression, "reg-0000ABCD");
    const std::uint64_t key = job_key(spec);
    spec.golden_path = dir + "/goldens/0000ABCD/golden.txt";
    spec.trace = "tiny";
    spec.mode = toolchain::TestMode::Generate;
    EXPECT_FALSE(spec.cacheable());
    JobSpec keyed = spec;
    keyed.golden_path.clear();
    EXPECT_EQ(job_key(keyed), key);

    EngineOptions opts;
    opts.cache_dir = dir + "/cache";
    for (int run = 0; run < 2; ++run) {
        fs::remove_all(dir + "/goldens");
        Engine engine(opts);
        Yaml report;
        const CampaignSummary s = engine.run({spec}, report);
        EXPECT_TRUE(s.ok()) << "run " << run;
        EXPECT_EQ(s.cached, 0) << "run " << run;
        EXPECT_TRUE(fs::exists(spec.golden_path)) << "run " << run;
        EXPECT_TRUE(fs::exists(dir + "/goldens/0000ABCD/golden-metadata.txt"));
    }
    fs::remove_all(dir);
}

// ------------------------------------------------------------------- uq

TEST(EnsembleUq, LatinHypercubeStratifiesEveryDimension) {
    const int n = 16;
    const auto pts = sample_unit_hypercube(n, 3, 11, true);
    ASSERT_EQ(pts.size(), static_cast<std::size_t>(n));
    for (int d = 0; d < 3; ++d) {
        std::vector<int> strata(n, 0);
        for (const auto& p : pts) {
            ASSERT_GE(p[static_cast<std::size_t>(d)], 0.0);
            ASSERT_LT(p[static_cast<std::size_t>(d)], 1.0);
            ++strata[static_cast<std::size_t>(
                p[static_cast<std::size_t>(d)] * n)];
        }
        for (int s = 0; s < n; ++s) EXPECT_EQ(strata[static_cast<std::size_t>(s)], 1);
    }
    // Deterministic for a fixed seed, different for another.
    EXPECT_EQ(sample_unit_hypercube(n, 3, 11, true), pts);
    EXPECT_NE(sample_unit_hypercube(n, 3, 12, true), pts);
}

TEST(EnsembleUq, JobsPerturbTheRequestedParameters) {
    UqPlan plan;
    plan.samples = 4;
    plan.edge = 8;
    plan.steps = 2;
    const auto params = default_uq_parameters();
    const auto jobs = make_uq_jobs(plan, params);
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(jobs[0].id, "uq-0000");
    EXPECT_EQ(jobs[3].id, "uq-0003");
    for (const JobSpec& j : jobs) {
        EXPECT_EQ(j.kind, JobKind::Uq);
        for (const UqParameter& p : params) {
            const double v = j.params.at(p.key).as_double();
            EXPECT_GE(v, p.lo);
            EXPECT_LT(v, p.hi);
        }
    }
}

// ---------------------------------------------------------------- engine

namespace {

/// Consumer asserting strictly index-ordered delivery.
class OrderProbe : public Consumer {
public:
    void on_result(const JobResult& r) override {
        EXPECT_EQ(r.index, next_);
        ++next_;
    }
    [[nodiscard]] long long delivered() const { return next_; }

private:
    long long next_ = 0;
};

std::vector<JobSpec> mixed_campaign(int uq_samples) {
    UqPlan plan;
    plan.samples = uq_samples;
    plan.edge = 8;
    plan.steps = 2;
    std::vector<JobSpec> jobs =
        make_uq_jobs(plan, default_uq_parameters());
    JobSpec reg = tiny_job(JobKind::Regression, "reg-00000000");
    jobs.insert(jobs.begin(), std::move(reg));
    return jobs;
}

} // namespace

TEST(EnsembleEngine, ReportIsByteIdenticalAcrossWorkerCounts) {
    const std::vector<JobSpec> jobs = mixed_campaign(6);
    std::string dumps[2];
    const int counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        const ThreadGuard guard(counts[i]);
        Engine engine(EngineOptions{});
        OrderProbe probe;
        RunningStats stats;
        MomentFieldAccumulator moments;
        CampaignYamlWriter writer;
        engine.add_consumer(&probe);
        engine.add_consumer(&stats);
        engine.add_consumer(&moments);
        engine.add_consumer(&writer);
        Yaml report;
        const CampaignSummary s = engine.run(jobs, report);
        EXPECT_TRUE(s.ok());
        EXPECT_EQ(s.delivered, static_cast<long long>(jobs.size()));
        EXPECT_EQ(probe.delivered(), s.delivered);
        dumps[i] = report.dump();
    }
    EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(EnsembleEngine, MomentsMatchSerialReferenceBitwise) {
    const std::vector<JobSpec> jobs = mixed_campaign(5);

    // Serial reference: one job at a time, in index order, on one thread.
    WelfordField reference;
    {
        const ThreadGuard guard(1);
        for (const JobSpec& spec : jobs) {
            const JobResult r = execute_job(spec);
            ASSERT_TRUE(r.passed) << r.detail;
            if (r.kind == JobKind::Uq) reference.add(r.sample);
        }
    }

    const ThreadGuard guard(4);
    Engine engine(EngineOptions{});
    MomentFieldAccumulator moments;
    engine.add_consumer(&moments);
    Yaml report;
    const CampaignSummary s = engine.run(jobs, report);
    EXPECT_TRUE(s.ok());

    ASSERT_EQ(moments.moments().count(), reference.count());
    ASSERT_EQ(moments.moments().size(), reference.size());
    EXPECT_EQ(MomentFieldAccumulator::field_hash(moments.moments().mean()),
              MomentFieldAccumulator::field_hash(reference.mean()));
    EXPECT_EQ(MomentFieldAccumulator::field_hash(moments.moments().variance()),
              MomentFieldAccumulator::field_hash(reference.variance()));
}

TEST(EnsembleEngine, CacheServesSecondRun) {
    const std::string dir = unique_dir("mfc_ens_engine_cache");
    const std::vector<JobSpec> jobs = mixed_campaign(4);
    EngineOptions opts;
    opts.cache_dir = dir;

    std::string dumps[2];
    CampaignSummary runs[2];
    for (int i = 0; i < 2; ++i) {
        Engine engine(opts);
        Yaml report;
        runs[i] = engine.run(jobs, report);
        dumps[i] = report.dump();
        EXPECT_TRUE(runs[i].ok());
    }
    EXPECT_EQ(runs[0].cached, 0);
    EXPECT_EQ(runs[1].cached, static_cast<long long>(jobs.size()));
    EXPECT_EQ(runs[1].executed, 0);
    // The cache hit/miss split (summary cache_hits plus the two registry
    // counters in metrics:) is the only cache-state-dependent report
    // content; normalize the warm run's lines to the cold values and the
    // rest must be byte-identical.
    const std::string n = std::to_string(jobs.size());
    const std::vector<std::pair<std::string, std::string>> swaps = {
        {"cache_hits: " + n, "cache_hits: 0"},
        {"ensemble.cache_hits: " + n, "ensemble.cache_hits: 0"},
        {"ensemble.cache_misses: 0", "ensemble.cache_misses: " + n},
    };
    std::string normalized = dumps[1];
    for (const auto& [warm, cold] : swaps) {
        const std::size_t at = normalized.find(warm);
        ASSERT_NE(at, std::string::npos) << warm;
        normalized.replace(at, warm.size(), cold);
    }
    EXPECT_EQ(dumps[0], normalized);
    fs::remove_all(dir);
}

TEST(EnsembleEngine, FailFastCutoffIsDeterministic) {
    std::vector<JobSpec> jobs = mixed_campaign(8);
    // Poison job index 3 (an unknown parameter rejects in
    // config_from_dict; execute_job converts the throw into a failure).
    jobs[3].params["no_such_parameter"] = 1;

    std::string dumps[2];
    const int counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        const ThreadGuard guard(counts[i]);
        EngineOptions opts;
        opts.fail_fast = true;
        Engine engine(opts);
        Yaml report;
        const CampaignSummary s = engine.run(jobs, report);
        EXPECT_FALSE(s.ok());
        EXPECT_EQ(s.delivered, 4); // jobs 0..3, frozen at the failure
        EXPECT_EQ(s.failed, 1);
        EXPECT_EQ(s.cancelled, static_cast<long long>(jobs.size()) - 4);
        dumps[i] = report.dump();
    }
    EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(EnsembleEngine, MaxFailuresBudget) {
    std::vector<JobSpec> jobs = mixed_campaign(8);
    jobs[2].params["no_such_parameter"] = 1;
    jobs[4].params["no_such_parameter"] = 1;
    jobs[6].params["no_such_parameter"] = 1;

    EngineOptions opts;
    opts.max_failures = 2;
    Engine engine(opts);
    Yaml report;
    const CampaignSummary s = engine.run(jobs, report);
    EXPECT_EQ(s.failed, 3);    // third failure trips the budget
    EXPECT_EQ(s.delivered, 7); // frozen right after job 6
    EXPECT_EQ(s.cancelled, static_cast<long long>(jobs.size()) - 7);
}

// The engine's job cursor: every index is claimed once, so every job
// is delivered once and in index order at any thread count, and the
// stop flag freezes delivery right after a fail-fast failure. Jobs that
// fail at once (an unknown parameter rejects in config_from_dict) keep
// 256 of them cheap, so each slot claims many indices — the race the
// TSan leg runs this test for.
TEST(EnsembleEngine, EveryJobIsDeliveredOnceInIndexOrder) {
    JobSpec poisoned = tiny_job(JobKind::Regression, "");
    poisoned.params["no_such_parameter"] = 1;
    std::vector<JobSpec> failing(256, poisoned);
    std::vector<JobSpec> one_poisoned(256,
                                      tiny_job(JobKind::Regression, ""));
    one_poisoned[100] = poisoned;
    for (std::size_t i = 0; i < failing.size(); ++i) {
        failing[i].id = one_poisoned[i].id = "reg-" + std::to_string(i);
    }

    for (const int threads : {1, 2, 4}) {
        const ThreadGuard guard(threads);
        {
            Engine engine(EngineOptions{});
            OrderProbe probe;
            engine.add_consumer(&probe);
            Yaml report;
            const CampaignSummary s = engine.run(failing, report);
            EXPECT_EQ(probe.delivered(), 256) << "threads " << threads;
            EXPECT_EQ(s.delivered, 256) << "threads " << threads;
            EXPECT_EQ(s.failed, 256) << "threads " << threads;
        }
        EngineOptions opts;
        opts.fail_fast = true;
        Engine engine(opts);
        OrderProbe probe;
        engine.add_consumer(&probe);
        Yaml report;
        const CampaignSummary s = engine.run(one_poisoned, report);
        EXPECT_EQ(probe.delivered(), 101) << "threads " << threads;
        EXPECT_EQ(s.delivered, 101) << "threads " << threads;
        EXPECT_EQ(s.failed, 1) << "threads " << threads;
        EXPECT_EQ(s.cancelled, 155) << "threads " << threads;
    }
}

// Satellite: worker-pool reuse under nesting. Campaign workers dispatch
// from inside exec::parallel_for; the simulations' own parallel_for calls
// must degrade to inline-serial (never deadlock, never oversubscribe) and
// still produce thread-count-independent physics.
TEST(EnsembleEngine, NestedParallelForDegradesInline) {
    const std::vector<JobSpec> jobs = mixed_campaign(3);

    std::uint64_t hashes[2] = {0, 0};
    const int counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        const ThreadGuard guard(counts[i]);
        Engine engine(EngineOptions{});
        CampaignYamlWriter writer;
        engine.add_consumer(&writer);
        Yaml report;
        const CampaignSummary s = engine.run(jobs, report);
        EXPECT_TRUE(s.ok());
        EXPECT_FALSE(exec::in_parallel());
        hashes[i] = fnv1a64(report.dump());
    }
    // Same state hashes inside => the nested (inline) and outer-parallel
    // executions computed identical physics.
    EXPECT_EQ(hashes[0], hashes[1]);

    // And the pool still works normally afterwards.
    std::atomic<long long> sum{0};
    exec::parallel_for("post_campaign_check", 0, 100,
                       [&](long long lo, long long hi) {
                           long long local = 0;
                           for (long long r = lo; r < hi; ++r) local += r;
                           sum += local;
                       });
    EXPECT_EQ(sum.load(), 4950);
}

// A regression job whose golden is a zero-byte file or a directory must
// fail, naming the file, rather than compare nothing and pass.
TEST(EnsembleEngine, EmptyOrUnreadableGoldenFailsTheJob) {
    const std::string dir = unique_dir("mfcpp_ens_goldens_");
    fs::create_directories(dir + "/a_directory");
    std::ofstream(dir + "/zero_bytes").close();
    for (const char* name : {"a_directory", "zero_bytes"}) {
        JobSpec spec = tiny_job(JobKind::Regression, name);
        spec.golden_path = dir + "/" + name;
        const JobResult r = execute_job(spec);
        EXPECT_FALSE(r.passed) << name;
        EXPECT_NE(r.detail.find(spec.golden_path), std::string::npos) << r.detail;
    }
    fs::remove_all(dir);
}

// ------------------------------------------------------ bench_diff rider

TEST(EnsembleBenchDiff, OldBaselinesDegradeToNa) {
    Yaml candidate;
    candidate["cases"]["5eq_weno5_hllc"]["grindtime_ns"].set(Value(10.0));
    Yaml& e = candidate["ensemble"];
    e["jobs"].set(Value(4));
    e["passed"].set(Value(4));
    e["failed"].set(Value(0));
    e["cancelled"].set(Value(0));
    e["uq_samples"].set(Value(4));
    e["uq_mean"].set(Value(1.5));
    e["uq_variance"].set(Value(0.25));
    e["mean_field_hash"].set(Value(hex64(0x1234ull)));
    e["variance_field_hash"].set(Value(hex64(0x5678ull)));

    Yaml reference; // predates the ensemble section entirely
    reference["cases"]["5eq_weno5_hllc"]["grindtime_ns"].set(Value(12.0));

    const std::string report =
        toolchain::bench_diff_report(reference, candidate);
    EXPECT_NE(report.find("Ensemble metric"), std::string::npos);
    EXPECT_NE(report.find("n/a"), std::string::npos);
    EXPECT_NE(report.find("mean_field_hash"), std::string::npos);

    // Neither side carrying the section: no ensemble table, no throw.
    const std::string none =
        toolchain::bench_diff_report(reference, reference);
    EXPECT_EQ(none.find("Ensemble metric"), std::string::npos);
}
