// Unit tests for the telemetry registry and flight recorder: ordered
// merge determinism across thread and rank configurations, histogram
// bucket edges, ring-buffer wraparound, crash postmortems that are
// bitwise-stable across reruns, the epoch and thread ids the trace
// shares with them, and the bench_diff tolerance-band gate.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/comm.hpp"
#include "core/yaml.hpp"
#include "exec/exec.hpp"
#include "resilience/fault.hpp"
#include "resilience/recovery.hpp"
#include "solver/case_config.hpp"
#include "solver/simulation.hpp"
#include "telemetry/telemetry.hpp"
#include "toolchain/bench_suite.hpp"

namespace {

using namespace mfc;
using namespace std::chrono_literals;

// Test-owned metrics; the "tt." prefix keeps metrics_yaml dumps free of
// whatever the instrumented subsystems under test happen to bump.
telemetry::Counter tt_items("tt.items");
telemetry::Histogram tt_sizes("tt.sizes");
telemetry::Gauge tt_high("tt.high_water");

/// RAII arm/restore so a failing assertion cannot leak an armed registry
/// into later tests.
class Armed {
public:
    Armed() : was_(telemetry::armed()) { telemetry::set_armed(true); }
    ~Armed() { telemetry::set_armed(was_); }

private:
    bool was_;
};

std::string det_dump(const telemetry::Snapshot& d) {
    Yaml root;
    telemetry::metrics_yaml(root, d, /*include_timing=*/false, "tt.");
    return root.dump();
}

// --- histogram bucket edges ----------------------------------------------

TEST(TelemetryHistogram, BucketEdges) {
    // Bucket 0 absorbs non-positive values; bucket b in [1, 31] counts
    // [2^(b-1), 2^b); the last bucket absorbs the tail.
    EXPECT_EQ(telemetry::Histogram::bucket_of(-17), 0);
    EXPECT_EQ(telemetry::Histogram::bucket_of(0), 0);
    EXPECT_EQ(telemetry::Histogram::bucket_of(1), 1);
    EXPECT_EQ(telemetry::Histogram::bucket_of(2), 2);
    EXPECT_EQ(telemetry::Histogram::bucket_of(3), 2);
    EXPECT_EQ(telemetry::Histogram::bucket_of(4), 3);
    EXPECT_EQ(telemetry::Histogram::bucket_of(7), 3);
    EXPECT_EQ(telemetry::Histogram::bucket_of(8), 4);
    EXPECT_EQ(telemetry::Histogram::bucket_of(1023), 10);
    EXPECT_EQ(telemetry::Histogram::bucket_of(1024), 11);
    EXPECT_EQ(telemetry::Histogram::bucket_of(std::int64_t{1} << 30), 31);
    EXPECT_EQ(telemetry::Histogram::bucket_of(
                  std::numeric_limits<std::int64_t>::max()),
              31);
}

// --- ordered merge determinism -------------------------------------------

/// Fixed workload: every item i in [0, n) bumps the counter, records its
/// (deterministic) size, and pushes the gauge. Totals depend only on n,
/// never on which thread or rank processed which item.
void bump_items(long long lo, long long hi) {
    for (long long i = lo; i < hi; ++i) {
        tt_items.add(1);
        tt_sizes.record((i % 11) * 64);
        tt_high.max(i);
    }
}

TEST(TelemetryMerge, DeterministicAcrossThreadCounts) {
    constexpr long long kItems = 1920;
    const Armed armed;
    const int prev_threads = exec::num_threads();
    std::vector<std::string> dumps;
    for (const int threads : {1, 4}) {
        exec::set_num_threads(threads);
        const telemetry::Snapshot before = telemetry::snapshot();
        exec::parallel_for("tt_bump", 0, kItems, bump_items);
        const telemetry::Snapshot d =
            telemetry::delta(before, telemetry::snapshot());
        EXPECT_EQ(d.value("tt.items"), kItems);
        dumps.push_back(det_dump(d));
    }
    exec::set_num_threads(prev_threads);
    // Byte-identical deterministic sections: same counters, same
    // histogram bucket strings, same name-sorted emission order.
    ASSERT_EQ(dumps.size(), 2u);
    EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(TelemetryMerge, DeterministicAcrossRankCounts) {
    constexpr long long kItems = 1920;
    const Armed armed;
    std::vector<std::string> dumps;
    for (const int ranks : {1, 2, 4}) {
        const telemetry::Snapshot before = telemetry::snapshot();
        comm::World world(ranks);
        world.run([&](comm::Communicator& c) {
            // Static block partition of the same global item range.
            const long long lo = kItems * c.rank() / c.size();
            const long long hi = kItems * (c.rank() + 1) / c.size();
            bump_items(lo, hi);
        });
        const telemetry::Snapshot d =
            telemetry::delta(before, telemetry::snapshot());
        EXPECT_EQ(d.value("tt.items"), kItems);
        dumps.push_back(det_dump(d));
    }
    ASSERT_EQ(dumps.size(), 3u);
    EXPECT_EQ(dumps[0], dumps[1]);
    EXPECT_EQ(dumps[0], dumps[2]);
}

TEST(TelemetryMerge, GaugeMergesMaxAndDeltaKeepsAfterValue) {
    const Armed armed;
    telemetry::reset();
    tt_high.max(100);
    const telemetry::Snapshot before = telemetry::snapshot();
    EXPECT_EQ(before.value("tt.high_water"), 100);
    std::thread t([] { tt_high.max(700); });
    t.join();
    tt_high.max(300);
    const telemetry::Snapshot after = telemetry::snapshot();
    // Max across thread shards, not sum.
    EXPECT_EQ(after.value("tt.high_water"), 700);
    // Gauges are level metrics: a window delta reports the level at the
    // end of the window, not a difference.
    const telemetry::Snapshot d = telemetry::delta(before, after);
    EXPECT_EQ(d.value("tt.high_water"), 700);
}

TEST(TelemetryMerge, DisarmedUpdatesAreDropped) {
    const bool was = telemetry::armed();
    telemetry::set_armed(false);
    const telemetry::Snapshot before = telemetry::snapshot();
    tt_items.add(42);
    const telemetry::Snapshot d =
        telemetry::delta(before, telemetry::snapshot());
    EXPECT_EQ(d.value("tt.items"), 0);
    telemetry::set_armed(was);
}

// --- flight recorder ------------------------------------------------------

TEST(FlightRecorder, RingKeepsMostRecent256Events) {
    telemetry::reset();
    const Armed armed;
    telemetry::set_thread_label("ringtest");
    constexpr int kTotal = 300; // > ring depth of 256
    for (int i = 0; i < kTotal; ++i) {
        telemetry::record_event("ev", i, 2 * i);
    }
    const std::string dump = telemetry::postmortem_yaml("unit-test");
    EXPECT_NE(dump.find("schema: mfc-postmortem-v1"), std::string::npos);
    EXPECT_NE(dump.find("reason: unit-test"), std::string::npos);
    EXPECT_NE(dump.find("events_recorded: 300"), std::string::npos);
    // Oldest surviving event is #44 (300 - 256); #43 was overwritten.
    EXPECT_EQ(dump.find("ev 43 86"), std::string::npos);
    EXPECT_NE(dump.find("ev 44 88"), std::string::npos);
    EXPECT_NE(dump.find("ev 299 598"), std::string::npos);
    // Exactly 256 ring entries survive for this thread.
    std::size_t events = 0;
    for (std::size_t at = dump.find("- ev "); at != std::string::npos;
         at = dump.find("- ev ", at + 1)) {
        ++events;
    }
    EXPECT_EQ(events, 256u);
}

TEST(FlightRecorder, CrashPostmortemBitwiseAcrossReruns) {
    // A chaos-style injected crash dumps a postmortem at the RankFailure
    // catch. Events carry no wall timestamps and every counter in the
    // deterministic section is workload-driven, so two runs of the same
    // fault plan must produce byte-identical dumps.
    const CaseConfig c = standardized_benchmark_case(8, 6);
    std::vector<std::string> dumps;
    for (const std::string tag : {"pm_a", "pm_b"}) {
        const std::string path =
            ::testing::TempDir() + "/" + tag + ".postmortem.yml";
        telemetry::set_postmortem_path(path);
        telemetry::reset(); // fresh epoch: prior runs' rings drop out
        resilience::FaultPlan plan;
        plan.seed = 42;
        plan.faults.push_back(
            resilience::FaultSpec{resilience::FaultKind::Crash, 1, 3, 1.0, 0});
        resilience::FaultInjector inj(plan, 2);
        resilience::RecoveryOptions ro;
        ro.ranks = 2;
        ro.checkpoint_interval = 2;
        ro.checkpoint_dir = ::testing::TempDir();
        ro.tag = tag;
        ro.comm.armed = true;
        ro.comm.op_timeout = 2ms;
        ro.comm.max_retries = 3;
        resilience::ResilientRunner runner(c, ro);
        const resilience::RecoveryStats stats = runner.run(&inj);
        ASSERT_TRUE(stats.completed);
        EXPECT_EQ(stats.rollbacks, 1);
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << path;
        std::ostringstream body;
        body << in.rdbuf();
        dumps.push_back(body.str());
    }
    telemetry::set_postmortem_path("");
    ASSERT_EQ(dumps.size(), 2u);
    EXPECT_FALSE(dumps[0].empty());
    EXPECT_NE(dumps[0].find("rank_failure"), std::string::npos);
    EXPECT_NE(dumps[0].find("rollback"), std::string::npos);
    EXPECT_EQ(dumps[0], dumps[1]);
}

// --- one runtime: shared epoch, clock and thread ids ----------------------

/// Zones, tracing and metrics on together; all off again on scope exit.
class Traced {
public:
    Traced() {
        telemetry::set_enabled(true);
        telemetry::set_tracing(true);
        telemetry::reset();
    }
    ~Traced() {
        telemetry::set_tracing(false);
        telemetry::set_enabled(false);
        telemetry::reset();
    }

private:
    Armed armed_;
};

std::size_t count_of(const std::string& text, const std::string& what) {
    std::size_t n = 0;
    for (std::size_t at = text.find(what); at != std::string::npos;
         at = text.find(what, at + 1)) {
        ++n;
    }
    return n;
}

TEST(TelemetryTrace, ResetDropsEarlierCounterSamples) {
    // Zones and counter samples share one epoch: a sample taken before
    // reset() never reaches the trace, and every exported event sits at
    // or after the epoch's origin.
    const Traced traced;
    Simulation sim(standardized_benchmark_case(8, 1));
    sim.initialize();
    tt_items.add(4242);
    telemetry::sample_counters();
    ASSERT_NE(telemetry::chrome_trace_json().find("\"value\":4242"),
              std::string::npos);
    telemetry::reset();
    sim.step(); // zones plus one counter sample
    const std::string json = telemetry::chrome_trace_json();
    EXPECT_EQ(json.find("\"value\":4242"), std::string::npos);
    EXPECT_EQ(count_of(json, "\"name\":\"tt.items\""), 1u);
    EXPECT_NE(json.find("\"name\":\"step\""), std::string::npos);
    ASSERT_GT(count_of(json, "\"ts\":"), 1u);
    for (std::size_t at = json.find("\"ts\":"); at != std::string::npos;
         at = json.find("\"ts\":", at + 1)) {
        EXPECT_GE(std::stod(json.substr(at + 5)), 0.0) << json.substr(at, 24);
    }
}

TEST(TelemetryTrace, TraceTidNamesThePostmortemThread) {
    // One thread-id space: the `tid` of a thread's zone events and the
    // `threadN` key of its postmortem ring are the same number.
    const Traced traced;
    std::thread t([] {
        telemetry::record_event("tid_probe", 1, 2);
        PROF_ZONE("tid_probe_zone");
    });
    t.join();
    const std::string json = telemetry::chrome_trace_json();
    const std::size_t zone = json.find("\"name\":\"tid_probe_zone\"");
    ASSERT_NE(zone, std::string::npos);
    const std::size_t tid = json.find("\"tid\":", zone);
    ASSERT_NE(tid, std::string::npos);
    const std::string key = "thread" + std::to_string(std::stoi(json.substr(tid + 6)));
    const std::string pm = telemetry::postmortem_yaml("tid-test");
    const std::size_t thread = pm.find(key + ":");
    ASSERT_NE(thread, std::string::npos) << pm;
    EXPECT_NE(pm.find("tid_probe 1 2", thread), std::string::npos);
}

// --- bench_diff tolerance bands ------------------------------------------

Yaml summary_with_metrics(std::int64_t det_bytes, std::int64_t sched_polls,
                          std::int64_t timing_ns,
                          const std::string& hist = "b7:12 b8:3") {
    Yaml root;
    Yaml& m = root["metrics"];
    m["deterministic"]["comm.bytes"].set(Value(det_bytes));
    m["deterministic"]["comm.msg_bytes"].set(Value(hist));
    m["scheduling"]["sched.polls"].set(Value(sched_polls));
    m["timing"]["comm.recv_wait_ns"].set(Value(timing_ns));
    return root;
}

TEST(BenchDiffMetrics, InBandRatiosPass) {
    const Yaml ref = summary_with_metrics(1000, 500, 90000);
    // +5% det drift, 1.6x sched drift, 10x timing drift: all inside (or
    // exempt from) their bands.
    const Yaml cand = summary_with_metrics(1050, 800, 900000);
    int failures = -1;
    const std::string report =
        toolchain::bench_diff_report(ref, cand, &failures);
    EXPECT_EQ(failures, 0);
    EXPECT_NE(report.find("comm.bytes"), std::string::npos);
    EXPECT_EQ(report.find("out of tolerance band"), std::string::npos);
}

TEST(BenchDiffMetrics, OutOfBandDeterministicRatioFails) {
    const Yaml ref = summary_with_metrics(1000, 500, 90000);
    const Yaml cand = summary_with_metrics(1200, 500, 90000); // +20% > 1.10
    int failures = 0;
    const std::string report =
        toolchain::bench_diff_report(ref, cand, &failures);
    EXPECT_EQ(failures, 1);
    EXPECT_NE(report.find("FAIL"), std::string::npos);
    EXPECT_NE(report.find("1 metric(s) out of tolerance band"),
              std::string::npos);
}

TEST(BenchDiffMetrics, HistogramMismatchAndZeroReferenceFail) {
    Yaml ref = summary_with_metrics(0, 500, 90000, "b7:12 b8:3");
    Yaml cand = summary_with_metrics(64, 500, 90000, "b7:12 b8:4");
    int failures = 0;
    const std::string report =
        toolchain::bench_diff_report(ref, cand, &failures);
    EXPECT_FALSE(report.empty());
    // Zero reference with a nonzero candidate is out of any ratio band,
    // and deterministic histograms must match bucket-for-bucket.
    EXPECT_EQ(failures, 2);
}

TEST(BenchDiffMetrics, SchedulingBandIsWiderThanDeterministic) {
    const Yaml ref = summary_with_metrics(1000, 500, 90000);
    // 1.25x is a FAIL for a det counter but fine for a sched counter.
    const Yaml cand = summary_with_metrics(1250, 625, 90000);
    int failures = 0;
    const std::string report =
        toolchain::bench_diff_report(ref, cand, &failures);
    EXPECT_EQ(failures, 1);
    EXPECT_NE(report.find("0.50..2.00"), std::string::npos);
}

} // namespace
