#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/error.hpp"
#include "telemetry/report.hpp"

namespace mfc::telemetry {
namespace {

/// Spin until the monotonic clock has advanced by `ns`, so zone times are
/// nonzero and ordered without depending on sleep granularity.
void spin_for(std::int64_t ns) {
    const std::int64_t start = clock_ns();
    while (clock_ns() - start < ns) {
    }
}

/// A numeric field ("ts", "dur") of the first trace event named `name`,
/// or -1 when the event or the field is missing.
double trace_field(const std::string& json, const std::string& name,
                   const std::string& field) {
    const std::size_t at = json.find("\"name\":\"" + name + "\"");
    if (at == std::string::npos) return -1.0;
    const std::string event = json.substr(at, json.find('}', at) - at);
    const std::size_t key = event.find("\"" + field + "\":");
    if (key == std::string::npos) return -1.0;
    return std::stod(event.substr(key + field.size() + 3));
}

/// Fresh epoch with zones on; restores the disabled default on scope exit
/// so tests cannot leak state into each other.
struct ProfilerFixture {
    ProfilerFixture() {
        set_enabled(true);
        set_tracing(false);
        reset();
    }
    ~ProfilerFixture() {
        set_enabled(false);
        set_tracing(false);
        reset();
    }
};

TEST(Prof, NestedZonesBuildPathsAndDepths) {
    ProfilerFixture fixture;
    {
        PROF_ZONE("outer");
        spin_for(50'000);
        {
            PROF_ZONE("inner");
            spin_for(50'000);
        }
        {
            PROF_ZONE("inner");
            spin_for(50'000);
        }
    }
    const Report r = thread_zone_report();
    ASSERT_EQ(r.zones.size(), 2u);

    const ZoneStats* outer = r.find("outer");
    const ZoneStats* inner = r.find("outer/inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->depth, 0);
    EXPECT_EQ(inner->depth, 1);
    EXPECT_EQ(outer->calls, 1);
    EXPECT_EQ(inner->calls, 2); // same name, same parent: one aggregated node
    EXPECT_EQ(inner->name, std::string("inner"));
    EXPECT_GE(inner->inclusive_ns, 100'000.0);
    EXPECT_GE(outer->inclusive_ns, inner->inclusive_ns);
    EXPECT_DOUBLE_EQ(r.total_ns, outer->inclusive_ns);
}

TEST(Prof, ExclusiveTimesSumToTotal) {
    ProfilerFixture fixture;
    {
        PROF_ZONE("root");
        spin_for(100'000);
        {
            PROF_ZONE("child_a");
            spin_for(200'000);
        }
        {
            PROF_ZONE("child_b");
            spin_for(300'000);
        }
    }
    const Report r = thread_zone_report();
    const ZoneStats* root = r.find("root");
    ASSERT_NE(root, nullptr);
    // exclusive = inclusive - sum(child inclusive): no double counting.
    EXPECT_NEAR(root->exclusive_ns,
                root->inclusive_ns - r.find("root/child_a")->inclusive_ns -
                    r.find("root/child_b")->inclusive_ns,
                1.0);
    double exclusive_sum = 0.0;
    for (const ZoneStats& z : r.zones) exclusive_sum += z.exclusive_ns;
    EXPECT_NEAR(exclusive_sum, r.total_ns, 1.0);
}

TEST(Prof, DisabledZonesRecordNothing) {
    ProfilerFixture fixture;
    set_enabled(false);
    reset();
    {
        PROF_ZONE("invisible");
        spin_for(10'000);
    }
    EXPECT_TRUE(thread_zone_report().zones.empty());
    add_child_ns("also_invisible", 1'000);
    EXPECT_TRUE(thread_zone_report().zones.empty());
}

TEST(Prof, ResetStartsANewEpoch) {
    ProfilerFixture fixture;
    {
        PROF_ZONE("before_reset");
        spin_for(10'000);
    }
    reset();
    {
        PROF_ZONE("after_reset");
        spin_for(10'000);
    }
    const Report r = thread_zone_report();
    EXPECT_EQ(r.find("before_reset"), nullptr);
    ASSERT_NE(r.find("after_reset"), nullptr);
}

TEST(Prof, BulkChildCreditFeedsTheTree) {
    ProfilerFixture fixture;
    {
        PROF_ZONE("sweep");
        spin_for(50'000);
        add_child_ns("rows", 30'000, 64);
        add_child_ns("rows", 10'000, 16);
    }
    const Report r = thread_zone_report();
    const ZoneStats* sweep = r.find("sweep");
    const ZoneStats* rows = r.find("sweep/rows");
    ASSERT_NE(sweep, nullptr);
    ASSERT_NE(rows, nullptr);
    EXPECT_EQ(rows->calls, 80);
    EXPECT_DOUBLE_EQ(rows->inclusive_ns, 40'000.0);
    // The credited time is subtracted from the parent's exclusive share.
    EXPECT_NEAR(sweep->exclusive_ns, sweep->inclusive_ns - 40'000.0, 1.0);
}

TEST(Prof, ZoneBytesAccumulate) {
    ProfilerFixture fixture;
    {
        Zone zone("payload");
        zone.add_bytes(1024);
        zone.add_bytes(512);
    }
    const Report r = thread_zone_report();
    ASSERT_NE(r.find("payload"), nullptr);
    EXPECT_EQ(r.find("payload")->bytes, 1536);
}

TEST(Prof, DeltaKeepsOnlyTheWindow) {
    ProfilerFixture fixture;
    {
        PROF_ZONE("outer");
        { PROF_ZONE("before_only"); }
        add_child_ns("rows", 5'000, 4);
    }
    const Report before = thread_zone_report();
    {
        PROF_ZONE("outer");
        spin_for(20'000);
        add_child_ns("rows", 7'000, 3);
    }
    const Report d = delta(before, thread_zone_report());
    // Paths without a call in the window drop out; re-entered paths
    // report only the window's share.
    EXPECT_EQ(d.find("outer/before_only"), nullptr);
    ASSERT_NE(d.find("outer"), nullptr);
    ASSERT_NE(d.find("outer/rows"), nullptr);
    EXPECT_EQ(d.find("outer")->calls, 1);
    EXPECT_EQ(d.find("outer/rows")->calls, 3);
    EXPECT_DOUBLE_EQ(d.find("outer/rows")->inclusive_ns, 7'000.0);
    EXPECT_DOUBLE_EQ(d.total_ns, d.find("outer")->inclusive_ns);
    EXPECT_NEAR(d.find("outer")->exclusive_ns,
                d.find("outer")->inclusive_ns - 7'000.0, 1.0);
}

TEST(Prof, RanksProfileConcurrentlyAndReduce) {
    ProfilerFixture fixture;
    constexpr int kRanks = 4;
    // Each rank thread fills its own slot; the reduction runs after the
    // join, so no profiler traffic crosses the communicator.
    std::vector<Report> windows(kRanks);
    comm::World world(kRanks);
    world.run([&](comm::Communicator& comm) {
        {
            PROF_ZONE("work");
            spin_for(50'000 * (comm.rank() + 1)); // deliberate imbalance
            if (comm.rank() == 0) {
                PROF_ZONE("rank0_only");
                spin_for(20'000);
            }
        }
        windows[static_cast<std::size_t>(comm.rank())] = thread_zone_report();
    });
    const Report reduced = reduce_ranks(windows);

    const ZoneStats* work = reduced.find("work");
    const ZoneStats* rank0_only = reduced.find("work/rank0_only");
    ASSERT_NE(work, nullptr);
    ASSERT_NE(rank0_only, nullptr);
    EXPECT_EQ(work->calls, kRanks); // one call per rank, summed
    EXPECT_GT(work->min_exclusive_ns, 0.0);
    EXPECT_LE(work->min_exclusive_ns, work->exclusive_ns); // mean
    EXPECT_LE(work->exclusive_ns, work->max_exclusive_ns);
    // A zone three ranks never entered contributes zero to the min.
    EXPECT_EQ(rank0_only->calls, 1);
    EXPECT_DOUBLE_EQ(rank0_only->min_exclusive_ns, 0.0);
    EXPECT_GT(rank0_only->max_exclusive_ns, 0.0);
    // Rank means of exclusive times partition the rank-mean total.
    double sum = 0.0;
    for (const ZoneStats& z : reduced.zones) sum += z.exclusive_ns;
    EXPECT_DOUBLE_EQ(sum, reduced.total_ns);

    EXPECT_FALSE(rank_spread_table(reduced).str().empty());
}

TEST(Prof, ChromeTraceJsonIsWellFormed) {
    ProfilerFixture fixture;
    set_tracing(true);
    reset();
    {
        PROF_ZONE("traced_outer");
        spin_for(20'000);
        {
            PROF_ZONE("traced_inner");
            spin_for(20'000);
        }
    }
    const std::string json = chrome_trace_json();
    // Sorted by start time: the outer zone began first but ended last.
    const std::size_t outer = json.find("\"name\":\"traced_outer\"");
    const std::size_t inner = json.find("\"name\":\"traced_inner\"");
    ASSERT_NE(outer, std::string::npos);
    ASSERT_NE(inner, std::string::npos);
    EXPECT_LT(outer, inner);
    const double outer_ts = trace_field(json, "traced_outer", "ts");
    const double inner_ts = trace_field(json, "traced_inner", "ts");
    const double outer_dur = trace_field(json, "traced_outer", "dur");
    const double inner_dur = trace_field(json, "traced_inner", "dur");
    EXPECT_GE(outer_ts, 0.0);
    EXPECT_GE(inner_ts, outer_ts);
    EXPECT_GE(inner_dur, 20.0); // the inner zone spun 20 us
    EXPECT_GE(outer_dur, inner_dur);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json[json.size() - 2], ']');
    std::size_t braces = 0;
    for (const char c : json) {
        if (c == '{') ++braces;
    }
    EXPECT_EQ(braces, 2u);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"tid\":"), std::string::npos);
}

TEST(Prof, TracingOffRecordsNoEvents) {
    ProfilerFixture fixture;
    {
        PROF_ZONE("untraced");
    }
    EXPECT_EQ(chrome_trace_json().find('{'), std::string::npos);
    ASSERT_FALSE(thread_zone_report().zones.empty()); // accumulators still fed
}

TEST(ProfReport, GrindDecompositionSumsToTotal) {
    ProfilerFixture fixture;
    {
        PROF_ZONE("step");
        spin_for(50'000);
        {
            PROF_ZONE("rhs");
            spin_for(150'000);
        }
    }
    const Report r = thread_zone_report();
    constexpr std::int64_t kPoints = 1000;
    constexpr std::int64_t kEqns = 5;
    constexpr std::int64_t kEvals = 3;
    const GrindDecomposition d =
        grind_decomposition(r, kPoints, kEqns, kEvals);
    ASSERT_EQ(d.phases.size(), 2u);

    const double work = static_cast<double>(kPoints * kEqns * kEvals);
    double grind_sum = 0.0;
    double percent_sum = 0.0;
    for (const PhaseGrind& p : d.phases) {
        EXPECT_NEAR(p.grind_ns, p.exclusive_ns / work, 1e-9);
        grind_sum += p.grind_ns;
        percent_sum += p.percent;
    }
    EXPECT_NEAR(grind_sum, d.total_grind_ns, 1e-9);
    EXPECT_NEAR(d.total_grind_ns, d.total_ns / work, 1e-9);
    EXPECT_NEAR(percent_sum, 100.0, 1e-6);

    const TextTable table = decomposition_table(d);
    EXPECT_NE(table.str().find("step"), std::string::npos);
    EXPECT_NE(table.str().find("total"), std::string::npos);

    const Yaml yaml = phases_yaml(d);
    ASSERT_TRUE(yaml.contains("step/rhs"));
    EXPECT_EQ(yaml.at("step/rhs").at("calls").value().as_int(), 1);
    EXPECT_GT(yaml.at("step/rhs").at("grind_ns").value().as_double(), 0.0);
}

TEST(ProfReport, InvalidWorkFactorsThrow) {
    EXPECT_THROW((void)grind_decomposition({}, 0, 1, 1), Error);
    EXPECT_THROW((void)grind_decomposition({}, 1, 1, -1), Error);
}

} // namespace
} // namespace mfc::telemetry
