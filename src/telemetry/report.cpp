#include "telemetry/report.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "core/error.hpp"

namespace mfc::telemetry {

GrindDecomposition grind_decomposition(const Report& report,
                                       std::int64_t grid_points,
                                       std::int64_t equations,
                                       std::int64_t rhs_evals) {
    MFC_REQUIRE(grid_points > 0 && equations > 0 && rhs_evals > 0,
                "grind_decomposition: work factors must be positive");
    const double work = static_cast<double>(grid_points) *
                        static_cast<double>(equations) *
                        static_cast<double>(rhs_evals);
    GrindDecomposition d;
    d.total_ns = report.total_ns;
    for (const ZoneStats& z : report.zones) {
        PhaseGrind p;
        p.path = z.path;
        p.depth = z.depth;
        p.calls = z.calls;
        p.exclusive_ns = z.exclusive_ns;
        p.grind_ns = z.exclusive_ns / work;
        p.min_grind_ns = z.min_exclusive_ns / work;
        p.max_grind_ns = z.max_exclusive_ns / work;
        p.percent =
            report.total_ns > 0.0 ? 100.0 * z.exclusive_ns / report.total_ns : 0.0;
        p.bytes = z.bytes;
        d.total_grind_ns += p.grind_ns;
        d.phases.push_back(std::move(p));
    }
    return d;
}

TextTable decomposition_table(const GrindDecomposition& d, double min_percent) {
    TextTable t({"Phase", "Calls", "Excl [ms]", "Grind [ns]", "Share"});
    for (std::size_t col = 1; col < 5; ++col) {
        t.set_align(col, TextTable::Align::Right);
    }
    for (const PhaseGrind& p : d.phases) {
        if (p.percent < min_percent) continue;
        const std::string indent(static_cast<std::size_t>(2 * p.depth), ' ');
        const std::string leaf = p.path.substr(p.path.rfind('/') + 1);
        t.add_row({indent + leaf, std::to_string(p.calls),
                   format_fixed(p.exclusive_ns * 1.0e-6, 3),
                   format_fixed(p.grind_ns, 4),
                   format_fixed(p.percent, 1) + "%"});
    }
    t.add_row({"total", "", format_fixed(d.total_ns * 1.0e-6, 3),
               format_fixed(d.total_grind_ns, 4), "100.0%"});
    return t;
}

Yaml phases_yaml(const GrindDecomposition& d) {
    Yaml node;
    for (const PhaseGrind& p : d.phases) {
        Yaml& entry = node[p.path];
        entry["grind_ns"].set(Value(p.grind_ns));
        entry["pct"].set(Value(p.percent));
        entry["calls"].set(Value(p.calls));
    }
    return node;
}

Report reduce_ranks(const std::vector<Report>& ranks) {
    // Per path: the summed zone and the number of ranks that entered it.
    std::map<std::string, std::pair<ZoneStats, std::size_t>> merged;
    for (const Report& rank : ranks) {
        for (const ZoneStats& z : rank.zones) {
            auto [it, first] = merged.try_emplace(z.path, z, 0);
            ZoneStats& m = it->second.first;
            if (first) {
                m.min_exclusive_ns = m.max_exclusive_ns = z.exclusive_ns;
            } else {
                m.calls += z.calls;
                m.inclusive_ns += z.inclusive_ns;
                m.exclusive_ns += z.exclusive_ns;
                m.min_exclusive_ns = std::min(m.min_exclusive_ns, z.exclusive_ns);
                m.max_exclusive_ns = std::max(m.max_exclusive_ns, z.exclusive_ns);
                m.bytes += z.bytes;
            }
            it->second.second += 1;
        }
    }
    const double n = static_cast<double>(ranks.size());
    Report out;
    for (auto& [path, entry] : merged) {
        auto& [z, present] = entry;
        if (present < ranks.size()) z.min_exclusive_ns = 0.0;
        z.inclusive_ns /= n;
        z.exclusive_ns /= n;
        // Exclusive times partition each rank's total, so their rank
        // means sum to the rank-mean total.
        out.total_ns += z.exclusive_ns;
        out.zones.push_back(std::move(z));
    }
    return out;
}

TextTable rank_spread_table(const Report& reduced) {
    TextTable t({"Phase", "Calls", "Mean [ms]", "Min [ms]", "Max [ms]"});
    for (std::size_t col = 1; col < 5; ++col) {
        t.set_align(col, TextTable::Align::Right);
    }
    for (const ZoneStats& z : reduced.zones) {
        const std::string indent(static_cast<std::size_t>(2 * z.depth), ' ');
        t.add_row({indent + z.name, std::to_string(z.calls),
                   format_fixed(z.exclusive_ns * 1.0e-6, 3),
                   format_fixed(z.min_exclusive_ns * 1.0e-6, 3),
                   format_fixed(z.max_exclusive_ns * 1.0e-6, 3)});
    }
    return t;
}

} // namespace mfc::telemetry
