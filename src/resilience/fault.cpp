#include "resilience/fault.hpp"

#include <chrono>
#include <thread>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace mfc::resilience {

std::string to_string(FaultKind k) {
    switch (k) {
    case FaultKind::Crash: return "crash";
    case FaultKind::Stall: return "stall";
    case FaultKind::Drop: return "drop";
    case FaultKind::DropOnce: return "drop-once";
    case FaultKind::Corrupt: return "corrupt";
    case FaultKind::Delay: return "delay";
    }
    return "?";
}

FaultKind fault_kind_from_string(const std::string& name) {
    if (name == "crash") return FaultKind::Crash;
    if (name == "stall") return FaultKind::Stall;
    if (name == "drop") return FaultKind::Drop;
    if (name == "drop-once" || name == "drop_once") return FaultKind::DropOnce;
    if (name == "corrupt") return FaultKind::Corrupt;
    if (name == "delay") return FaultKind::Delay;
    fail("unknown fault kind '" + name +
         "' (expected crash|stall|drop|drop-once|corrupt|delay)");
}

bool is_detectable(FaultKind k) {
    switch (k) {
    case FaultKind::Crash:
    case FaultKind::Stall:
    case FaultKind::Drop:
    case FaultKind::Corrupt:
        return true;
    case FaultKind::DropOnce:
    case FaultKind::Delay:
        return false;
    }
    return false;
}

std::string FaultSpec::describe() const {
    // Appended piece by piece: GCC 12 reports a false -Wrestrict inside
    // the inlined `"r" + std::to_string(rank)`.
    std::string out = to_string(kind) + "@";
    out += rank < 0 ? "r*" : "r";
    if (rank >= 0) out += std::to_string(rank);
    out += step < 0 ? "/s*" : "/s";
    if (step >= 0) out += std::to_string(step);
    if (probability < 1.0) {
        out += "/p";
        out += std::to_string(probability);
    }
    return out;
}

FaultInjector::FaultInjector(FaultPlan plan, int nranks)
    : plan_(std::move(plan)), nranks_(nranks) {
    MFC_REQUIRE(nranks_ > 0, "FaultInjector needs at least one rank");
    const auto nspecs = plan_.faults.size();
    fired_step_ = std::make_unique<std::atomic<int>[]>(nspecs ? nspecs : 1);
    for (std::size_t i = 0; i < nspecs; ++i)
        fired_step_[i].store(-1, std::memory_order_relaxed);
    const auto nr = static_cast<std::size_t>(nranks_);
    current_step_ = std::make_unique<std::atomic<int>[]>(nr);
    op_counter_ = std::make_unique<std::atomic<int>[]>(nr);
    dropping_ = std::make_unique<std::atomic<bool>[]>(nr);
    for (std::size_t r = 0; r < nr; ++r) {
        current_step_[r].store(0, std::memory_order_relaxed);
        op_counter_[r].store(0, std::memory_order_relaxed);
        dropping_[r].store(false, std::memory_order_relaxed);
    }
}

namespace {
/// Mix the decision coordinates into one 64-bit stream key. The large odd
/// primes decorrelate the dimensions; Rng (SplitMix64) then whitens.
std::uint64_t decision_key(std::uint64_t seed, std::size_t spec, int rank,
                           int step, int op) {
    std::uint64_t key = seed;
    key ^= (static_cast<std::uint64_t>(spec) + 1) * 0x9e3779b97f4a7c15ULL;
    key ^= (static_cast<std::uint64_t>(rank) + 1) * 0xbf58476d1ce4e5b9ULL;
    key ^= (static_cast<std::uint64_t>(step) + 1) * 0x94d049bb133111ebULL;
    key ^= (static_cast<std::uint64_t>(op) + 1) * 0xd6e8feb86659fd93ULL;
    return key;
}
} // namespace

bool FaultInjector::roll(std::size_t spec, int rank, int step, int op) const {
    const auto& s = plan_.faults[spec];
    if (s.probability >= 1.0)
        return true;
    Rng rng(decision_key(plan_.seed, spec, rank, step, op));
    return rng.next_double() < s.probability;
}

bool FaultInjector::claim(std::size_t spec, int step) {
    int expected = -1;
    return fired_step_[spec].compare_exchange_strong(
        expected, step, std::memory_order_acq_rel);
}

void FaultInjector::on_step(int rank, int step) {
    const auto r = static_cast<std::size_t>(rank);
    current_step_[r].store(step, std::memory_order_relaxed);
    op_counter_[r].store(0, std::memory_order_relaxed);
    dropping_[r].store(false, std::memory_order_relaxed);

    for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
        const auto& s = plan_.faults[i];
        if (s.kind != FaultKind::Crash && s.kind != FaultKind::Stall)
            continue;
        if (!matches_rank(s, rank))
            continue;
        if (s.step >= 0 && step < s.step)
            continue; // not armed yet
        if (fired_step_[i].load(std::memory_order_acquire) != -1)
            continue; // one-shot: do not re-fire on replay
        if (!roll(i, rank, step, /*op=*/0))
            continue;
        if (!claim(i, step))
            continue; // another rank won the "any rank" race
        if (s.kind == FaultKind::Crash)
            throw SimulatedCrash(rank, step);
        const int ms = s.duration_ms > 0 ? s.duration_ms : default_stall_ms_;
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
}

bool FaultInjector::on_send(int source, int dest, int tag, int attempt,
                            std::vector<unsigned char>& payload) {
    (void)dest;
    (void)tag;
    const auto r = static_cast<std::size_t>(source);

    if (attempt > 0) {
        // Retransmission of the same message: a persistent Drop keeps
        // eating it; everything else was already applied on attempt 0.
        return !dropping_[r].load(std::memory_order_relaxed);
    }

    dropping_[r].store(false, std::memory_order_relaxed);
    const int step = current_step_[r].load(std::memory_order_relaxed);
    const int op = op_counter_[r].fetch_add(1, std::memory_order_relaxed);
    bool deliver = true;

    for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
        const auto& s = plan_.faults[i];
        if (s.kind == FaultKind::Crash || s.kind == FaultKind::Stall)
            continue;
        if (!matches_rank(s, source))
            continue;
        if (s.step >= 0 && step < s.step)
            continue;
        if (fired_step_[i].load(std::memory_order_acquire) != -1)
            continue;
        if (!roll(i, source, step, op))
            continue;
        if (!claim(i, step))
            continue;
        switch (s.kind) {
        case FaultKind::Drop:
            dropping_[r].store(true, std::memory_order_relaxed);
            deliver = false;
            break;
        case FaultKind::DropOnce:
            deliver = false; // retransmit (attempt 1) will deliver
            break;
        case FaultKind::Corrupt:
            if (!payload.empty()) {
                Rng rng(decision_key(plan_.seed, i, source, step, op) ^
                        0xc0ffee);
                const auto bit =
                    rng.bounded(static_cast<std::uint64_t>(payload.size()) * 8);
                payload[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
            }
            break;
        case FaultKind::Delay: {
            const int ms = s.duration_ms > 0 ? s.duration_ms : default_delay_ms_;
            std::this_thread::sleep_for(std::chrono::milliseconds(ms));
            break;
        }
        default:
            break;
        }
    }
    return deliver;
}

int FaultInjector::faults_fired() const {
    int n = 0;
    for (std::size_t i = 0; i < plan_.faults.size(); ++i)
        if (fired_step_[i].load(std::memory_order_acquire) != -1)
            ++n;
    return n;
}

std::vector<int> FaultInjector::fired_steps() const {
    std::vector<int> out(plan_.faults.size(), -1);
    for (std::size_t i = 0; i < plan_.faults.size(); ++i)
        out[i] = fired_step_[i].load(std::memory_order_acquire);
    return out;
}

void FaultInjector::set_default_durations(int stall_ms, int delay_ms) {
    default_stall_ms_ = stall_ms;
    default_delay_ms_ = delay_ms;
}

} // namespace mfc::resilience
