#include "resilience/recovery.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string_view>

#include "comm/cart.hpp"
#include "core/hash.hpp"
#include "core/timer.hpp"
#include "solver/launch.hpp"
#include "telemetry/telemetry.hpp"

namespace mfc::resilience {

namespace {

// Recovery accounting lives in the registry; RecoveryStats is filled from
// snapshot deltas taken inside run() so there is exactly one source of
// truth. All counts derive from the (deterministic) fault plan — Det —
// except the checkpoint write time.
telemetry::Counter t_rollbacks("resilience.rollbacks");
telemetry::Counter t_cold_restarts("resilience.cold_restarts");
telemetry::Counter t_steps_replayed("resilience.steps_replayed");
telemetry::Counter t_checkpoints("resilience.checkpoints");
telemetry::Counter t_ckpt_bytes("resilience.checkpoint_bytes");
telemetry::Counter t_ckpt_ns("resilience.checkpoint_ns",
                             telemetry::Klass::Timing);

} // namespace

double young_daly_interval_s(double mtbf_s, double ckpt_cost_s) {
    MFC_REQUIRE(mtbf_s > 0.0, "young_daly: MTBF must be positive");
    MFC_REQUIRE(ckpt_cost_s >= 0.0, "young_daly: checkpoint cost must be >= 0");
    return std::sqrt(2.0 * ckpt_cost_s * mtbf_s);
}

int young_daly_steps(double mtbf_s, double ckpt_cost_s, double step_cost_s,
                     int max_steps) {
    const int hi = std::max(1, max_steps);
    if (step_cost_s <= 0.0)
        return hi;
    const double w = young_daly_interval_s(mtbf_s, ckpt_cost_s);
    // Clamp before narrowing: w/step_cost can exceed INT_MAX for long-MTBF
    // machines and the double->int cast would be UB.
    const double steps = std::clamp(w / step_cost_s, 1.0, static_cast<double>(hi));
    return static_cast<int>(steps);
}

namespace {

constexpr std::uint64_t kCkptMagic = 0x4d46435f434b5031ull; // "MFC_CKP1"

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return {};
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

} // namespace

void write_checkpoint(const Simulation& sim, const std::string& path) {
    const std::int64_t t0 =
        telemetry::armed() ? telemetry::clock_ns() : -1;
    const std::string tmp = path + ".tmp";
    sim.save_restart(tmp);
    const std::string bytes = slurp(tmp);
    MFC_REQUIRE(!bytes.empty(), "checkpoint: cannot read back " + tmp);
    const std::uint64_t hash = fnv1a64(bytes);
    {
        std::ofstream app(tmp, std::ios::binary | std::ios::app);
        app.write(reinterpret_cast<const char*>(&kCkptMagic),
                  sizeof kCkptMagic);
        app.write(reinterpret_cast<const char*>(&hash), sizeof hash);
        MFC_REQUIRE(app.good(), "checkpoint: trailer write failed: " + tmp);
    }
    // Atomic publish: readers see either the old checkpoint or the
    // complete new one, never a torn write.
    MFC_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
                "checkpoint: rename failed: " + path);
    t_ckpt_bytes.add(static_cast<std::int64_t>(bytes.size()) +
                     2 * static_cast<std::int64_t>(sizeof(std::uint64_t)));
    if (t0 >= 0) t_ckpt_ns.add(telemetry::clock_ns() - t0);
}

bool checkpoint_valid(const std::string& path) {
    const std::string bytes = slurp(path);
    constexpr std::size_t kTrailer = 2 * sizeof(std::uint64_t);
    if (bytes.size() <= kTrailer)
        return false;
    std::uint64_t magic = 0;
    std::uint64_t stored = 0;
    const char* tail = bytes.data() + bytes.size() - kTrailer;
    std::memcpy(&magic, tail, sizeof magic);
    std::memcpy(&stored, tail + sizeof magic, sizeof stored);
    if (magic != kCkptMagic)
        return false;
    const std::string_view body(bytes.data(), bytes.size() - kTrailer);
    return fnv1a64(body) == stored;
}

void load_checkpoint(Simulation& sim, const std::string& path) {
    if (!checkpoint_valid(path))
        throw CheckpointError("checkpoint failed integrity verification: " +
                              path);
    sim.load_restart(path); // trailing bytes past the payload are ignored
}

ResilientRunner::ResilientRunner(CaseConfig config, RecoveryOptions options)
    : config_(std::move(config)), options_(std::move(options)) {
    MFC_REQUIRE(options_.ranks >= 1, "recovery: ranks must be positive");
    MFC_REQUIRE(options_.max_attempts >= 1,
                "recovery: max_attempts must be positive");
    MFC_REQUIRE(options_.checkpoint_interval >= 0,
                "recovery: checkpoint interval must be >= 0 (0 = auto)");
}

std::string ResilientRunner::checkpoint_path(int rank, int slot) const {
    return options_.checkpoint_dir + "/" + options_.tag + "_r" +
           std::to_string(rank) + "_s" + std::to_string(slot) + ".ckpt";
}

RecoveryStats ResilientRunner::run(FaultInjector* injector) {
    RecoveryStats stats;
    stats.steps_total = config_.t_step_stop;

    // Recovery accounting flows through the registry (and only through
    // it): arm for the duration and read this run's numbers back as a
    // snapshot delta at the end.
    const bool was_armed = telemetry::armed();
    telemetry::set_armed(true);
    const telemetry::Snapshot snap_before = telemetry::snapshot();

    int interval = options_.checkpoint_interval;
    if (interval == 0) {
        // Young/Daly auto mode: probe one step and one checkpoint on a
        // serial instance to estimate costs, then convert the optimal
        // interval W = sqrt(2 C M) into steps.
        Simulation probe(config_);
        probe.initialize();
        const Timer step_timer;
        probe.step();
        stats.step_cost_s = step_timer.seconds();
        const std::string probe_path =
            options_.checkpoint_dir + "/" + options_.tag + "_probe.ckpt";
        const Timer ckpt_timer;
        write_checkpoint(probe, probe_path);
        stats.checkpoint_cost_s = ckpt_timer.seconds();
        std::remove(probe_path.c_str());
        interval = young_daly_steps(options_.mtbf_s, stats.checkpoint_cost_s,
                                    stats.step_cost_s, config_.t_step_stop);
    }
    stats.resolved_interval = interval;

    if (injector != nullptr) {
        // Stalls must exceed the detector patience by a comfortable margin
        // to be reliably diagnosed; delays must stay well under it.
        const auto patience_ms = static_cast<int>(
            options_.comm.patience().count());
        injector->set_default_durations(4 * std::max(1, patience_ms),
                                        std::max(1, patience_ms / 100));
    }

    const CaseTopology topo = case_topology(config_, options_.ranks);

    const auto slot_of = [interval](int step) {
        return interval > 0 ? (step / interval) % 2 : 0;
    };

    std::atomic<int> committed_step{-1};
    std::vector<int> fired_seen =
        injector != nullptr ? injector->fired_steps() : std::vector<int>{};
    std::uint64_t final_hash = 0;
    std::vector<double> final_totals;
    double final_time = 0.0;

    while (stats.attempts < options_.max_attempts) {
        ++stats.attempts;

        // Pre-validate every rank's committed checkpoint so a corrupt one
        // is answered with a cold restart instead of a mid-launch failure.
        const int committed = committed_step.load();
        if (committed >= 0) {
            bool all_valid = true;
            for (int r = 0; r < options_.ranks; ++r)
                all_valid = all_valid &&
                            checkpoint_valid(
                                checkpoint_path(r, slot_of(committed)));
            if (!all_valid) {
                t_cold_restarts.add(1);
                telemetry::record_event("cold_restart", stats.attempts,
                                        committed);
                committed_step.store(-1);
            }
        }

        comm::World world(options_.ranks);
        world.set_resilience(options_.comm);
        if (injector != nullptr)
            world.set_fault_hook(injector);

        try {
            world.run([&](comm::Communicator& comm) {
                const int rank = comm.rank();
                comm::CartComm cart(comm, topo.dims, topo.periodic);
                Simulation sim(config_, cart);
                sim.initialize();
                const int base = committed_step.load();
                if (base >= 0)
                    load_checkpoint(sim, checkpoint_path(rank, slot_of(base)));
                comm.barrier();

                while (sim.steps_done() < config_.t_step_stop) {
                    if (injector != nullptr)
                        injector->on_step(rank, sim.steps_done());
                    sim.step();
                    comm.heartbeat();
                    const int done = sim.steps_done();
                    if (interval > 0 && done % interval == 0 &&
                        done < config_.t_step_stop) {
                        write_checkpoint(sim,
                                         checkpoint_path(rank, slot_of(done)));
                        comm.barrier(); // every rank's file is on disk
                        if (rank == 0) {
                            committed_step.store(done);
                            t_checkpoints.add(1);
                            telemetry::record_event("checkpoint_commit",
                                                    done, 0);
                        }
                        comm.barrier(); // commit visible before next epoch
                    }
                }

                std::vector<double> totals = sim.conserved_totals();
                const std::uint64_t h = sim.state_hash();
                const auto hi = comm.gather(
                    static_cast<double>(h >> 32), 0);
                const auto lo = comm.gather(
                    static_cast<double>(static_cast<std::uint32_t>(h)), 0);
                if (rank == 0) {
                    std::uint64_t acc = 0xcbf29ce484222325ull;
                    for (std::size_t r = 0; r < hi.size(); ++r) {
                        const std::uint64_t hr =
                            (static_cast<std::uint64_t>(hi[r]) << 32) |
                            static_cast<std::uint64_t>(lo[r]);
                        acc = (acc ^ hr) * 0x100000001b3ull;
                    }
                    final_hash = acc;
                    final_totals = std::move(totals);
                    final_time = sim.time();
                }
            });
            stats.completed = true;
            break;
        } catch (const CheckpointError&) {
            // A checkpoint passed pre-validation but failed at load
            // (concurrent damage): fall back to the initial condition.
            t_cold_restarts.add(1);
            committed_step.store(-1);
        } catch (const comm::RankFailure& rf) {
            t_rollbacks.add(1);
            telemetry::record_event("rollback", stats.attempts,
                                    committed_step.load());
            // Flight-recorder dump for triage: the rings still hold the
            // per-rank event tails leading up to the diagnosed failure.
            telemetry::dump_postmortem(std::string("rank_failure: ") +
                                       rf.what());
            if (injector != nullptr) {
                // Deterministic wasted-work accounting: steps between the
                // last committed checkpoint and the newest fault that
                // fired this attempt must be re-executed.
                const std::vector<int> now = injector->fired_steps();
                int newest = -1;
                for (std::size_t i = 0; i < now.size(); ++i)
                    if (fired_seen[i] < 0 && now[i] >= 0)
                        newest = std::max(newest, now[i]);
                fired_seen = now;
                if (newest >= 0)
                    t_steps_replayed.add(std::max(
                        0, newest - std::max(committed_step.load(), 0)));
            }
        }
    }

    const telemetry::Snapshot d =
        telemetry::delta(snap_before, telemetry::snapshot());
    if (!was_armed) telemetry::set_armed(false);
    stats.rollbacks = static_cast<int>(d.value("resilience.rollbacks"));
    stats.cold_restarts =
        static_cast<int>(d.value("resilience.cold_restarts"));
    stats.steps_replayed =
        static_cast<int>(d.value("resilience.steps_replayed"));
    stats.checkpoints_written =
        static_cast<int>(d.value("resilience.checkpoints"));
    stats.state_hash = final_hash;
    stats.conserved = std::move(final_totals);
    stats.sim_time = final_time;
    return stats;
}

} // namespace mfc::resilience
