#include "comm/comm.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <thread>

#include "core/hash.hpp"
#include "exec/exec.hpp"
#include "telemetry/telemetry.hpp"

namespace mfc::comm {

namespace {

std::uint64_t payload_hash(const std::vector<unsigned char>& payload) {
    return fnv1a64(std::string_view(
        reinterpret_cast<const char*>(payload.data()), payload.size()));
}

// Registry handles for the comm subsystem. Message and byte counts are
// workload-determined (Det); blocking-wait time is wall-clock (Timing).
telemetry::Counter t_messages("comm.messages");
telemetry::Counter t_bytes("comm.bytes");
telemetry::Histogram t_msg_sizes("comm.msg_bytes");
telemetry::Counter t_recv_wait("comm.recv_wait_ns", telemetry::Klass::Timing);
telemetry::Counter t_retries("resilience.retries");
telemetry::Counter t_lost("resilience.messages_lost");
telemetry::Counter t_heartbeats("resilience.heartbeats");
telemetry::Counter t_detections("resilience.detections");

} // namespace

std::string to_string(RankFailure::Cause c) {
    switch (c) {
    case RankFailure::Cause::Crash: return "crash";
    case RankFailure::Cause::Stall: return "stall";
    case RankFailure::Cause::MessageLoss: return "message-loss";
    case RankFailure::Cause::Corruption: return "corruption";
    case RankFailure::Cause::Unknown: return "unknown";
    }
    MFC_ASSERT(false);
}

int Communicator::size() const { return world_->size(); }

void Communicator::send(int dest, int tag, const void* data, std::size_t bytes) {
    telemetry::Zone zone("comm_send");
    zone.add_bytes(static_cast<std::int64_t>(bytes));
    MFC_REQUIRE(dest >= 0 && dest < world_->size(), "send: bad destination rank");
    World::Message msg;
    msg.source = rank_;
    msg.tag = tag;
    msg.payload.resize(bytes);
    if (bytes > 0) std::memcpy(msg.payload.data(), data, bytes);
    if (world_->resilience_.armed) {
        // Envelope checksum of the pristine payload, taken before the
        // fault hook can mutate it, so injected bit flips are detectable
        // at the receiver.
        msg.checksum = payload_hash(msg.payload);
        msg.checked = true;
    }

    if (world_->hook_ != nullptr) {
        // Each delivery attempt is offered to the injector; a dropped
        // attempt is retransmitted after exponential backoff, modeling
        // link-level retry. A persistently dropped message is lost — the
        // receiver's failure detector converts the silence into a
        // diagnosed RankFailure.
        std::chrono::milliseconds backoff = world_->resilience_.op_timeout;
        for (int attempt = 0;; ++attempt) {
            if (world_->hook_->on_send(rank_, dest, tag, attempt, msg.payload)) {
                if (attempt > 0) t_retries.add(attempt);
                break;
            }
            if (attempt >= world_->resilience_.max_retries) {
                t_retries.add(attempt);
                t_lost.add(1);
                telemetry::record_event("msg_lost", dest, tag);
                world_->tick_heartbeat(rank_);
                return; // message lost
            }
            std::this_thread::sleep_for(backoff);
            backoff *= 2;
        }
    }

    World::Mailbox& box = *world_->mailboxes_[static_cast<std::size_t>(dest)];
    {
        const std::lock_guard<std::mutex> lock(box.mutex);
        box.queue.push_back(std::move(msg));
    }
    box.cv.notify_all();
    world_->messages_.fetch_add(1, std::memory_order_relaxed);
    world_->bytes_.fetch_add(static_cast<std::int64_t>(bytes),
                             std::memory_order_relaxed);
    t_messages.add(1);
    t_bytes.add(static_cast<std::int64_t>(bytes));
    t_msg_sizes.record(static_cast<std::int64_t>(bytes));
    world_->tick_heartbeat(rank_);
}

void Communicator::recv(int source, int tag, void* data, std::size_t bytes) {
    // Blocking wait: time spent here is the receiver-side exposure of
    // communication latency and load imbalance.
    telemetry::Zone zone("comm_recv");
    zone.add_bytes(static_cast<std::int64_t>(bytes));
    MFC_REQUIRE(source >= 0 && source < world_->size(), "recv: bad source rank");
    const std::int64_t wait_t0 =
        telemetry::armed() ? telemetry::clock_ns() : -1;
    World::Mailbox& box = *world_->mailboxes_[static_cast<std::size_t>(rank_)];
    const ResilienceConfig& rc = world_->resilience_;
    std::unique_lock<std::mutex> lock(box.mutex);
    std::chrono::milliseconds timeout = rc.op_timeout;
    int attempts = 0;
    const std::uint64_t hb_at_entry =
        rc.armed ? world_->heartbeat_of(source) : 0;
    for (;;) {
        if (world_->try_match_locked(box, rank_, source, tag, data, bytes)) {
            if (wait_t0 >= 0) {
                t_recv_wait.add(telemetry::clock_ns() - wait_t0);
            }
            return;
        }
        if (world_->failed_.load()) world_->throw_peer_failure("recv");
        if (!rc.armed) {
            box.cv.wait(lock);
            continue;
        }
        if (attempts > rc.max_retries) {
            // Patience exhausted. A source whose heartbeat never moved is
            // stalled (or dead); one that kept progressing sent a message
            // that never arrived.
            const bool stalled = world_->heartbeat_of(source) == hb_at_entry;
            const RankFailure::Cause cause = stalled
                                                 ? RankFailure::Cause::Stall
                                                 : RankFailure::Cause::MessageLoss;
            world_->note_dead(source, cause);
            throw RankFailure(
                source, cause,
                "recv: no message from rank " + std::to_string(source) +
                    " after " + std::to_string(rc.max_retries + 1) +
                    " timed waits (" + to_string(cause) + ")");
        }
        if (box.cv.wait_for(lock, timeout) == std::cv_status::timeout) {
            ++attempts;
            timeout *= 2;
        }
    }
}

void Communicator::sendrecv(int dest, int send_tag, const void* send_data,
                            int source, int recv_tag, void* recv_data,
                            std::size_t bytes) {
    // Buffered sends cannot deadlock, so the naive ordering is safe.
    send(dest, send_tag, send_data, bytes);
    recv(source, recv_tag, recv_data, bytes);
}

Communicator::Request::~Request() {
    // An unwaited pending receive would silently drop a message.
    MFC_ASSERT(!pending_);
}

void Communicator::Request::wait() {
    if (!pending_) return;
    try {
        comm_->recv(source_, tag_, data_, bytes_);
    } catch (...) {
        // The message was consumed (corruption) or the job is failed;
        // there is nothing left to wait for, so unwinding through the
        // destructor must not trip the unwaited-receive assert.
        pending_ = false;
        throw;
    }
    pending_ = false;
}

bool Communicator::Request::test() {
    if (!pending_) return true;
    bool matched;
    try {
        matched = comm_->try_recv(source_, tag_, data_, bytes_);
    } catch (...) {
        pending_ = false;
        throw;
    }
    if (matched) pending_ = false;
    return matched;
}

bool Communicator::try_recv(int source, int tag, void* data, std::size_t bytes) {
    MFC_REQUIRE(source >= 0 && source < world_->size(), "test: bad source rank");
    World::Mailbox& box = *world_->mailboxes_[static_cast<std::size_t>(rank_)];
    const std::lock_guard<std::mutex> lock(box.mutex);
    if (world_->try_match_locked(box, rank_, source, tag, data, bytes)) {
        return true;
    }
    if (world_->failed_.load()) world_->throw_peer_failure("test");
    return false;
}

Communicator::Request Communicator::isend(int dest, int tag, const void* data,
                                          std::size_t bytes) {
    // Buffered semantics: the payload is copied out immediately.
    send(dest, tag, data, bytes);
    return Request{};
}

Communicator::Request Communicator::irecv(int source, int tag, void* data,
                                          std::size_t bytes) {
    return Request(this, source, tag, data, bytes);
}

void Communicator::wait_all(std::vector<Request>& requests) {
    for (Request& r : requests) r.wait();
}

std::size_t Communicator::wait_any(std::vector<Request>& requests) {
    Communicator* comm = nullptr;
    for (const Request& r : requests) {
        if (r.pending_) {
            comm = r.comm_;
            break;
        }
    }
    if (comm == nullptr) return kUndefined;
    World& world = *comm->world_;
    // Blocking exposure accounted like recv: the zone spans the wait, and
    // the completed request's bytes are credited on the way out.
    telemetry::Zone zone("comm_recv");
    const std::int64_t wait_t0 =
        telemetry::armed() ? telemetry::clock_ns() : -1;
    World::Mailbox& box =
        *world.mailboxes_[static_cast<std::size_t>(comm->rank_)];
    const ResilienceConfig& rc = world.resilience_;
    std::unique_lock<std::mutex> lock(box.mutex);
    std::chrono::milliseconds timeout = rc.op_timeout;
    int attempts = 0;
    std::vector<std::uint64_t> hb_at_entry;
    if (rc.armed) {
        hb_at_entry.assign(requests.size(), 0);
        for (std::size_t i = 0; i < requests.size(); ++i) {
            if (requests[i].pending_) {
                hb_at_entry[i] = world.heartbeat_of(requests[i].source_);
            }
        }
    }
    for (;;) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
            Request& r = requests[i];
            if (!r.pending_) continue;
            MFC_REQUIRE(r.comm_->world_ == &world && r.comm_->rank_ == comm->rank_,
                        "wait_any: requests span communicators");
            bool matched;
            try {
                matched = world.try_match_locked(box, comm->rank_, r.source_,
                                                 r.tag_, r.data_, r.bytes_);
            } catch (...) {
                r.pending_ = false;
                throw;
            }
            if (matched) {
                r.pending_ = false;
                zone.add_bytes(static_cast<std::int64_t>(r.bytes_));
                if (wait_t0 >= 0) {
                    t_recv_wait.add(telemetry::clock_ns() - wait_t0);
                }
                return i;
            }
        }
        if (world.failed_.load()) world.throw_peer_failure("wait_any");
        if (!rc.armed) {
            box.cv.wait(lock);
            continue;
        }
        if (attempts > rc.max_retries) {
            // Same diagnosis as recv, attributed to the first source still
            // owing us a message: a silent heartbeat means a stalled (or
            // dead) rank, a moving one means its message was lost.
            for (std::size_t i = 0; i < requests.size(); ++i) {
                if (!requests[i].pending_) continue;
                const int source = requests[i].source_;
                const bool stalled =
                    world.heartbeat_of(source) == hb_at_entry[i];
                const RankFailure::Cause cause =
                    stalled ? RankFailure::Cause::Stall
                            : RankFailure::Cause::MessageLoss;
                world.note_dead(source, cause);
                throw RankFailure(
                    source, cause,
                    "wait_any: no message from rank " + std::to_string(source) +
                        " after " + std::to_string(rc.max_retries + 1) +
                        " timed waits (" + to_string(cause) + ")");
            }
            MFC_ASSERT(false); // a pending request found comm above
        }
        if (box.cv.wait_for(lock, timeout) == std::cv_status::timeout) {
            ++attempts;
            timeout *= 2;
        }
    }
}

void Communicator::barrier() {
    PROF_ZONE("comm_barrier");
    World::BarrierState& b = world_->barrier_;
    const ResilienceConfig& rc = world_->resilience_;
    std::unique_lock<std::mutex> lock(b.mutex);
    if (world_->failed_.load()) world_->throw_peer_failure("barrier");
    const std::uint64_t gen = b.generation;
    if (++b.waiting == world_->size()) {
        b.waiting = 0;
        ++b.generation;
        lock.unlock();
        b.cv.notify_all();
        world_->tick_heartbeat(rank_);
        return;
    }
    const auto released = [&] {
        return b.generation != gen || world_->failed_.load();
    };
    if (!rc.armed) {
        b.cv.wait(lock, released);
    } else {
        // Safety net only: stalls are normally caught by a peer's receive
        // first, so the barrier gets 8x the receive patience (checkpoint
        // writes legitimately keep ranks away from the barrier).
        std::chrono::milliseconds timeout = rc.op_timeout;
        int attempts = 0;
        while (!released()) {
            if (attempts > rc.max_retries + 3) {
                --b.waiting;
                throw RankFailure(RankFailure::kUnknownRank,
                                  RankFailure::Cause::Stall,
                                  "barrier: timed out waiting for peers");
            }
            if (b.cv.wait_for(lock, timeout) == std::cv_status::timeout) {
                ++attempts;
                timeout *= 2;
            }
        }
    }
    if (b.generation == gen) {
        // Released by a failure, not by barrier completion: withdraw our
        // contribution and unwind.
        --b.waiting;
        world_->throw_peer_failure("barrier");
    }
    world_->tick_heartbeat(rank_);
}

void Communicator::heartbeat() {
    t_heartbeats.add(1);
    world_->tick_heartbeat(rank_);
}

namespace {

double reduce2(double a, double b, Communicator::Op op) {
    switch (op) {
    case Communicator::Op::Sum: return a + b;
    case Communicator::Op::Min: return std::min(a, b);
    case Communicator::Op::Max: return std::max(a, b);
    }
    MFC_ASSERT(false);
}

constexpr int kTagReduce = -101;
constexpr int kTagBcast = -102;
constexpr int kTagGather = -103;

} // namespace

double Communicator::allreduce(double value, Op op) {
    std::vector<double> v{value};
    allreduce(v, op);
    return v[0];
}

void Communicator::allreduce(std::vector<double>& values, Op op) {
    PROF_ZONE("comm_allreduce");
    const std::size_t n = values.size();
    if (size() == 1) return;
    if (rank_ == 0) {
        std::vector<double> incoming(n);
        for (int r = 1; r < size(); ++r) {
            recv_doubles(r, kTagReduce, incoming.data(), n);
            for (std::size_t i = 0; i < n; ++i) {
                values[i] = reduce2(values[i], incoming[i], op);
            }
        }
    } else {
        send_doubles(0, kTagReduce, values.data(), n);
    }
    bcast(values.data(), n * sizeof(double), 0);
}

void Communicator::bcast(void* data, std::size_t bytes, int root) {
    if (size() == 1) return;
    if (rank_ == root) {
        for (int r = 0; r < size(); ++r) {
            if (r != root) send(r, kTagBcast, data, bytes);
        }
    } else {
        recv(root, kTagBcast, data, bytes);
    }
}

std::vector<double> Communicator::gather(double value, int root) {
    if (rank_ == root) {
        std::vector<double> out(static_cast<std::size_t>(size()));
        out[static_cast<std::size_t>(root)] = value;
        for (int r = 0; r < size(); ++r) {
            if (r != root) recv_doubles(r, kTagGather, &out[static_cast<std::size_t>(r)], 1);
        }
        return out;
    }
    send_doubles(root, kTagGather, &value, 1);
    return {};
}

World::World(int nranks) : nranks_(nranks) {
    MFC_REQUIRE(nranks >= 1, "World: need at least one rank");
    mailboxes_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
        mailboxes_.push_back(std::make_unique<Mailbox>());
    }
    heartbeats_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
        heartbeats_[static_cast<std::size_t>(r)].store(0);
    }
}

void World::run(const std::function<void(Communicator&)>& fn) {
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks_));
    threads.reserve(static_cast<std::size_t>(nranks_));
    for (int r = 0; r < nranks_; ++r) {
        threads.emplace_back([this, r, &fn, &errors] {
            telemetry::set_thread_label("rank" + std::to_string(r));
            // Hybrid ranks×threads: rank r binds worker team r, so each
            // rank's parallel_for dispatches onto its own disjoint
            // thread team (carved from the process-wide core budget)
            // instead of all ranks contending for one pool.
            const exec::TeamGuard team(r);
            Communicator comm(*this, r);
            try {
                fn(comm);
            } catch (const RankFailure& rf) {
                // Record the culprit so peers unwinding later report the
                // same diagnosis (first writer wins).
                note_dead(rf.failed_rank(), rf.cause());
                errors[static_cast<std::size_t>(r)] = std::current_exception();
                abort_all();
            } catch (...) {
                errors[static_cast<std::size_t>(r)] = std::current_exception();
                abort_all();
            }
        });
    }
    for (auto& t : threads) t.join();
    // Prefer a diagnosed RankFailure over the secondary "peer failed"
    // errors of the ranks it took down, so callers see the root cause.
    std::exception_ptr first;
    std::exception_ptr first_rank_failure;
    for (const auto& err : errors) {
        if (!err) continue;
        if (!first) first = err;
        if (!first_rank_failure) {
            try {
                std::rethrow_exception(err);
            } catch (const RankFailure&) {
                first_rank_failure = err;
            } catch (...) {
            }
        }
    }
    if (first_rank_failure) std::rethrow_exception(first_rank_failure);
    if (first) std::rethrow_exception(first);
    // A rank may have been unwound by a peer's failure without recording
    // its own error (all errors identical); failed_ stays set so reuse of
    // this World is rejected by the next blocking call.
}

bool World::try_match_locked(Mailbox& box, int receiver, int source, int tag,
                             void* data, std::size_t bytes) {
    const auto it = std::find_if(
        box.queue.begin(), box.queue.end(), [&](const Message& m) {
            return m.source == source && m.tag == tag;
        });
    if (it == box.queue.end()) return false;
    MFC_REQUIRE(it->payload.size() == bytes, "recv: message size mismatch");
    if (it->checked && payload_hash(it->payload) != it->checksum) {
        box.queue.erase(it);
        note_dead(source, RankFailure::Cause::Corruption);
        throw RankFailure(source, RankFailure::Cause::Corruption,
                          "recv: payload checksum mismatch from rank " +
                              std::to_string(source));
    }
    if (bytes > 0) std::memcpy(data, it->payload.data(), bytes);
    box.queue.erase(it);
    tick_heartbeat(receiver);
    return true;
}

void World::abort_all() {
    failed_.store(true);
    {
        const std::lock_guard<std::mutex> lock(barrier_.mutex);
        barrier_.cv.notify_all();
    }
    for (const auto& box : mailboxes_) {
        const std::lock_guard<std::mutex> lock(box->mutex);
        box->cv.notify_all();
    }
}

void World::note_dead(int rank, RankFailure::Cause cause) {
    if (rank == RankFailure::kUnknownRank) return;
    int expected = RankFailure::kUnknownRank;
    if (dead_rank_.compare_exchange_strong(expected, rank)) {
        dead_cause_.store(static_cast<int>(cause));
        // First writer wins, so each diagnosed failure counts once.
        t_detections.add(1);
        telemetry::record_event("rank_failure", rank,
                                static_cast<std::int64_t>(cause));
    }
}

void World::throw_peer_failure(const char* context) const {
    const int dead = dead_rank_.load();
    if (dead != RankFailure::kUnknownRank) {
        const auto cause = static_cast<RankFailure::Cause>(dead_cause_.load());
        throw RankFailure(dead, cause,
                          std::string(context) + ": rank " +
                              std::to_string(dead) + " failed (" +
                              to_string(cause) + ")");
    }
    fail(std::string(context) + ": a peer rank failed");
}

Traffic World::launch(int nranks, const std::function<void(Communicator&)>& fn) {
    World world(nranks);
    world.run(fn);
    return world.traffic();
}

Traffic World::traffic() const {
    return Traffic{messages_.load(), bytes_.load()};
}

void World::reset_traffic() {
    messages_.store(0);
    bytes_.store(0);
}

} // namespace mfc::comm
