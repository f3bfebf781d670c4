#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "comm/cart.hpp"
#include "comm/comm.hpp"

namespace mfc::comm {
namespace {

TEST(Comm, PointToPointDelivers) {
    World world(2);
    world.run([](Communicator& c) {
        if (c.rank() == 0) {
            const double payload[3] = {1.0, 2.0, 3.0};
            c.send_doubles(1, 7, payload, 3);
        } else {
            double buf[3] = {};
            c.recv_doubles(0, 7, buf, 3);
            EXPECT_DOUBLE_EQ(buf[0], 1.0);
            EXPECT_DOUBLE_EQ(buf[2], 3.0);
        }
    });
}

TEST(Comm, TagsMatchIndependently) {
    // Messages with different tags are matched by tag, not arrival order.
    World world(2);
    world.run([](Communicator& c) {
        if (c.rank() == 0) {
            const double a = 1.0, b = 2.0;
            c.send_doubles(1, 100, &a, 1);
            c.send_doubles(1, 200, &b, 1);
        } else {
            double b = 0.0, a = 0.0;
            c.recv_doubles(0, 200, &b, 1); // request the later tag first
            c.recv_doubles(0, 100, &a, 1);
            EXPECT_DOUBLE_EQ(a, 1.0);
            EXPECT_DOUBLE_EQ(b, 2.0);
        }
    });
}

TEST(Comm, FifoOrderWithinTag) {
    World world(2);
    world.run([](Communicator& c) {
        if (c.rank() == 0) {
            for (int i = 0; i < 10; ++i) {
                const double v = i;
                c.send_doubles(1, 5, &v, 1);
            }
        } else {
            for (int i = 0; i < 10; ++i) {
                double v = -1.0;
                c.recv_doubles(0, 5, &v, 1);
                EXPECT_DOUBLE_EQ(v, i);
            }
        }
    });
}

TEST(Comm, SelfSendWorks) {
    // Buffered semantics allow a rank to message itself (used by
    // single-rank periodic topologies).
    World world(1);
    world.run([](Communicator& c) {
        const double v = 42.0;
        c.send_doubles(0, 1, &v, 1);
        double got = 0.0;
        c.recv_doubles(0, 1, &got, 1);
        EXPECT_DOUBLE_EQ(got, 42.0);
    });
}

TEST(Comm, SendrecvSymmetricExchange) {
    World world(2);
    world.run([](Communicator& c) {
        const int other = 1 - c.rank();
        const double mine = c.rank() + 1.0;
        double theirs = 0.0;
        c.sendrecv(other, 3, &mine, other, 3, &theirs, sizeof(double));
        EXPECT_DOUBLE_EQ(theirs, other + 1.0);
    });
}

TEST(Comm, SizeMismatchThrows) {
    World world(2);
    EXPECT_THROW(world.run([](Communicator& c) {
        if (c.rank() == 0) {
            const double v = 1.0;
            c.send_doubles(1, 1, &v, 1);
        } else {
            double buf[2];
            c.recv_doubles(0, 1, buf, 2); // wrong size
        }
    }),
                 Error);
}

TEST(Comm, BadRankThrows) {
    World world(2);
    EXPECT_THROW(world.run([](Communicator& c) {
        const double v = 0.0;
        c.send_doubles(5, 0, &v, 1);
    }),
                 Error);
}

TEST(Comm, BarrierSynchronizesPhases) {
    constexpr int n = 8;
    World world(n);
    std::atomic<int> arrived{0};
    world.run([&](Communicator& c) {
        arrived.fetch_add(1);
        c.barrier();
        // After the barrier every rank must have arrived.
        EXPECT_EQ(arrived.load(), n);
        c.barrier();
    });
}

class CollectiveSizes : public testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, AllreduceSum) {
    const int n = GetParam();
    World world(n);
    world.run([&](Communicator& c) {
        const double total = c.allreduce(c.rank() + 1.0, Communicator::Op::Sum);
        EXPECT_DOUBLE_EQ(total, n * (n + 1) / 2.0);
    });
}

TEST_P(CollectiveSizes, AllreduceMinMax) {
    const int n = GetParam();
    World world(n);
    world.run([&](Communicator& c) {
        EXPECT_DOUBLE_EQ(c.allreduce(c.rank(), Communicator::Op::Min), 0.0);
        EXPECT_DOUBLE_EQ(c.allreduce(c.rank(), Communicator::Op::Max), n - 1.0);
    });
}

TEST_P(CollectiveSizes, VectorAllreduce) {
    const int n = GetParam();
    World world(n);
    world.run([&](Communicator& c) {
        std::vector<double> v = {1.0, static_cast<double>(c.rank())};
        c.allreduce(v, Communicator::Op::Sum);
        EXPECT_DOUBLE_EQ(v[0], n);
        EXPECT_DOUBLE_EQ(v[1], n * (n - 1) / 2.0);
    });
}

TEST_P(CollectiveSizes, BroadcastFromNonzeroRoot) {
    const int n = GetParam();
    if (n < 2) GTEST_SKIP();
    World world(n);
    world.run([&](Communicator& c) {
        double v = c.rank() == 1 ? 3.25 : 0.0;
        c.bcast(&v, sizeof(double), 1);
        EXPECT_DOUBLE_EQ(v, 3.25);
    });
}

TEST_P(CollectiveSizes, GatherToRoot) {
    const int n = GetParam();
    World world(n);
    world.run([&](Communicator& c) {
        const std::vector<double> got = c.gather(c.rank() * 2.0, 0);
        if (c.rank() == 0) {
            ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
            for (int r = 0; r < n; ++r) EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(r)], 2.0 * r);
        } else {
            EXPECT_TRUE(got.empty());
        }
    });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveSizes,
                         testing::Values(1, 2, 3, 8));

TEST(Comm, NonblockingRoundTrip) {
    World world(2);
    world.run([](Communicator& c) {
        const int other = 1 - c.rank();
        const double mine[2] = {c.rank() + 1.0, 42.0};
        double theirs[2] = {0.0, 0.0};
        // Post the receive first, then the send — the MPI-idiomatic halo
        // pattern that blocking recv alone cannot express.
        std::vector<Communicator::Request> reqs;
        reqs.push_back(c.irecv(other, 9, theirs, sizeof theirs));
        reqs.push_back(c.isend(other, 9, mine, sizeof mine));
        Communicator::wait_all(reqs);
        EXPECT_DOUBLE_EQ(theirs[0], other + 1.0);
        EXPECT_DOUBLE_EQ(theirs[1], 42.0);
    });
}

TEST(Comm, RequestStatesAndIdempotentWait) {
    World world(2);
    world.run([](Communicator& c) {
        const int other = 1 - c.rank();
        const double v = 1.5;
        auto s = c.isend(other, 3, &v, sizeof v);
        EXPECT_TRUE(s.done()); // buffered: complete immediately
        double got = 0.0;
        auto r = c.irecv(other, 3, &got, sizeof got);
        EXPECT_FALSE(r.done());
        r.wait();
        EXPECT_TRUE(r.done());
        r.wait(); // second wait is a no-op
        EXPECT_DOUBLE_EQ(got, 1.5);
    });
}

TEST(Comm, ManyOutstandingReceivesCompleteInAnyOrder) {
    World world(2);
    world.run([](Communicator& c) {
        if (c.rank() == 0) {
            for (int i = 0; i < 8; ++i) {
                const double v = i;
                c.send_doubles(1, 100 + i, &v, 1);
            }
        } else {
            double got[8];
            std::vector<Communicator::Request> reqs;
            // Post in reverse tag order; matching is by tag regardless.
            for (int i = 7; i >= 0; --i) {
                reqs.push_back(c.irecv(0, 100 + i, &got[i], sizeof(double)));
            }
            Communicator::wait_all(reqs);
            for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(got[i], i);
        }
    });
}

TEST(Comm, TrafficAccountingCountsBytes) {
    World world(2);
    world.run([](Communicator& c) {
        if (c.rank() == 0) {
            const double payload[4] = {};
            c.send_doubles(1, 0, payload, 4);
        } else {
            double buf[4];
            c.recv_doubles(0, 0, buf, 4);
        }
    });
    const Traffic t = world.traffic();
    EXPECT_EQ(t.messages, 1);
    EXPECT_EQ(t.bytes, 32);
}

TEST(Comm, RequestTestPollsWithoutBlocking) {
    World world(2);
    world.run([](Communicator& c) {
        if (c.rank() == 0) {
            c.barrier();
            const double v = 2.5;
            c.send(1, 4, &v, sizeof v);
        } else {
            double got = 0.0;
            auto r = c.irecv(0, 4, &got, sizeof got);
            // The sender is still parked at the barrier: test() must
            // return false without blocking.
            EXPECT_FALSE(r.test());
            EXPECT_FALSE(r.done());
            c.barrier();
            while (!r.test()) {
            }
            EXPECT_TRUE(r.done());
            EXPECT_TRUE(r.test()); // idempotent once complete
            EXPECT_DOUBLE_EQ(got, 2.5);
        }
    });
}

TEST(Comm, WaitAnyReturnsTheArrivedRequest) {
    World world(2);
    world.run([](Communicator& c) {
        if (c.rank() == 0) {
            const double v = 7.0;
            c.send(1, 21, &v, sizeof v); // second request arrives first
            double ack = 0.0;
            c.recv(1, 22, &ack, sizeof ack);
            const double w = 8.0;
            c.send(1, 20, &w, sizeof w);
        } else {
            double a = 0.0, b = 0.0;
            std::vector<Communicator::Request> reqs;
            reqs.push_back(c.irecv(0, 20, &a, sizeof a));
            reqs.push_back(c.irecv(0, 21, &b, sizeof b));
            // Only the tag-21 message exists yet, so wait_any must pick
            // index 1 regardless of posting order.
            EXPECT_EQ(Communicator::wait_any(reqs), 1u);
            EXPECT_DOUBLE_EQ(b, 7.0);
            const double ack = 1.0;
            c.send(0, 22, &ack, sizeof ack);
            EXPECT_EQ(Communicator::wait_any(reqs), 0u);
            EXPECT_DOUBLE_EQ(a, 8.0);
            // Everything complete: no pending request left to wait on.
            EXPECT_EQ(Communicator::wait_any(reqs), Communicator::kUndefined);
        }
    });
}

TEST(Comm, WaitAnyOnEmptyVectorIsUndefined) {
    World world(1);
    world.run([](Communicator&) {
        std::vector<Communicator::Request> reqs;
        EXPECT_EQ(Communicator::wait_any(reqs), Communicator::kUndefined);
    });
}

TEST(Comm, CancelAllowsDestructionOfPendingReceive) {
    // The destructor contract (assert on unwaited pending requests) stays
    // intact; cancel() is the sanctioned error-path release valve.
    World world(2);
    world.run([](Communicator& c) {
        if (c.rank() == 1) {
            double got = 0.0;
            auto r = c.irecv(0, 6, &got, sizeof got);
            EXPECT_FALSE(r.done());
            r.cancel();
            EXPECT_TRUE(r.done());
        } // rank 0 never sends; the request dies unmatched but canceled
        c.barrier();
    });
}

TEST(Comm, RankExceptionPropagates) {
    World world(4);
    EXPECT_THROW(world.run([](Communicator& c) {
        if (c.rank() == 2) mfc::fail("deliberate failure");
        c.barrier();
    }),
                 Error);
}

// --- Cartesian topology ------------------------------------------------

TEST(Cart, CoordsRoundTrip) {
    World world(8);
    world.run([](Communicator& c) {
        CartComm cart(c, {2, 2, 2}, {true, true, true});
        const auto coords = cart.coords();
        EXPECT_EQ(cart.rank_of(coords), c.rank());
    });
}

TEST(Cart, RankOrderingZFastest) {
    World world(12);
    world.run([](Communicator& c) {
        CartComm cart(c, {2, 2, 3}, {false, false, false});
        if (c.rank() == 0) {
            EXPECT_EQ(cart.rank_of({0, 0, 1}), 1);
            EXPECT_EQ(cart.rank_of({0, 1, 0}), 3);
            EXPECT_EQ(cart.rank_of({1, 0, 0}), 6);
        }
        c.barrier();
    });
}

TEST(Cart, PeriodicNeighborsWrap) {
    World world(4);
    world.run([](Communicator& c) {
        CartComm cart(c, {4, 1, 1}, {true, false, false});
        const auto coords = cart.coords();
        const int left = cart.neighbor(0, -1);
        const int right = cart.neighbor(0, +1);
        EXPECT_EQ(left, (coords[0] + 3) % 4);
        EXPECT_EQ(right, (coords[0] + 1) % 4);
    });
}

TEST(Cart, NonPeriodicEdgesAreProcNull) {
    World world(4);
    world.run([](Communicator& c) {
        CartComm cart(c, {4, 1, 1}, {false, false, false});
        if (cart.coords()[0] == 0) {
            EXPECT_EQ(cart.neighbor(0, -1), kProcNull);
        }
        if (cart.coords()[0] == 3) {
            EXPECT_EQ(cart.neighbor(0, +1), kProcNull);
        }
        // Inactive dimensions have trivial self/periodic behavior guarded
        // by dims==1; non-periodic gives ProcNull.
        EXPECT_EQ(cart.neighbor(1, +1), kProcNull);
    });
}

TEST(Cart, ShiftMatchesNeighbors) {
    World world(6);
    world.run([](Communicator& c) {
        CartComm cart(c, {3, 2, 1}, {true, true, false});
        const CartComm::Shift s = cart.shift(0);
        EXPECT_EQ(s.source, cart.neighbor(0, -1));
        EXPECT_EQ(s.dest, cart.neighbor(0, +1));
    });
}

TEST(Cart, DimsMustCoverSize) {
    World world(4);
    EXPECT_THROW(world.run([](Communicator& c) {
        CartComm cart(c, {3, 1, 1}, {false, false, false});
        (void)cart;
    }),
                 Error);
}

// --- dims_create (validated against Table 4 below in perf tests too) ----

TEST(DimsCreate, ProductEqualsRanks) {
    for (const int n : {1, 2, 3, 4, 6, 8, 12, 17, 64, 100, 128, 384}) {
        const auto d = dims_create(n, 3);
        EXPECT_EQ(d[0] * d[1] * d[2], n) << n;
        EXPECT_LE(d[0], d[1]);
        EXPECT_LE(d[1], d[2]);
    }
}

TEST(DimsCreate, NearCubicForPowersOfTwo) {
    EXPECT_EQ(dims_create(8, 3), (std::array<int, 3>{2, 2, 2}));
    EXPECT_EQ(dims_create(64, 3), (std::array<int, 3>{4, 4, 4}));
    EXPECT_EQ(dims_create(512, 3), (std::array<int, 3>{8, 8, 8}));
}

TEST(DimsCreate, LowerDimensionality) {
    EXPECT_EQ(dims_create(6, 1), (std::array<int, 3>{6, 1, 1}));
    const auto d2 = dims_create(12, 2);
    EXPECT_EQ(d2[0] * d2[1], 12);
    EXPECT_EQ(d2[2], 1);
}

TEST(DimsCreate, PrimesGoToOneDimension) {
    EXPECT_EQ(dims_create(7, 3), (std::array<int, 3>{1, 1, 7}));
}

} // namespace
} // namespace mfc::comm
