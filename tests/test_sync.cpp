// Tests for the synchronization constructs (§4.3): intra-dapplet
// (semaphore, barrier, single-assignment, bounded channel) and
// inter-dapplet (distributed barrier, distributed single-assignment).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dapple/net/sim.hpp"
#include "dapple/services/sync/distributed.hpp"
#include "dapple/services/sync/local.hpp"
#include "dapple/testkit/seed.hpp"
#include "dapple/testkit/virtual_clock.hpp"

namespace dapple {
namespace {

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

TEST(Semaphore, AcquireConsumesRelease) {
  Semaphore sem(2);
  EXPECT_EQ(sem.value(), 2);
  sem.acquire();
  sem.acquire();
  EXPECT_EQ(sem.value(), 0);
  EXPECT_FALSE(sem.tryAcquire());
  sem.release();
  EXPECT_TRUE(sem.tryAcquire());
}

TEST(Semaphore, TryAcquireForTimesOut) {
  Semaphore sem(0);
  EXPECT_FALSE(sem.tryAcquireFor(milliseconds(30)));
  sem.release();
  EXPECT_TRUE(sem.tryAcquireFor(milliseconds(30)));
}

TEST(Semaphore, BlocksUntilReleased) {
  Semaphore sem(0);
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    sem.acquire();
    acquired = true;
  });
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_FALSE(acquired);
  sem.release();
  t.join();
  EXPECT_TRUE(acquired);
}

TEST(Semaphore, BoundsConcurrency) {
  Semaphore sem(3);
  std::atomic<int> inside{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      for (int r = 0; r < 50; ++r) {
        sem.acquire();
        if (++inside > 3) violated = true;
        --inside;
        sem.release();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violated);
  EXPECT_EQ(sem.value(), 3);
}

TEST(Semaphore, NegativeInitialThrows) {
  EXPECT_THROW(Semaphore(-1), Error);
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

TEST(Barrier, AllPartiesMeetRepeatedly) {
  constexpr std::size_t kParties = 4;
  constexpr int kRounds = 20;
  Barrier barrier(kParties);
  std::atomic<int> phase{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  std::vector<std::atomic<int>> arrived(kRounds);
  for (std::size_t p = 0; p < kParties; ++p) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        ++arrived[r];
        const std::size_t gen = barrier.arriveAndWait();
        // When released, everyone must have arrived at this round.
        if (arrived[r] != static_cast<int>(kParties)) violated = true;
        if (gen != static_cast<std::size_t>(r)) violated = true;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violated);
  (void)phase;
}

TEST(Barrier, ZeroPartiesThrows) { EXPECT_THROW(Barrier(0), Error); }

// ---------------------------------------------------------------------------
// SingleAssignment
// ---------------------------------------------------------------------------

TEST(SingleAssignment, GetBlocksUntilSet) {
  SingleAssignment<int> var;
  EXPECT_FALSE(var.isSet());
  std::thread setter([&] {
    std::this_thread::sleep_for(milliseconds(20));
    var.set(42);
  });
  EXPECT_EQ(var.get(), 42);
  setter.join();
  EXPECT_TRUE(var.isSet());
  EXPECT_EQ(var.get(), 42);  // repeat reads fine
}

TEST(SingleAssignment, SecondSetThrows) {
  SingleAssignment<std::string> var;
  var.set("first");
  EXPECT_THROW(var.set("second"), Error);
  EXPECT_EQ(var.get(), "first");
}

TEST(SingleAssignment, TimedGetThrows) {
  SingleAssignment<int> var;
  EXPECT_THROW(var.get(milliseconds(30)), TimeoutError);
}

TEST(SingleAssignment, ManyConcurrentReadersSeeSameValue) {
  SingleAssignment<int> var;
  std::atomic<bool> ok{true};
  std::vector<std::thread> readers;
  for (int i = 0; i < 6; ++i) {
    readers.emplace_back([&] {
      if (var.get() != 7) ok = false;
    });
  }
  var.set(7);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------------------
// BoundedChannel
// ---------------------------------------------------------------------------

TEST(BoundedChannel, FifoAndCapacity) {
  BoundedChannel<int> ch(2);
  ch.put(1);
  ch.put(2);
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_EQ(ch.take(), 1);
  EXPECT_EQ(ch.take(), 2);
  EXPECT_FALSE(ch.tryTake().has_value());
}

TEST(BoundedChannel, PutBlocksWhenFull) {
  BoundedChannel<int> ch(1);
  ch.put(1);
  std::atomic<bool> done{false};
  std::thread t([&] {
    ch.put(2);  // blocks until a take
    done = true;
  });
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_FALSE(done);
  EXPECT_EQ(ch.take(), 1);
  t.join();
  EXPECT_TRUE(done);
  EXPECT_EQ(ch.take(), 2);
}

TEST(BoundedChannel, CloseWakesEveryone) {
  BoundedChannel<int> ch(1);
  std::thread taker([&] { EXPECT_THROW(ch.take(), ShutdownError); });
  std::this_thread::sleep_for(milliseconds(20));
  ch.close();
  taker.join();
  EXPECT_THROW(ch.put(1), ShutdownError);
}

TEST(BoundedChannel, ProducerConsumerPipeline) {
  BoundedChannel<int> ch(4);
  long long sum = 0;
  std::thread consumer([&] {
    for (int i = 0; i < 200; ++i) sum += ch.take();
  });
  for (int i = 0; i < 200; ++i) ch.put(i);
  consumer.join();
  EXPECT_EQ(sum, 199LL * 200 / 2);
}

// ---------------------------------------------------------------------------
// DistributedBarrier
// ---------------------------------------------------------------------------

struct BarrierRig {
  explicit BarrierRig(std::size_t n) : net(88) {
    for (std::size_t i = 0; i < n; ++i) {
      dapplets.push_back(
          std::make_unique<Dapplet>(net, "db" + std::to_string(i)));
      barriers.push_back(
          std::make_unique<DistributedBarrier>(*dapplets.back(), "b"));
    }
    std::vector<InboxRef> refs;
    for (auto& b : barriers) refs.push_back(b->ref());
    for (std::size_t i = 0; i < n; ++i) barriers[i]->attach(refs, i);
  }

  ~BarrierRig() {
    barriers.clear();
    for (auto& d : dapplets) d->stop();
  }

  SimNetwork net;
  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<DistributedBarrier>> barriers;
};

TEST(DistributedBarrier, SynchronizesAcrossDapplets) {
  constexpr std::size_t kMembers = 4;
  constexpr int kRounds = 10;
  BarrierRig rig(kMembers);
  std::vector<std::atomic<int>> counters(kRounds);
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kMembers; ++i) {
    threads.emplace_back([&, i] {
      for (int r = 0; r < kRounds; ++r) {
        ++counters[r];
        const auto gen = rig.barriers[i]->arriveAndWait(seconds(30));
        if (counters[r] != static_cast<int>(kMembers)) violated = true;
        if (gen != static_cast<std::uint64_t>(r)) violated = true;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violated) << "a member passed the barrier early";
}

TEST(DistributedBarrier, TimesOutWhenAMemberNeverArrives) {
  BarrierRig rig(2);
  EXPECT_THROW(rig.barriers[0]->arriveAndWait(milliseconds(200)),
               TimeoutError);
}

/// Two barrier members on a virtual clock, one per host, over a 20 ms link.
struct VirtualBarrierRig {
  VirtualBarrierRig() : net(testkit::testSeed(321), simOptions(clock)) {
    net.setDefaultLink(LinkParams{milliseconds(20)});
    for (std::uint32_t i = 0; i < 2; ++i) {
      DappletConfig cfg;
      cfg.host = i + 1;
      cfg.clock = &clock;
      dapplets.push_back(
          std::make_unique<Dapplet>(net, "vb" + std::to_string(i), cfg));
      barriers.push_back(
          std::make_unique<DistributedBarrier>(*dapplets.back(), "b"));
    }
    const std::vector<InboxRef> refs{barriers[0]->ref(), barriers[1]->ref()};
    for (std::size_t i = 0; i < 2; ++i) barriers[i]->attach(refs, i);
  }

  ~VirtualBarrierRig() {
    barriers.clear();
    for (auto& d : dapplets) d->stop();
  }

  static SimNetwork::Options simOptions(testkit::VirtualClock& clock) {
    SimNetwork::Options opts;
    opts.clock = &clock;
    return opts;
  }

  /// Runs arriveAndWait(timeout) on a spawned worker of member `i`; the
  /// future yields the virtual time it returned at, or its exception.
  std::future<TimePoint> arrive(std::size_t i, Duration timeout) {
    auto done = std::make_shared<std::promise<TimePoint>>();
    auto result = done->get_future();
    dapplets[i]->spawn([this, i, timeout, done](std::stop_token) {
      try {
        barriers[i]->arriveAndWait(timeout);
        done->set_value(clock.now());
      } catch (...) {
        done->set_exception(std::current_exception());
      }
    });
    return result;
  }

  testkit::VirtualClock clock;
  SimNetwork net;
  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<DistributedBarrier>> barriers;
};

// The barrier waits on the dapplet's clock, so virtual time advances to the
// RELEASE a round trip later instead of two spawned workers burning their
// whole timeout in wall time while virtual time stands still.
TEST(DistributedBarrier, ReleaseArrivesInVirtualTime) {
  VirtualBarrierRig rig;
  const Stopwatch wall;
  TimePoint start;
  std::future<TimePoint> a, b;
  {
    // Hold virtual time still from `start` until both workers are up.
    rig.clock.announceWorker();
    ClockSource::WorkerScope arming(rig.clock);
    start = rig.clock.now();
    a = rig.arrive(0, seconds(3));
    b = rig.arrive(1, seconds(3));
  }
  const TimePoint releasedA = a.get();
  const TimePoint releasedB = b.get();
  EXPECT_GE(releasedB - start, milliseconds(40));  // ARRIVE + RELEASE hops
  EXPECT_LT(releasedA - start, seconds(1));
  EXPECT_LT(releasedB - start, seconds(1));
  EXPECT_LT(wall.elapsed(), seconds(2));
}

// A member that never arrives: the other's timeout elapses in virtual
// time, at once on the wall.
TEST(DistributedBarrier, TimeoutElapsesInVirtualTime) {
  VirtualBarrierRig rig;
  const Stopwatch wall;
  TimePoint start;
  std::future<TimePoint> a;
  {
    rig.clock.announceWorker();
    ClockSource::WorkerScope arming(rig.clock);
    start = rig.clock.now();
    a = rig.arrive(0, seconds(3));
  }
  EXPECT_THROW(a.get(), TimeoutError);
  EXPECT_GE(rig.clock.now() - start, seconds(3));
  EXPECT_LT(wall.elapsed(), seconds(2));
}

// ---------------------------------------------------------------------------
// DistributedSingleAssignment
// ---------------------------------------------------------------------------

struct SavRig {
  explicit SavRig(std::size_t n) : net(99) {
    for (std::size_t i = 0; i < n; ++i) {
      dapplets.push_back(
          std::make_unique<Dapplet>(net, "sv" + std::to_string(i)));
      vars.push_back(std::make_unique<DistributedSingleAssignment>(
          *dapplets.back(), "v"));
    }
    std::vector<InboxRef> refs;
    for (auto& v : vars) refs.push_back(v->ref());
    for (std::size_t i = 0; i < n; ++i) vars[i]->attach(refs, i);
  }

  ~SavRig() {
    vars.clear();
    for (auto& d : dapplets) d->stop();
  }

  SimNetwork net;
  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<DistributedSingleAssignment>> vars;
};

TEST(DistributedSingleAssignment, SetPropagatesToAllMembers) {
  SavRig rig(3);
  EXPECT_FALSE(rig.vars[2]->isSet());
  EXPECT_TRUE(rig.vars[1]->set(Value("answer")));
  for (auto& var : rig.vars) {
    EXPECT_EQ(var->get(seconds(5)).asString(), "answer");
  }
}

TEST(DistributedSingleAssignment, ExactlyOneProposerWins) {
  SavRig rig(4);
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      if (rig.vars[i]->set(Value(static_cast<long long>(i)))) ++winners;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(winners.load(), 1) << "single assignment accepted twice";
  // Every member converged on the same winner value.
  const auto v0 = rig.vars[0]->get(seconds(5)).asInt();
  for (auto& var : rig.vars) {
    EXPECT_EQ(var->get(seconds(5)).asInt(), v0);
  }
}

TEST(DistributedSingleAssignment, GetTimesOutWhenNeverSet) {
  SavRig rig(2);
  EXPECT_THROW(rig.vars[0]->get(milliseconds(200)), TimeoutError);
}

}  // namespace
}  // namespace dapple
