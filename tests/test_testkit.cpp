// dapple::testkit: the virtual clock itself, plus fault-injection
// edge cases the fuzzer's oracles rely on — flow conservation under
// combined kill/killHost/partition sequences, and `Inbox::receiveFor`
// racing a concurrent close.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "dapple/core/dapplet.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/testkit/seed.hpp"
#include "dapple/testkit/virtual_clock.hpp"
#include "dapple/util/error.hpp"
#include "dapple/util/sync_queue.hpp"

namespace dapple {
namespace {

using testkit::VirtualClock;

// ---------------------------------------------------------------------------
// VirtualClock semantics
// ---------------------------------------------------------------------------

TEST(VirtualClock, ManualAdvanceMovesTimeAndFiresAlarms) {
  // The clock is declared after what its alarms touch, so it is destroyed
  // first.
  std::atomic<int> fired{0};
  VirtualClock::Options opts;
  opts.autoAdvance = false;
  VirtualClock clock(opts);
  const TimePoint start = clock.now();

  clock.after(milliseconds(10), [&] { fired = 1; });
  clock.after(milliseconds(30), [&] { fired = 2; });

  clock.advanceBy(milliseconds(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(clock.now() - start, milliseconds(5));

  clock.advanceBy(milliseconds(10));
  EXPECT_EQ(fired, 1);

  clock.advanceBy(milliseconds(100));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(clock.now() - start, milliseconds(115));
}

TEST(VirtualClock, SleepingWorkerDrivesAutoAdvance) {
  VirtualClock clock;
  const TimePoint start = clock.now();
  std::atomic<bool> woke{false};
  clock.announceWorker();
  std::thread worker([&] {
    ClockSource::WorkerScope scope(clock);
    clock.sleepFor(seconds(3600));  // an hour of virtual time, instantly
    woke = true;
  });
  worker.join();
  EXPECT_TRUE(woke);
  EXPECT_GE(clock.now() - start, seconds(3600));
}

TEST(VirtualClock, UnannouncedWorkerScopeThrows) {
  // Every begin consumes exactly one announcement.  A begin without one
  // would otherwise take the announcement of a thread still starting, and
  // the clock could run on before that thread registers.
  VirtualClock clock;
  EXPECT_THROW(ClockSource::WorkerScope scope(clock), Error);
  EXPECT_EQ(clock.workerCount(), 0u);

  // An announcement stays pending until a worker begins (the clock is
  // never quiescent meanwhile), and that begin leaves none for another.
  clock.announceWorker();
  EXPECT_FALSE(clock.settle(milliseconds(50)));
  std::promise<void> registered;
  std::promise<void> done;
  std::thread worker([&] {
    ClockSource::WorkerScope scope(clock);
    registered.set_value();
    done.get_future().wait();
  });
  registered.get_future().wait();
  EXPECT_THROW(ClockSource::WorkerScope scope(clock), Error);
  EXPECT_EQ(clock.workerCount(), 1u);
  done.set_value();
  worker.join();
  EXPECT_EQ(clock.workerCount(), 0u);
}

TEST(VirtualClock, RoutedNotifyWakesClockedWaitBeforeDeadline) {
  std::mutex m;
  std::condition_variable cv;
  bool ready = false;
  std::atomic<bool> satisfied{false};
  // Declared after what its alarm touches: the clock is destroyed first, so
  // its scheduler thread cannot still be notifying `cv` as `cv` goes.
  VirtualClock clock;

  // Announce first: the alarm below must not fire before the worker parks,
  // and the worker's 5-minute deadline must not be jumped to before the
  // alarm is registered.  With the worker announced, time is frozen until
  // it registers and parks; the alarm is then the earliest event.
  clock.announceWorker();
  clock.after(milliseconds(10), [&] {
    {
      std::scoped_lock lock(m);
      ready = true;
    }
    clock.notifyAll(cv);
  });
  std::thread worker([&] {
    ClockSource::WorkerScope scope(clock);
    std::unique_lock lock(m);
    satisfied = clock.waitFor(lock, cv, seconds(300), [&] { return ready; });
  });
  worker.join();
  EXPECT_TRUE(satisfied) << "wait must return via the predicate, not the "
                            "5-minute virtual deadline";
}

TEST(VirtualClock, GuestWaitsParkButNeverBlockAdvancement) {
  VirtualClock clock;
  // The test thread is a guest (never registered): its timed wait must be
  // satisfied by virtual-time advancement driven by the scheduler alone.
  std::mutex m;
  std::condition_variable cv;
  std::unique_lock lock(m);
  const TimePoint start = clock.now();
  const bool pred = clock.waitFor(lock, cv, seconds(30), [] { return false; });
  EXPECT_FALSE(pred);
  EXPECT_GE(clock.now() - start, seconds(30));
}

TEST(VirtualClock, SyncQueuePopForTimesOutInVirtualTime) {
  VirtualClock clock;
  SyncQueue<int> q;
  q.setClockSource(&clock);
  const TimePoint start = clock.now();
  EXPECT_FALSE(q.popFor(seconds(120)).has_value());
  EXPECT_GE(clock.now() - start, seconds(120));

  q.push(7);
  const auto got = q.popFor(seconds(120));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
}

// ---------------------------------------------------------------------------
// Equal deadlines: deliveries first, and only the clock's signal resumes
// ---------------------------------------------------------------------------

/// One datagram from host 1 to host 2 and one worker timer, both due 10 ms
/// from now.  The handler dawdles in real time (after `onDeliver`) to give
/// the timer every chance to overtake it; `order()` returns what ran first.
class SameInstant {
 public:
  explicit SameInstant(std::function<void(SameInstant&)> onDeliver)
      : net(1, [this] {
          SimNetwork::Options o;
          o.clock = &clock;
          return o;
        }()),
        from(net.openAt(1)),
        to(net.openAt(2)) {
    net.setDefaultLink(LinkParams{milliseconds(10), microseconds(0), 0.0, 0.0});
    to->setHandler([this, onDeliver](const NodeAddress&, std::string_view) {
      onDeliver(*this);
      std::this_thread::sleep_for(milliseconds(5));
      record("handler");
    });
    // Announced before the send: time stands still until the timer parks.
    clock.announceWorker();
    const TimePoint due = clock.now() + milliseconds(10);
    from->send(to->address(), "ping");
    timer = std::thread([this, due] {
      ClockSource::WorkerScope scope(clock);
      std::unique_lock lock(timerMutex);
      clock.waitUntil(lock, timerCv, due, [] { return false; });
      record("timer");
    });
  }

  ~SameInstant() {
    if (timer.joinable()) timer.join();
  }
  SameInstant(const SameInstant&) = delete;
  SameInstant& operator=(const SameInstant&) = delete;

  std::vector<std::string> order() {
    timer.join();
    std::unique_lock lock(mutex);
    EXPECT_TRUE(cv.wait_for(lock, seconds(5), [&] { return ran.size() == 2; }));
    return ran;
  }

  std::mutex timerMutex;
  std::condition_variable timerCv;

 private:
  void record(const char* what) {
    std::scoped_lock lock(mutex);
    ran.emplace_back(what);
    cv.notify_all();
  }

  VirtualClock clock;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::string> ran;
  SimNetwork net;
  std::shared_ptr<Endpoint> from;
  std::shared_ptr<Endpoint> to;
  std::thread timer;
};

TEST(VirtualClock, DeliveryDueWithATimerRunsFirst) {
  // At an instant where a datagram and a timer are both due, the delivery
  // thread resumes alone and the timer waits until its handler is done —
  // on every run, whatever order the OS would wake the two threads in.
  for (int run = 0; run < 10; ++run) {
    SameInstant rig([](SameInstant&) {});
    EXPECT_EQ(rig.order(), (std::vector<std::string>{"handler", "timer"}))
        << "run " << run;
  }
}

TEST(VirtualClock, RegisteredWaiterResumesOnlyOnTheClocksSignal) {
  // While the delivery runs, `now()` already equals the timer's deadline,
  // but the clock has not signalled the timer yet.  A waiter that looks at
  // its park predicate in that window — because it registered just as time
  // advanced past its deadline, or because a stray un-routed notify woke
  // it, as here — must go back to sleep until the clock signals it.
  for (int run = 0; run < 10; ++run) {
    SameInstant rig([](SameInstant& self) {
      {
        // Taking the timer's mutex guarantees it is parked in cv.wait.
        std::scoped_lock lock(self.timerMutex);
      }
      self.timerCv.notify_all();  // deliberately not routed via the clock
    });
    EXPECT_EQ(rig.order(), (std::vector<std::string>{"handler", "timer"}))
        << "run " << run;
  }
}

// ---------------------------------------------------------------------------
// Whole-stack virtual time
// ---------------------------------------------------------------------------

TEST(VirtualClock, DappletRoundTripRunsInVirtualTime) {
  VirtualClock clock;
  SimNetwork::Options netOpts;
  netOpts.clock = &clock;
  SimNetwork net(42, netOpts);
  net.setDefaultLink(LinkParams{milliseconds(100), microseconds(0), 0.0, 0.0});

  DappletConfig cfg;
  cfg.clock = &clock;
  Dapplet a(net, "a", cfg);
  Dapplet b(net, "b", cfg);
  Inbox& in = b.createInbox("in");
  Outbox& out = a.createOutbox();
  out.add(in.ref());

  const Stopwatch wall;
  const TimePoint start = clock.now();
  out.send(DataMessage("ping"));
  EXPECT_EQ(in.receiveAs<DataMessage>(seconds(10)).kind(), "ping");
  // 100ms of virtual link delay crossed, in (much) less than 100ms of wall
  // time: the clock jumped instead of sleeping.
  EXPECT_GE(clock.now() - start, milliseconds(100));
  EXPECT_LT(wall.elapsed(), milliseconds(100));
  a.stop();
  b.stop();
}

TEST(VirtualClock, RetransmitsBridgeLossWithoutWallClockSleeps) {
  const std::uint64_t seed = testkit::testSeed(4242);
  DAPPLE_SEED_TRACE(seed);
  VirtualClock clock;
  SimNetwork::Options netOpts;
  netOpts.clock = &clock;
  SimNetwork net(seed, netOpts);
  net.setDefaultLink(
      LinkParams{microseconds(300), microseconds(500), 0.25, 0.0});

  DappletConfig cfg;
  cfg.clock = &clock;
  cfg.reliable.tickInterval = milliseconds(2);
  cfg.reliable.rto = milliseconds(15);
  cfg.reliable.deliveryTimeout = seconds(10);
  Dapplet a(net, "a", cfg);
  Dapplet b(net, "b", cfg);
  Inbox& in = b.createInbox("in");
  Outbox& out = a.createOutbox();
  out.add(in.ref());

  constexpr int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    DataMessage m("n");
    m.set("i", Value(static_cast<long long>(i)));
    out.send(m);
  }
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(in.receiveAs<DataMessage>(seconds(30)).get("i").asInt(), i);
  }
  a.stop();
  b.stop();
}

// ---------------------------------------------------------------------------
// Satellite: flow conservation under combined fault primitives
// ---------------------------------------------------------------------------

TEST(SimFaults, FlowConservationUnderKillKillHostAndPartition) {
  const std::uint64_t seed = testkit::testSeed(97);
  DAPPLE_SEED_TRACE(seed);
  VirtualClock clock;
  SimNetwork::Options netOpts;
  netOpts.clock = &clock;
  SimNetwork net(seed, netOpts);
  net.setDefaultLink(
      LinkParams{microseconds(200), microseconds(400), 0.10, 0.05});

  DappletConfig cfg;
  cfg.clock = &clock;
  cfg.reliable.tickInterval = milliseconds(2);
  cfg.reliable.rto = milliseconds(10);
  cfg.reliable.deliveryTimeout = milliseconds(300);

  constexpr std::size_t kNodes = 4;
  std::vector<std::unique_ptr<Dapplet>> nodes;
  std::vector<Inbox*> inboxes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    cfg.host = static_cast<std::uint32_t>(i + 1);
    nodes.push_back(std::make_unique<Dapplet>(
        net, "k" + std::to_string(i), cfg));
    inboxes.push_back(&nodes.back()->createInbox("in"));
  }
  std::vector<Outbox*> outs;  // 0 -> everyone else
  for (std::size_t j = 1; j < kNodes; ++j) {
    Outbox& out = nodes[0]->createOutbox();
    out.add(inboxes[j]->ref());
    outs.push_back(&out);
  }

  const auto blast = [&] {
    for (int i = 0; i < 10; ++i) {
      for (Outbox* out : outs) {
        try {
          out->send(DataMessage("blast"));
        } catch (const Error&) {
          // dead streams are exactly what this test produces
        }
      }
      clock.sleepFor(milliseconds(5));
    }
  };

  blast();
  ASSERT_TRUE(net.kill(nodes[1]->address()));
  blast();
  net.setPartition(1, 3, true);
  blast();
  EXPECT_GE(net.killHost(3), 1u);
  blast();
  net.setPartition(1, 3, false);
  blast();

  // Let retransmissions and timeouts run dry, then check the identity the
  // fuzzer's oracle depends on (documented at sim.hpp): every datagram is
  // accounted for even with kills, a killed host, and a partition that
  // opened and healed mid-traffic.
  for (std::size_t i = 0; i < kNodes; ++i) nodes[i]->stop();
  ASSERT_TRUE(net.awaitQuiescent(seconds(30)));
  const obs::MetricsSnapshot sim = net.metrics();
  EXPECT_EQ(sim.counters.at("sim.delivered") +
                sim.counters.at("sim.undeliverable"),
            sim.counters.at("sim.sent") - sim.counters.at("sim.dropped") +
                sim.counters.at("sim.duplicated"));
  EXPECT_GT(sim.counters.at("sim.undeliverable"), 0u)
      << "kill/killHost must strand some datagrams";
}

// ---------------------------------------------------------------------------
// Satellite: receiveFor racing a concurrent close
// ---------------------------------------------------------------------------

TEST(InboxClose, ReceiveForRacingCloseNeverHangsOrCrashes) {
  // A blocked receiveFor whose inbox is destroyed underneath it must either
  // return a delivery, return nullopt, or throw ShutdownError — promptly,
  // never a hang or a crash.  Repeat the race many times; under virtual
  // time each iteration costs no wall-clock sleeps.
  for (int iteration = 0; iteration < 25; ++iteration) {
    VirtualClock clock;
    SimNetwork::Options netOpts;
    netOpts.clock = &clock;
    SimNetwork net(7000 + static_cast<std::uint64_t>(iteration), netOpts);
    DappletConfig cfg;
    cfg.clock = &clock;
    Dapplet d(net, "r", cfg);
    Inbox& in = d.createInbox("in");

    std::atomic<int> outcome{-1};  // 0 nullopt, 1 delivery, 2 shutdown
    clock.announceWorker();
    std::thread receiver([&] {
      ClockSource::WorkerScope scope(clock);
      try {
        outcome = in.receiveFor(seconds(60)).has_value() ? 1 : 0;
      } catch (const ShutdownError&) {
        outcome = 2;
      }
    });
    // Vary the interleaving: sometimes close before the receiver even
    // parks, sometimes after it is deep in the timed wait.
    if (iteration % 3 != 0) {
      clock.settle(seconds(5));
      clock.sleepFor(milliseconds(iteration));
    }
    d.destroyInbox(in);
    receiver.join();
    EXPECT_NE(outcome, -1);
    EXPECT_TRUE(outcome == 0 || outcome == 2)
        << "nothing was sent, so the receiver saw outcome " << outcome;
    d.stop();
  }
}

}  // namespace
}  // namespace dapple
