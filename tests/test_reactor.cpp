// Reactor runtime: event-loop pool + hashed timer wheel.  These tests pin
// the scheduling semantics the async dapplet API is built on — tick
// quantization (zero-delay fires next tick), self-cancel from inside a
// callback, fixed-rate periodic re-arm, wheel cascades past one revolution
// — and run the whole stack event-driven: dapplets on a shared reactor,
// retransmission ticks on the wheel, deliveries through Inbox::onMessage,
// and every service's dispatch on the dapplet's reactor.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dapple/core/dapplet.hpp"
#include "dapple/core/reactor.hpp"
#include "dapple/core/rpc.hpp"
#include "dapple/core/session.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/services/clocks/total_order.hpp"
#include "dapple/services/liveness/liveness.hpp"
#include "dapple/services/sync/distributed.hpp"
#include "dapple/services/tokens/token_manager.hpp"
#include "dapple/testkit/seed.hpp"
#include "dapple/testkit/virtual_clock.hpp"
#include "dapple/util/time.hpp"

namespace dapple {
namespace {

Reactor::Options onClock(testkit::VirtualClock& clock, unsigned threads = 1) {
  Reactor::Options opts;
  opts.threads = threads;
  opts.clock = &clock;
  return opts;
}

TEST(Reactor, PostRunsTaskOnLoopThread) {
  Reactor reactor;
  std::promise<std::thread::id> ran;
  reactor.post([&] { ran.set_value(std::this_thread::get_id()); });
  EXPECT_NE(ran.get_future().get(), std::this_thread::get_id());
  EXPECT_GE(reactor.stats().tasksRun, 1u);
}

TEST(Reactor, ThreadCountDefaultsAndClamps) {
  Reactor::Options one;
  one.threads = 1;
  EXPECT_EQ(Reactor(one).threadCount(), 1u);
  Reactor def;  // 0 selects hardware_concurrency (>= 1)
  EXPECT_GE(def.threadCount(), 1u);
}

// A zero-delay timer is quantized UP to the next wheel tick: it fires at
// exactly start + one granule of virtual time, never "immediately".
TEST(Reactor, ZeroDelayTimerFiresOnNextTick) {
  testkit::VirtualClock clock;
  Reactor reactor(onClock(clock));
  std::promise<TimePoint> fired;
  TimePoint start;
  {
    // Main is a clock guest: once the loop thread parks, virtual time can
    // advance between our statements.  Hold a worker scope so the `start`
    // capture and the arm happen at the same virtual instant.  Announce
    // first — announce/begin pairing is a counter, and an unannounced
    // begin on main would consume a spawning thread's pending announce.
    clock.announceWorker();
    ClockSource::WorkerScope arming(clock);
    start = clock.now();
    reactor.after(Duration::zero(), [&] { fired.set_value(clock.now()); });
  }
  EXPECT_EQ(fired.get_future().get(), start + milliseconds(1));
}

// Two timers due on the same tick of the same loop fire in arming order
// (the wheel sorts same-tick timers by sequence number).
TEST(Reactor, SameTickTimersFireInArmingOrder) {
  testkit::VirtualClock clock;
  Reactor reactor(onClock(clock, 1));
  std::mutex m;
  std::vector<int> order;
  std::promise<void> both;
  auto record = [&](int id) {
    std::scoped_lock lock(m);
    order.push_back(id);
    if (order.size() == 2) both.set_value();
  };
  {
    // Both timers must land on the same tick, so arm them at one instant.
    clock.announceWorker();  // see ZeroDelayTimerFiresOnNextTick
    ClockSource::WorkerScope arming(clock);
    reactor.after(milliseconds(3), [&, record] { record(1); });
    reactor.after(milliseconds(3), [&, record] { record(2); });
  }
  both.get_future().wait();
  std::scoped_lock lock(m);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// A periodic timer re-arms at fixed rate: firings land at exact multiples
// of the period in virtual time, with no drift and no bunching.
TEST(Reactor, PeriodicReArmsAtFixedRateUnderVirtualClock) {
  testkit::VirtualClock clock;
  Reactor reactor(onClock(clock));
  TimePoint start;
  std::mutex m;
  std::vector<TimePoint> fires;
  std::promise<void> enough;
  Reactor::TimerHandle handle;
  {
    // The worker scope pins virtual time while we arm, which also orders
    // the `handle` assignment before the first firing can read it to
    // self-cancel (the callback only runs after time advances).
    clock.announceWorker();  // see ZeroDelayTimerFiresOnNextTick
    ClockSource::WorkerScope arming(clock);
    start = clock.now();
    handle = reactor.every(milliseconds(10), [&] {
      std::scoped_lock lock(m);
      fires.push_back(clock.now());
      if (fires.size() == 5) {
        handle.cancel();  // self-cancel: periodic must not re-arm after this
        enough.set_value();
      }
    });
  }
  enough.get_future().wait();
  // Let several more periods elapse: the cancelled timer must stay silent.
  clock.sleepFor(milliseconds(50));
  std::scoped_lock lock(m);
  ASSERT_EQ(fires.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(fires[i], start + milliseconds(10) * (i + 1)) << "firing " << i;
  }
  EXPECT_FALSE(handle.active());
  EXPECT_GE(reactor.stats().timersCancelled, 1u);
}

// Deadlines past one wheel revolution cascade correctly: a slot holds
// timers many revolutions out, and each fires on its own revolution — at
// the exact deadline, not a revolution early.
TEST(Reactor, WheelCascadePastOneRevolution) {
  testkit::VirtualClock clock;
  Reactor reactor(onClock(clock));  // 256 slots: one revolution = 256 ms
  // 96 ms (inside the ring), 256 ms (exactly one revolution), 352 ms (same
  // slot as 96 ms, next revolution), 640 ms (2.5 revolutions), 2048 ms (8
  // of them).
  const std::vector<int> delaysMs = {96, 256, 352, 640, 2048};
  std::mutex m;
  std::vector<std::pair<int, TimePoint>> fires;
  std::promise<void> all;
  TimePoint start;
  {
    // All five deadlines must be relative to one instant; without the
    // worker scope the loop thread parks after the first arm and virtual
    // time advances between iterations of this loop.
    clock.announceWorker();  // see ZeroDelayTimerFiresOnNextTick
    ClockSource::WorkerScope arming(clock);
    start = clock.now();
    for (int d : delaysMs) {
      reactor.after(milliseconds(d), [&, d] {
        std::scoped_lock lock(m);
        fires.emplace_back(d, clock.now());
        if (fires.size() == delaysMs.size()) all.set_value();
      });
    }
  }
  all.get_future().wait();
  std::scoped_lock lock(m);
  ASSERT_EQ(fires.size(), delaysMs.size());
  for (std::size_t i = 0; i < delaysMs.size(); ++i) {
    EXPECT_EQ(fires[i].first, delaysMs[i]) << "firing order at " << i;
    EXPECT_EQ(fires[i].second, start + milliseconds(delaysMs[i]))
        << "deadline of " << delaysMs[i] << " ms timer";
  }
}

// cancel() from OUTSIDE the callback waits for an in-flight invocation: the
// moment it returns, the callback is guaranteed to never run again.
TEST(Reactor, CancelFromOutsideWaitsForInflightCallback) {
  Reactor::Options opts;
  opts.threads = 1;
  Reactor reactor(opts);
  std::promise<void> started;
  std::atomic<bool> finished{false};
  Reactor::TimerHandle handle = reactor.after(milliseconds(1), [&] {
    started.set_value();
    std::this_thread::sleep_for(milliseconds(100));
    finished.store(true);
  });
  started.get_future().wait();  // callback is now mid-flight
  handle.cancel();
  EXPECT_TRUE(finished.load())
      << "cancel() returned while the callback was still running";
  EXPECT_FALSE(handle.active());
}

TEST(Reactor, CancelBeforeFirePreventsCallback) {
  testkit::VirtualClock clock;
  Reactor reactor(onClock(clock));
  std::atomic<bool> fired{false};
  Reactor::TimerHandle handle;
  {
    // Pin virtual time across arm + cancel: as a guest, main can lose 5ms
    // (and the race) to auto-advance between the two calls.
    clock.announceWorker();  // see ZeroDelayTimerFiresOnNextTick
    ClockSource::WorkerScope arming(clock);
    handle = reactor.after(milliseconds(5), [&] { fired.store(true); });
    EXPECT_TRUE(handle.active());
    handle.cancel();
  }
  EXPECT_FALSE(handle.active());
  clock.sleepFor(milliseconds(20));
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(reactor.stats().timersPending, 0u);
}

TEST(Reactor, StopDropsPendingTimersAndTasks) {
  Reactor reactor;
  std::atomic<bool> fired{false};
  Reactor::TimerHandle handle =
      reactor.after(std::chrono::hours(1), [&] { fired.store(true); });
  EXPECT_TRUE(handle.active());
  reactor.stop();
  EXPECT_FALSE(handle.active());
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(reactor.stats().timersPending, 0u);
  handle.cancel();  // after stop: still safe, still idempotent
}

// A throwing callback is contained: the loop logs, survives, and keeps
// serving later timers.
TEST(Reactor, CallbackExceptionDoesNotKillLoop) {
  testkit::VirtualClock clock;
  Reactor reactor(onClock(clock, 1));
  std::promise<void> survived;
  reactor.after(milliseconds(1), [] { throw Error("boom"); });
  reactor.after(milliseconds(2), [&] { survived.set_value(); });
  survived.get_future().wait();
  EXPECT_EQ(reactor.stats().timersFired, 2u);
}

// === the async dapplet surface =============================================

DappletConfig reactorConfig(testkit::VirtualClock& clock, Reactor& reactor,
                            std::uint32_t host) {
  DappletConfig cfg;
  cfg.host = host;
  cfg.clock = &clock;
  cfg.runtime.reactor = &reactor;
  return cfg;
}

// Full event-driven stack: two dapplets share one reactor, the receiver
// takes deliveries through Inbox::onMessage (no blocked thread), and the
// sender's retransmission ticks run on the wheel — proven by making the
// link lossy, so nothing arrives without wheel-driven resends.
TEST(ReactorDapplet, OnMessageDeliversInOrderOverLossyLink) {
  const std::uint64_t seed = testkit::testSeed(4242);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  Reactor reactor(onClock(clock, 2));
  SimNetwork::Options simOpts;
  simOpts.clock = &clock;
  SimNetwork net(seed, simOpts);
  net.setDefaultLink(LinkParams{microseconds(200), microseconds(500),
                                /*loss=*/0.15, /*dup=*/0.05});

  Dapplet sender(net, "sender", reactorConfig(clock, reactor, 1));
  Dapplet receiver(net, "receiver", reactorConfig(clock, reactor, 2));

  Inbox& in = receiver.createInbox("sink");
  std::mutex m;
  std::vector<long long> got;
  std::promise<void> all;
  constexpr int kCount = 50;
  in.onMessage([&](Delivery del) {
    const auto* msg = dynamic_cast<const DataMessage*>(del.message.get());
    ASSERT_NE(msg, nullptr);
    std::scoped_lock lock(m);
    got.push_back(msg->get("i").asInt());
    if (got.size() == kCount) all.set_value();
  });

  Outbox& out = sender.createOutbox();
  out.add(in.ref());
  for (int i = 0; i < kCount; ++i) {
    DataMessage msg("swarm.item");
    msg.set("i", Value(static_cast<long long>(i)));
    out.send(msg);
  }
  all.get_future().wait();
  std::scoped_lock lock(m);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(got[i], i) << "FIFO order broken at " << i;
  }
}

// onMessage(nullptr) is a synchronous uninstall barrier, and messages
// arriving afterwards stay queued for blocking receives.
TEST(ReactorDapplet, HandlerUninstallIsABarrier) {
  testkit::VirtualClock clock;
  Reactor reactor(onClock(clock));
  SimNetwork::Options simOpts;
  simOpts.clock = &clock;
  SimNetwork net(testkit::testSeed(7), simOpts);
  Dapplet d(net, "solo", reactorConfig(clock, reactor, 1));
  Inbox& in = d.createInbox("ctl");
  Outbox& out = d.createOutbox();
  out.add(in.ref());

  std::atomic<int> handled{0};
  in.onMessage([&](Delivery) { handled.fetch_add(1); });
  out.send(DataMessage("first"));
  while (handled.load() == 0) clock.sleepFor(milliseconds(1));
  in.onMessage(nullptr);
  EXPECT_FALSE(in.hasHandler());

  out.send(DataMessage("second"));
  ASSERT_TRUE(d.flush(seconds(5)));
  auto del = in.receiveFor(seconds(1));
  ASSERT_TRUE(del.has_value());
  EXPECT_EQ(handled.load(), 1);
}

// onMessage from inside the handler can never be honored — removal is a
// barrier on the very invocation making the call — so it fails loudly with
// Error instead of deadlocking on the barrier.
TEST(ReactorDapplet, ReentrantOnMessageThrows) {
  testkit::VirtualClock clock;
  Reactor reactor(onClock(clock));
  SimNetwork::Options simOpts;
  simOpts.clock = &clock;
  SimNetwork net(testkit::testSeed(11), simOpts);
  Dapplet d(net, "reent", reactorConfig(clock, reactor, 1));
  Inbox& in = d.createInbox("ctl");
  Outbox& out = d.createOutbox();
  out.add(in.ref());

  std::atomic<bool> threw{false};
  in.onMessage([&](Delivery) {
    try {
      in.onMessage(nullptr);
    } catch (const Error&) {
      threw.store(true);
    }
  });
  out.send(DataMessage("poke"));
  while (!threw.load()) clock.sleepFor(milliseconds(1));
  in.onMessage(nullptr);  // from outside the handler: still works
  EXPECT_FALSE(in.hasHandler());
}

// Without a configured reactor every dapplet owns a one-loop reactor on its
// clock from construction: it paces the reliable tick and runs after(),
// every() and inbox handlers, and stop() shuts it down.
TEST(ReactorDapplet, OwnedReactorRunsFromConstructionAndStopsWithDapplet) {
  testkit::VirtualClock clock;
  // Time stands still until `holdTime` ends: the reliable tick cannot be
  // off the wheel, firing, while the stats are read, and `start` and the
  // arm below share one instant.
  clock.announceWorker();
  std::optional<ClockSource::WorkerScope> holdTime(std::in_place, clock);
  SimNetwork::Options simOpts;
  simOpts.clock = &clock;
  SimNetwork net(testkit::testSeed(9), simOpts);
  DappletConfig cfg;
  cfg.clock = &clock;
  Dapplet d(net, "owned", cfg);
  EXPECT_EQ(d.reactor().threadCount(), 1u);
  EXPECT_EQ(&d.reactor().clock(), static_cast<ClockSource*>(&clock));
  EXPECT_EQ(d.reactor().stats().timersPending, 1u);  // the reliable tick

  std::promise<TimePoint> fired;
  const TimePoint start = clock.now();
  d.after(milliseconds(4), [&] { fired.set_value(clock.now()); });
  holdTime.reset();
  EXPECT_EQ(fired.get_future().get(), start + milliseconds(4));
  d.stop();  // must also stop the owned reactor without deadlock
  EXPECT_FALSE(d.after(milliseconds(1), [] {}).active());
}

// === one runtime: services on the reactor ==================================

/// Live OS threads of this process.
std::size_t osThreads() {
  std::size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

/// The services a typical session member runs, on one dapplet.
struct ServiceHost {
  explicit ServiceHost(Dapplet& d)
      : agent(d), monitor(d), rpc(d), tokens(d) {
    tokens.attach({tokens.ref()}, 0, {{"gold", 1}});
  }
  SessionAgent agent;
  LivenessMonitor monitor;
  RpcServer rpc;
  TokenManager tokens;
};

// Every service handles its inbox on the dapplet's reactor, so a
// default-config dapplet hosting an agent, a monitor, an RPC server and an
// attached token manager costs one thread — its reactor loop.
TEST(OneRuntime, DefaultDappletWithServicesAddsOneThread) {
  SimNetwork net(testkit::testSeed(17));
  const std::size_t before = osThreads();
  {
    Dapplet d(net, "host");
    ServiceHost services(d);
    EXPECT_EQ(osThreads(), before + 1);
  }
  EXPECT_EQ(osThreads(), before);
}

// The ordering layer starts no thread of its own: a standalone endpoint is
// ticked by its owner, as a dapplet ticks its endpoint from its reactor.
TEST(OneRuntime, StandaloneReliableEndpointsAddNoThread) {
  SimNetwork net(testkit::testSeed(19));
  const std::size_t before = osThreads();
  {
    ReliableEndpoint a(net.open());
    ReliableEndpoint b(net.open());
    EXPECT_EQ(osThreads(), before);
  }
  EXPECT_EQ(osThreads(), before);
}

// On a shared reactor the same dapplet adds no thread at all.
TEST(OneRuntime, SharedReactorDappletWithServicesAddsNoThread) {
  SimNetwork net(testkit::testSeed(18));
  Reactor::Options opts;
  opts.threads = 1;
  Reactor reactor(opts);
  const std::size_t before = osThreads();
  DappletConfig cfg;
  cfg.runtime.reactor = &reactor;
  Dapplet d(net, "host", cfg);
  {
    ServiceHost services(d);
    EXPECT_EQ(osThreads(), before);
  }
  d.stop();
}

/// Runs `call` on a spawned worker of `d`, stops `d` from another thread
/// once the call is blocked, and reports how the call ended — "shutdown"
/// for the ShutdownError every blocked service caller must get — or
/// "not prompt" when it had not ended 5 s (wall) after the stop began.
std::string stopWhileBlocked(Dapplet& d, const std::function<void()>& call) {
  std::atomic<bool> entered{false};
  std::promise<std::string> outcome;
  d.spawn([&](std::stop_token) {
    entered = true;
    try {
      call();
      outcome.set_value("returned");
    } catch (const ShutdownError&) {
      outcome.set_value("shutdown");
    } catch (const std::exception& e) {
      outcome.set_value(e.what());
    }
  });
  while (!entered) std::this_thread::sleep_for(milliseconds(1));
  std::this_thread::sleep_for(milliseconds(50));  // let it park in the call
  std::thread stopper([&d] { d.stop(); });
  auto result = outcome.get_future();
  const bool prompt =
      result.wait_for(seconds(5)) == std::future_status::ready;
  stopper.join();
  return prompt ? result.get() : "not prompt";
}

/// One dapplet (host 1) with a barrier whose other member never arrives, a
/// total-order group nobody publishes to, and a token manager whose only
/// token is already held: each service call below blocks until the stop.
struct BlockedServices {
  explicit BlockedServices(ClockSource* clock)
      : net(testkit::testSeed(19), simOptions(clock)),
        d(net, "blocked", config(clock, 1)),
        peer(net, "peer", config(clock, 2)),
        barrier(d, "b"),
        peerBarrier(peer, "b"),
        group(d, "g"),
        tokens(d) {
    const std::vector<InboxRef> members{peerBarrier.ref(), barrier.ref()};
    barrier.attach(members, 1);
    peerBarrier.attach(members, 0);
    group.attach({group.ref()}, 0);
    tokens.attach({tokens.ref()}, 0, {{"gold", 1}});
    tokens.request({{"gold", 1}}, seconds(30));  // held by the test thread
  }

  static SimNetwork::Options simOptions(ClockSource* clock) {
    SimNetwork::Options opts;
    opts.clock = clock;
    return opts;
  }
  static DappletConfig config(ClockSource* clock, std::uint32_t host) {
    DappletConfig cfg;
    cfg.host = host;
    cfg.clock = clock;
    return cfg;
  }

  SimNetwork net;
  Dapplet d;
  Dapplet peer;
  DistributedBarrier barrier;
  DistributedBarrier peerBarrier;
  TotalOrderGroup group;
  TokenManager tokens;
};

TEST(OneRuntime, BlockedServiceCallersGetShutdownErrorOnSystemClock) {
  for (int which = 0; which < 3; ++which) {
    SCOPED_TRACE(which);
    BlockedServices rig(nullptr);
    const std::function<void()> calls[] = {
        [&] { rig.tokens.request({{"gold", 1}}, seconds(30)); },
        [&] { rig.barrier.arriveAndWait(seconds(30)); },
        [&] { rig.group.take(seconds(30)); },
    };
    EXPECT_EQ(stopWhileBlocked(rig.d, calls[which]), "shutdown");
  }
}

// Under a virtual clock the test thread holds time still, so the stop lands
// at the very instant the call blocked: the ShutdownError comes from the
// stop, not from a timeout elapsing in virtual time.
TEST(OneRuntime, BlockedServiceCallersGetShutdownErrorOnVirtualClock) {
  for (int which = 0; which < 3; ++which) {
    SCOPED_TRACE(which);
    testkit::VirtualClock clock;
    BlockedServices rig(&clock);
    const std::function<void()> calls[] = {
        [&] { rig.tokens.request({{"gold", 1}}, seconds(30)); },
        [&] { rig.barrier.arriveAndWait(seconds(30)); },
        [&] { rig.group.take(seconds(30)); },
    };
    clock.announceWorker();  // see ZeroDelayTimerFiresOnNextTick
    ClockSource::WorkerScope holdTime(clock);
    const TimePoint start = clock.now();
    EXPECT_EQ(stopWhileBlocked(rig.d, calls[which]), "shutdown");
    EXPECT_EQ(clock.now(), start);
  }
}

}  // namespace
}  // namespace dapple
