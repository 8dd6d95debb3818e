// Tests for the reliable ordering layer: FIFO delivery under loss, jitter
// and duplication; delivery-timeout exceptions; flushing; stream isolation;
// ack coalescing (delay/threshold flushes, dup-ack suppression).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "dapple/core/reactor.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/reliable/reliable.hpp"
#include "dapple/testkit/virtual_clock.hpp"
#include "dapple/util/error.hpp"

namespace dapple {
namespace {

/// Collects deliveries per stream.  Waits and wake-ups go through `clock`,
/// so a test thread that is a clock worker waits in virtual time.
struct OrderedSink {
  explicit OrderedSink(ClockSource& clock = ClockSource::system())
      : clock(clock) {}

  ClockSource& clock;
  std::mutex mutex;
  std::condition_variable cv;
  // stream id -> payloads in delivery order
  std::map<std::uint64_t, std::vector<std::string>> streams;

  ReliableEndpoint::DeliverFn fn() {
    return [this](const NodeAddress&, std::uint64_t streamId,
                  std::string_view payload) {
      std::scoped_lock lock(mutex);
      streams[streamId].emplace_back(payload);  // view dies with the call
      clock.notifyAll(cv);
    };
  }

  bool waitFor(std::uint64_t streamId, std::size_t n, Duration timeout) {
    std::unique_lock lock(mutex);
    return clock.waitFor(lock, cv, timeout,
                         [&] { return streams[streamId].size() >= n; });
  }

  std::vector<std::string> get(std::uint64_t streamId) {
    std::scoped_lock lock(mutex);
    return streams[streamId];
  }
};

ReliableConfig fastConfig() {
  ReliableConfig cfg;
  cfg.tickInterval = milliseconds(2);
  cfg.rto = milliseconds(10);
  cfg.maxRto = milliseconds(80);
  cfg.deliveryTimeout = seconds(2);
  return cfg;
}

/// Paces the endpoints' retransmission scans as a dapplet does: a one-loop
/// reactor on their clock (null: the system clock) ticks each of them every
/// `interval`.  Declare it after the endpoints, so that it stops first.
std::unique_ptr<Reactor> tickEvery(
    Duration interval, std::initializer_list<ReliableEndpoint*> endpoints,
    ClockSource* clock = nullptr) {
  Reactor::Options opts;
  opts.threads = 1;
  opts.clock = clock;
  auto reactor = std::make_unique<Reactor>(opts);
  for (ReliableEndpoint* endpoint : endpoints) {
    reactor->every(interval, [endpoint] { endpoint->tick(); });
  }
  return reactor;
}

TEST(Reliable, InOrderDeliveryOnCleanLink) {
  SimNetwork net(1);
  ReliableEndpoint a(net.open(), fastConfig());
  ReliableEndpoint b(net.open(), fastConfig());
  const auto ticks = tickEvery(fastConfig().tickInterval, {&a, &b});
  OrderedSink sink;
  b.setDeliver(sink.fn());
  for (int i = 0; i < 100; ++i) {
    a.send(b.address(), 7, std::to_string(i));
  }
  ASSERT_TRUE(sink.waitFor(7, 100, seconds(5)));
  const auto got = sink.get(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[i], std::to_string(i));
  EXPECT_TRUE(a.flush(seconds(2)));
}

/// The paper's key guarantee: "messages are delivered in the order they
/// were sent" even though the network below loses, delays, and duplicates.
class ReliableUnderAdversity
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(ReliableUnderAdversity, FifoPreservedAndComplete) {
  const auto [loss, dup, jitterUs] = GetParam();
  SimNetwork net(1234);
  net.setDefaultLink(LinkParams{microseconds(50), microseconds(jitterUs),
                                loss, dup});
  ReliableEndpoint a(net.open(), fastConfig());
  ReliableEndpoint b(net.open(), fastConfig());
  const auto ticks = tickEvery(fastConfig().tickInterval, {&a, &b});
  OrderedSink sink;
  b.setDeliver(sink.fn());

  constexpr int kCount = 150;
  for (int i = 0; i < kCount; ++i) {
    a.send(b.address(), 1, std::to_string(i));
  }
  ASSERT_TRUE(sink.waitFor(1, kCount, seconds(20)))
      << "only " << sink.get(1).size() << " of " << kCount << " arrived";
  const auto got = sink.get(1);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCount))
      << "duplicates leaked through";
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(got[i], std::to_string(i)) << "order violated at " << i;
  }
  EXPECT_TRUE(a.flush(seconds(10)));
}

INSTANTIATE_TEST_SUITE_P(
    LossDupJitter, ReliableUnderAdversity,
    ::testing::Values(std::make_tuple(0.0, 0.0, 0),
                      std::make_tuple(0.01, 0.0, 500),
                      std::make_tuple(0.05, 0.0, 1000),
                      std::make_tuple(0.10, 0.0, 2000),
                      std::make_tuple(0.0, 0.2, 1000),
                      std::make_tuple(0.05, 0.1, 2000),
                      std::make_tuple(0.20, 0.2, 3000)));

TEST(Reliable, StreamsAreIndependentFifos) {
  SimNetwork net(2);
  net.setDefaultLink(
      LinkParams{microseconds(100), microseconds(1000), 0.02, 0.0});
  ReliableEndpoint a(net.open(), fastConfig());
  ReliableEndpoint b(net.open(), fastConfig());
  const auto ticks = tickEvery(fastConfig().tickInterval, {&a, &b});
  OrderedSink sink;
  b.setDeliver(sink.fn());
  for (int i = 0; i < 50; ++i) {
    a.send(b.address(), 1, "s1-" + std::to_string(i));
    a.send(b.address(), 2, "s2-" + std::to_string(i));
  }
  ASSERT_TRUE(sink.waitFor(1, 50, seconds(10)));
  ASSERT_TRUE(sink.waitFor(2, 50, seconds(10)));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sink.get(1)[i], "s1-" + std::to_string(i));
    EXPECT_EQ(sink.get(2)[i], "s2-" + std::to_string(i));
  }
}

TEST(Reliable, RetransmitsAreCounted) {
  SimNetwork net(3);
  net.setDefaultLink(LinkParams{microseconds(0), microseconds(0), 0.3, 0.0});
  ReliableEndpoint a(net.open(), fastConfig());
  ReliableEndpoint b(net.open(), fastConfig());
  const auto ticks = tickEvery(fastConfig().tickInterval, {&a, &b});
  OrderedSink sink;
  b.setDeliver(sink.fn());
  for (int i = 0; i < 50; ++i) a.send(b.address(), 1, "x");
  ASSERT_TRUE(sink.waitFor(1, 50, seconds(10)));
  EXPECT_GT(a.stats().retransmits, 0u);
  EXPECT_GT(b.stats().acksSent, 0u);
}

TEST(Reliable, DeliveryTimeoutFailsStreamAndThrowsOnNextSend) {
  SimNetwork net(4);
  auto rawA = net.open();
  const NodeAddress aAddr = rawA->address();
  ReliableConfig cfg = fastConfig();
  cfg.deliveryTimeout = milliseconds(150);
  ReliableEndpoint a(std::move(rawA), cfg);
  const auto ticks = tickEvery(cfg.tickInterval, {&a});

  // Destination doesn't exist: frames vanish, the timeout must fire.
  std::mutex mutex;
  std::condition_variable cv;
  bool failed = false;
  std::string reason;
  a.setOnFailure([&](const NodeAddress&, std::uint64_t,
                     const std::string& why) {
    std::scoped_lock lock(mutex);
    failed = true;
    reason = why;
    cv.notify_all();
  });
  const NodeAddress ghost{99, 99};
  a.send(ghost, 5, "into the void");
  {
    std::unique_lock lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, seconds(5), [&] { return failed; }));
  }
  EXPECT_NE(reason.find("timeout"), std::string::npos);
  EXPECT_THROW(a.send(ghost, 5, "again"), DeliveryError);
  // Other streams to the same node are unaffected.
  EXPECT_NO_THROW(a.send(ghost, 6, "different stream"));
  // resetStream clears the failure.
  a.resetStream(ghost, 5);
  EXPECT_NO_THROW(a.send(ghost, 5, "after reset"));
  (void)aAddr;
}

TEST(Reliable, FlushTimesOutWhenPeerUnreachable) {
  SimNetwork net(5);
  ReliableEndpoint a(net.open(), fastConfig());
  const auto ticks = tickEvery(fastConfig().tickInterval, {&a});
  a.send(NodeAddress{50, 50}, 1, "unreachable");
  EXPECT_FALSE(a.flush(milliseconds(100)));
}

TEST(Reliable, SendAfterCloseThrows) {
  SimNetwork net(6);
  ReliableEndpoint a(net.open(), fastConfig());
  a.close();
  EXPECT_THROW(a.send(NodeAddress{1, 1}, 1, "x"), ShutdownError);
}

TEST(Reliable, LargePayloadSurvives) {
  SimNetwork net(7);
  net.setDefaultLink(LinkParams{microseconds(10), microseconds(100), 0.05,
                                0.0});
  ReliableEndpoint a(net.open(), fastConfig());
  ReliableEndpoint b(net.open(), fastConfig());
  const auto ticks = tickEvery(fastConfig().tickInterval, {&a, &b});
  OrderedSink sink;
  b.setDeliver(sink.fn());
  std::string big(30000, 'q');
  big += "END";
  a.send(b.address(), 1, big);
  ASSERT_TRUE(sink.waitFor(1, 1, seconds(10)));
  EXPECT_EQ(sink.get(1)[0], big);
}

// ---------------------------------------------------------------------------
// Ack coalescing (virtual clock: flush scheduling is deterministic-time)
// ---------------------------------------------------------------------------

namespace {
/// Announces the calling thread as a clock worker-to-be; pass the result
/// straight to its WorkerScope.
ClockSource& announced(ClockSource& clock) {
  clock.announceWorker();
  return clock;
}

/// Two reliable endpoints over a virtual-time SimNetwork.  The test thread
/// is a clock worker for the rig's life, so virtual time moves only while
/// it waits on the clock.
struct VirtualPair {
  testkit::VirtualClock clock;
  const ClockSource::WorkerScope mainIsWorker{announced(clock)};
  SimNetwork net;
  ReliableEndpoint a;
  ReliableEndpoint b;
  const std::unique_ptr<Reactor> ticks;

  explicit VirtualPair(std::uint64_t seed, ReliableConfig cfg,
                       LinkParams link = LinkParams{microseconds(50),
                                                    microseconds(0), 0.0,
                                                    0.0})
      : net(seed,
            [this] {
              SimNetwork::Options o;
              o.clock = &clock;
              return o;
            }()),
        a((net.setDefaultLink(link), net.open()), cfg, nullptr, &clock),
        b(net.open(), cfg, nullptr, &clock),
        ticks(tickEvery(cfg.tickInterval, {&a, &b}, &clock)) {}
};
}  // namespace

TEST(ReliableAcks, CoalescingCutsAckDatagramsOnBurst) {
  ReliableConfig cfg = fastConfig();
  cfg.ackPiggyback = false;  // isolate the threshold/delay machinery
  VirtualPair pair(41, cfg);
  OrderedSink sink(pair.clock);
  pair.b.setDeliver(sink.fn());
  // One sendMany burst: every frame shares the refcounted body and all of
  // them land in a single simulator sweep, so the flush pattern is purely
  // the threshold's (no timer interleaving to make counts flaky).
  constexpr int kCount = 64;
  const Payload body(std::string(512, 'z'));
  std::vector<OutSend> sends;
  for (int i = 0; i < kCount; ++i) {
    sends.push_back(OutSend{pair.b.address(), std::to_string(i) + ":"});
  }
  pair.a.sendMany(std::move(sends), 1, body);
  ASSERT_TRUE(sink.waitFor(1, kCount, seconds(10)));
  ASSERT_TRUE(pair.a.flush(seconds(5)));
  EXPECT_EQ(body.refCount(), 1);  // acked: all references released
  const auto got = sink.get(1);
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(got[i], std::to_string(i) + ":" + std::string(512, 'z'));
  }
  const auto stats = pair.b.stats();
  EXPECT_EQ(stats.delivered, static_cast<std::uint64_t>(kCount));
  // One ack datagram per ackEvery-sized chunk of the burst (plus at most a
  // couple of timer flushes at the tail), instead of one per frame.
  EXPECT_LT(stats.ackFramesSent, static_cast<std::uint64_t>(kCount) / 3);
  EXPECT_GT(stats.acksCoalesced, 0u);
  // Every ack block emission is justified by at least one frame arrival.
  EXPECT_LE(stats.acksSent,
            stats.delivered + stats.duplicates + stats.outOfOrderBuffered);
  // Zero-copy invariant: payload materializations track wire transmissions
  // (first sends + retransmits), not fan-out or queue depth.
  EXPECT_EQ(pair.a.stats().payloadCopies,
            pair.a.stats().dataSent + pair.a.stats().retransmits);
}

TEST(ReliableAcks, DelayedAcksNeverStallDeliveryOrFailStreams) {
  // Pathological config: the threshold never fires, so every ack waits for
  // the ackDelay timer.  Delivery must stay prompt and no stream may fail.
  ReliableConfig cfg = fastConfig();
  cfg.ackEvery = 100000;          // never threshold-flush
  cfg.ackDelay = milliseconds(5); // timer-only acks
  cfg.ackPiggyback = false;
  cfg.deliveryTimeout = seconds(2);
  VirtualPair pair(42, cfg);
  OrderedSink sink(pair.clock);
  pair.b.setDeliver(sink.fn());
  for (int i = 0; i < 10; ++i) {
    pair.a.send(pair.b.address(), 1, std::to_string(i));
  }
  ASSERT_TRUE(sink.waitFor(1, 10, seconds(10)));
  // Acks arrive within ackDelay + tickInterval — far inside deliveryTimeout
  // — so the sender drains and no failure fires.
  EXPECT_TRUE(pair.a.flush(seconds(5)));
  EXPECT_EQ(pair.a.stats().failures, 0u);
  const auto got = sink.get(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], std::to_string(i));
}

TEST(ReliableAcks, SackSemanticsSurviveLossReorderAndDuplication) {
  ReliableConfig cfg = fastConfig();
  cfg.deliveryTimeout = seconds(10);
  VirtualPair pair(43, cfg,
                   LinkParams{microseconds(50), microseconds(2000), 0.10,
                              0.20});
  OrderedSink sink(pair.clock);
  pair.b.setDeliver(sink.fn());
  // Burst in one sendMany so every frame is in flight at once: the 2ms
  // jitter then guarantees reordering regardless of scheduling.
  constexpr int kCount = 150;
  std::vector<OutSend> sends;
  for (int i = 0; i < kCount; ++i) {
    sends.push_back(OutSend{pair.b.address(), std::to_string(i)});
  }
  pair.a.sendMany(std::move(sends), 1, Payload());
  ASSERT_TRUE(sink.waitFor(1, kCount, seconds(30)));
  const auto got = sink.get(1);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(got[i], std::to_string(i)) << "order violated at " << i;
  }
  EXPECT_TRUE(pair.a.flush(seconds(10)));
  const auto stats = pair.b.stats();
  // SACKed out-of-order frames were buffered, not retransmitted forever.
  EXPECT_GT(stats.outOfOrderBuffered, 0u);
  EXPECT_LE(stats.acksSent,
            stats.delivered + stats.duplicates + stats.outOfOrderBuffered);
}

TEST(ReliableAcks, DuplicateFramesDoNotTriggerAckStorm) {
  // Every datagram is duplicated by the link.  The legacy design answered
  // each dup with an immediate ack datagram; now dups fold into the
  // coalesced flush and are counted.
  ReliableConfig cfg = fastConfig();
  cfg.ackPiggyback = false;
  VirtualPair pair(44, cfg,
                   LinkParams{microseconds(50), microseconds(0), 0.0, 1.0});
  OrderedSink sink(pair.clock);
  pair.b.setDeliver(sink.fn());
  // One burst, so originals and duplicates all arrive in one sweep and the
  // ack count reflects the threshold, not timer interleavings.
  constexpr int kCount = 40;
  std::vector<OutSend> sends;
  for (int i = 0; i < kCount; ++i) {
    sends.push_back(OutSend{pair.b.address(), std::to_string(i)});
  }
  pair.a.sendMany(std::move(sends), 1, Payload());
  ASSERT_TRUE(sink.waitFor(1, kCount, seconds(10)));
  ASSERT_TRUE(pair.a.flush(seconds(5)));
  const auto stats = pair.b.stats();
  EXPECT_EQ(stats.delivered, static_cast<std::uint64_t>(kCount));
  EXPECT_GT(stats.duplicates, 0u);
  // The ack-storm fix: every dup's re-ack was deferred, and the total ack
  // datagram count stays below the frame arrival count by a wide margin.
  EXPECT_EQ(stats.dupAcksSuppressed, stats.duplicates);
  EXPECT_LT(stats.ackFramesSent, static_cast<std::uint64_t>(kCount));
}

TEST(ReliableAcks, PiggybackedAcksRideReverseTraffic) {
  // Bidirectional chatter: with piggybacking on, ack blocks should ride the
  // reverse DATA frames, keeping standalone ack datagrams rare.  The ack
  // delay is set far beyond the test's active phase so the timer cannot
  // flush first — piggybacking is the only timely ack path (correctness
  // does not depend on it: the 500ms timer still backstops the tail).
  ReliableConfig cfg = fastConfig();
  cfg.ackPiggyback = true;
  cfg.ackDelay = milliseconds(500);
  cfg.deliveryTimeout = seconds(30);
  VirtualPair pair(45, cfg);
  OrderedSink sinkA(pair.clock);
  OrderedSink sinkB(pair.clock);
  pair.a.setDeliver(sinkA.fn());
  pair.b.setDeliver(sinkB.fn());
  constexpr int kRounds = 40;
  for (int i = 0; i < kRounds; ++i) {
    pair.a.send(pair.b.address(), 1, "ping-" + std::to_string(i));
    ASSERT_TRUE(sinkB.waitFor(1, static_cast<std::size_t>(i) + 1,
                              seconds(5)));
    pair.b.send(pair.a.address(), 2, "pong-" + std::to_string(i));
    ASSERT_TRUE(sinkA.waitFor(2, static_cast<std::size_t>(i) + 1,
                              seconds(5)));
  }
  EXPECT_TRUE(pair.a.flush(seconds(5)));
  EXPECT_TRUE(pair.b.flush(seconds(5)));
  // Every ping was acknowledged (the senders drained), yet almost every ack
  // rode a reverse DATA frame: standalone ack datagrams stay far below the
  // 2*kRounds the ack-per-frame design would have emitted.
  const auto statsA = pair.a.stats();
  const auto statsB = pair.b.stats();
  EXPECT_GT(statsA.acksSent, 0u);
  EXPECT_GT(statsB.acksSent, 0u);
  EXPECT_LT(statsA.ackFramesSent + statsB.ackFramesSent,
            static_cast<std::uint64_t>(kRounds));
}

// ---------------------------------------------------------------------------
// Adaptive transport: RTO estimation, congestion window, fast retransmit
// (virtual clock, hosts 1 and 2 so partitions can cut the link)
// ---------------------------------------------------------------------------

namespace {
/// Two reliable endpoints on DISTINCT simulated hosts over virtual time,
/// so setPartition(1, 2, ...) can cut the path between them.  As in
/// VirtualPair, the test thread is a clock worker for the rig's life.
struct VirtualDuo {
  testkit::VirtualClock clock;
  const ClockSource::WorkerScope mainIsWorker{announced(clock)};
  SimNetwork net;
  ReliableEndpoint a;
  ReliableEndpoint b;
  const std::unique_ptr<Reactor> ticks;

  explicit VirtualDuo(std::uint64_t seed, ReliableConfig cfg,
                      LinkParams link = LinkParams{microseconds(50),
                                                   microseconds(0), 0.0,
                                                   0.0})
      : net(seed,
            [this] {
              SimNetwork::Options o;
              o.clock = &clock;
              return o;
            }()),
        a((net.setDefaultLink(link), net.openAt(1)), cfg, nullptr, &clock),
        b(net.openAt(2), cfg, nullptr, &clock),
        ticks(tickEvery(cfg.tickInterval, {&a, &b}, &clock)) {}
};
}  // namespace

TEST(ReliableAdaptive, SrttConvergesToPathRttAndStopsSpuriousRetransmits) {
  // True RTT (~40ms) far above the initial RTO (15ms after normalization):
  // the estimator must bootstrap via Karn backoff retention, converge on
  // the real path RTT, and then stop retransmitting entirely.
  ReliableConfig cfg = fastConfig();
  cfg.maxRto = milliseconds(500);
  VirtualDuo pair(50, cfg,
                  LinkParams{milliseconds(20), microseconds(0), 0.0, 0.0});
  OrderedSink sink(pair.clock);
  pair.b.setDeliver(sink.fn());
  constexpr int kWarm = 40;
  for (int i = 0; i < kWarm; ++i) {
    pair.a.send(pair.b.address(), 1, std::to_string(i));
  }
  ASSERT_TRUE(sink.waitFor(1, kWarm, seconds(20)));
  ASSERT_TRUE(pair.a.flush(seconds(10)));

  const auto probe = pair.a.probePeer(pair.b.address());
  ASSERT_TRUE(probe.hasRtt);
  EXPECT_GT(pair.a.stats().rttSamples, 0u);
  // One-way 20ms each direction, plus up to ~4ms of ack deferral.
  EXPECT_GE(probe.srtt, milliseconds(35));
  EXPECT_LE(probe.srtt, milliseconds(80));
  EXPECT_GE(probe.rto, probe.srtt);
  EXPECT_LE(probe.rto, milliseconds(200));

  // Converged: a second burst must ride the estimated RTO without (more
  // than boundary-noise) spurious retransmissions.
  const std::uint64_t retxBefore = pair.a.stats().retransmits;
  for (int i = 0; i < 30; ++i) {
    pair.a.send(pair.b.address(), 1, "post-" + std::to_string(i));
  }
  ASSERT_TRUE(sink.waitFor(1, kWarm + 30, seconds(20)));
  ASSERT_TRUE(pair.a.flush(seconds(10)));
  EXPECT_LE(pair.a.stats().retransmits - retxBefore, 1u);
}

TEST(ReliableAdaptive, KarnsRuleNeverSamplesRetransmittedFrames) {
  // RTO pinned (min == initial == max) far below the 60ms RTT: every frame
  // is retransmitted before its ack returns, so under Karn's rule not one
  // RTT sample may land, no matter how many acks arrive.
  ReliableConfig cfg = fastConfig();
  cfg.rto = milliseconds(15);
  cfg.minRto = milliseconds(15);
  cfg.maxRto = milliseconds(15);
  cfg.deliveryTimeout = seconds(5);
  VirtualDuo pair(51, cfg,
                  LinkParams{milliseconds(30), microseconds(0), 0.0, 0.0});
  OrderedSink sink(pair.clock);
  pair.b.setDeliver(sink.fn());
  for (int i = 0; i < 10; ++i) {
    pair.a.send(pair.b.address(), 1, std::to_string(i));
  }
  ASSERT_TRUE(sink.waitFor(1, 10, seconds(20)));
  ASSERT_TRUE(pair.a.flush(seconds(10)));
  EXPECT_GT(pair.a.stats().retransmits, 0u);
  EXPECT_EQ(pair.a.stats().rttSamples, 0u);
  EXPECT_FALSE(pair.a.probePeer(pair.b.address()).hasRtt);
}

TEST(ReliableAdaptive, ExponentialBackoffIsCappedAtMaxRto) {
  // One frame into a partition: retransmissions back off 25, 50, 100, 100,
  // ... ms.  Over 1.5s of dark link that is ~16 sends; an uncapped doubling
  // would manage only ~6 and a cap-less floor (no backoff) ~60.
  ReliableConfig cfg;
  cfg.tickInterval = milliseconds(2);
  cfg.rto = milliseconds(25);
  cfg.minRto = milliseconds(25);
  cfg.maxRto = milliseconds(100);
  cfg.deliveryTimeout = seconds(10);
  VirtualDuo pair(52, cfg);
  pair.net.setPartition(1, 2, true);
  pair.a.send(pair.b.address(), 1, "into the dark");
  pair.clock.sleepFor(milliseconds(1500));
  const std::uint64_t retx = pair.a.stats().retransmits;
  EXPECT_GE(retx, 10u);
  EXPECT_LE(retx, 20u);
}

TEST(ReliableAdaptive, WindowGrowsFromSlowStartAndDefersExcessFrames) {
  ReliableConfig cfg = fastConfig();
  VirtualDuo pair(53, cfg,
                  LinkParams{milliseconds(1), microseconds(0), 0.0, 0.0});
  OrderedSink sink(pair.clock);
  pair.b.setDeliver(sink.fn());
  constexpr int kCount = 64;
  std::vector<OutSend> sends;
  for (int i = 0; i < kCount; ++i) {
    sends.push_back(OutSend{pair.b.address(), std::to_string(i)});
  }
  pair.a.sendMany(std::move(sends), 1, Payload());
  ASSERT_TRUE(sink.waitFor(1, kCount, seconds(20)));
  ASSERT_TRUE(pair.a.flush(seconds(10)));
  // 64 frames against the initial window: the tail was queued, not flooded
  // onto the wire...
  EXPECT_GT(pair.a.stats().windowDeferred, 0u);
  // ...and slow start opened the window while acks streamed back.
  const auto probe = pair.a.probeStream(pair.b.address(), 1);
  ASSERT_TRUE(probe.exists);
  EXPECT_GT(probe.cwnd, ReliableConfig{}.initialCwnd);
  EXPECT_EQ(probe.inFlight, 0u);
  EXPECT_EQ(probe.queued, 0u);
  // FIFO held across the deferral boundary.
  const auto got = sink.get(1);
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(got[i], std::to_string(i));
  // Zero-copy invariant survives the queue: copies track transmissions.
  EXPECT_EQ(pair.a.stats().payloadCopies,
            pair.a.stats().dataSent + pair.a.stats().retransmits);
}

TEST(ReliableAdaptive, TimerExpiryCollapsesWindowAndRecoveryRegrows) {
  ReliableConfig cfg = fastConfig();
  cfg.deliveryTimeout = seconds(5);
  VirtualDuo pair(54, cfg,
                  LinkParams{milliseconds(1), microseconds(0), 0.0, 0.0});
  OrderedSink sink(pair.clock);
  pair.b.setDeliver(sink.fn());
  // Grow the window with a clean burst first.
  std::vector<OutSend> sends;
  for (int i = 0; i < 32; ++i) {
    sends.push_back(OutSend{pair.b.address(), "warm-" + std::to_string(i)});
  }
  pair.a.sendMany(std::move(sends), 1, Payload());
  ASSERT_TRUE(sink.waitFor(1, 32, seconds(10)));
  ASSERT_TRUE(pair.a.flush(seconds(10)));
  const double grown = pair.a.probeStream(pair.b.address(), 1).cwnd;
  EXPECT_GT(grown, ReliableConfig{}.initialCwnd);
  // Cut the link: the in-flight frames' timers expire and the window must
  // collapse to 1 with ssthresh at half the flight (>= 2).
  pair.net.setPartition(1, 2, true);
  for (int i = 0; i < 4; ++i) {
    pair.a.send(pair.b.address(), 1, "dark-" + std::to_string(i));
  }
  pair.clock.sleepFor(milliseconds(300));
  const auto dark = pair.a.probeStream(pair.b.address(), 1);
  EXPECT_GT(pair.a.stats().retransmits, 0u);
  EXPECT_EQ(dark.cwnd, 1.0);
  EXPECT_GE(dark.ssthresh, 2u);
  EXPECT_LT(static_cast<double>(dark.ssthresh), grown);
  // Heal: everything still delivers (FIFO), and acks regrow the window.
  pair.net.setPartition(1, 2, false);
  ASSERT_TRUE(sink.waitFor(1, 36, seconds(20)));
  ASSERT_TRUE(pair.a.flush(seconds(10)));
  EXPECT_GE(pair.a.probeStream(pair.b.address(), 1).cwnd, 1.0);
  const auto got = sink.get(1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got[32 + i], "dark-" + std::to_string(i));
  }
}

TEST(ReliableAdaptive, TimerExpiryWhileAcksFlowHalvesWindow) {
  // Fast retransmit is off, so only the timer can repair the one dropped
  // frame.  The three frames behind it are acked (~44 ms) long before its
  // timer fires (100 ms): the stream's ack clock is still running, so the
  // loss halves the window instead of restarting it at one frame.
  ReliableConfig cfg;
  cfg.tickInterval = milliseconds(2);
  cfg.rto = milliseconds(100);
  cfg.deliveryTimeout = seconds(10);
  cfg.fastRetransmitDups = UINT32_MAX;
  const LinkParams clean{milliseconds(20), microseconds(0), 0.0, 0.0};
  VirtualDuo pair(62, cfg, clean);
  OrderedSink sink(pair.clock);
  pair.b.setDeliver(sink.fn());
  pair.net.setHostLink(
      1, 2, LinkParams{milliseconds(20), microseconds(0), 1.0, 0.0});
  pair.a.send(pair.b.address(), 1, "0");
  pair.net.setHostLink(1, 2, clean);
  for (int i = 1; i < 4; ++i) {
    pair.a.send(pair.b.address(), 1, std::to_string(i));
  }
  // Just after the timer resends frame 0, ~30 ms before that resend's ack.
  pair.clock.sleepFor(milliseconds(110));
  const auto probe = pair.a.probeStream(pair.b.address(), 1);
  const auto stats = pair.a.stats();
  EXPECT_EQ(stats.retransmits, 1u);
  EXPECT_EQ(probe.inFlight, 1u);
  EXPECT_GE(probe.ssthresh, 2u);
  EXPECT_GE(probe.cwnd, static_cast<double>(probe.ssthresh));
  EXPECT_EQ(stats.windowCuts, 1u);
  EXPECT_EQ(stats.windowCollapses, 0u);
  ASSERT_TRUE(sink.waitFor(1, 4, seconds(10)));
  ASSERT_TRUE(pair.a.flush(seconds(10)));
  const auto got = sink.get(1);
  ASSERT_EQ(got.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], std::to_string(i));
}

TEST(ReliableAdaptive, ResetStreamForgetsTheOldEpochsAckClock) {
  // Four frames reach the receiver at 20 ms; its ack is on the wire back
  // when, at 30 ms, the path goes dark and the stream is reset.  That ack
  // lands (~44 ms) after the new epoch's frames were sent, but it belongs
  // to the old epoch: the new frames' first timer expiry must find the ack
  // clock stopped and restart the window at one frame.
  ReliableConfig cfg;
  cfg.tickInterval = milliseconds(2);
  cfg.rto = milliseconds(100);
  cfg.deliveryTimeout = seconds(10);
  VirtualDuo pair(63, cfg,
                  LinkParams{milliseconds(20), microseconds(0), 0.0, 0.0});
  OrderedSink sink(pair.clock);
  pair.b.setDeliver(sink.fn());
  for (int i = 0; i < 4; ++i) {
    pair.a.send(pair.b.address(), 1, "old-" + std::to_string(i));
  }
  pair.clock.sleepFor(milliseconds(30));
  EXPECT_EQ(sink.get(1).size(), 4u);
  pair.net.setPartition(1, 2, true);
  pair.a.resetStream(pair.b.address(), 1);
  for (int i = 0; i < 2; ++i) {
    pair.a.send(pair.b.address(), 1, "new-" + std::to_string(i));
  }
  pair.clock.sleepFor(milliseconds(120));
  const auto probe = pair.a.probeStream(pair.b.address(), 1);
  const auto stats = pair.a.stats();
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_EQ(probe.cwnd, 1.0);
  EXPECT_GE(probe.ssthresh, 2u);
  EXPECT_EQ(stats.windowCuts, 1u);
  EXPECT_EQ(stats.windowCollapses, 1u);
  pair.net.setPartition(1, 2, false);
  ASSERT_TRUE(sink.waitFor(1, 6, seconds(10)));
  const auto got = sink.get(1);
  EXPECT_EQ(got[4], "new-0");
  EXPECT_EQ(got[5], "new-1");
}

TEST(ReliableAdaptive, FreshStreamSendsInitialWindowBeforeFirstAck) {
  // A new channel's first flight is ten frames (RFC 6928): over a dark link
  // no ack can open the window, so 16 sends put exactly 10 datagrams on the
  // wire and park the other 6.  The 10 s RTO keeps retransmissions out of
  // the count.
  ReliableConfig cfg;
  cfg.rto = seconds(10);
  cfg.minRto = seconds(10);
  cfg.maxRto = seconds(10);
  cfg.deliveryTimeout = seconds(60);
  VirtualDuo pair(59, cfg);
  pair.net.setPartition(1, 2, true);
  for (int i = 0; i < 16; ++i) {
    pair.a.send(pair.b.address(), 1, std::to_string(i));
  }
  EXPECT_EQ(pair.net.stats().sent, 10u);
  EXPECT_EQ(pair.a.stats().dataSent, 10u);
  EXPECT_EQ(pair.a.stats().windowDeferred, 6u);
  const auto probe = pair.a.probeStream(pair.b.address(), 1);
  EXPECT_EQ(probe.inFlight, 10u);
  EXPECT_EQ(probe.queued, 6u);
}

TEST(ReliableAdaptive, PacedStreamOnTwentyMsPathNeverTimesOutSpuriously) {
  // The E10 0% x 20 ms cell (bench_transport): 8 frames every 5 ms over a
  // constant 20 ms link.  The first flight's acks land on the same virtual
  // instants as the sender's retransmission ticks; because the clock hands
  // each instant to the delivery first, no ack ever loses that race — no
  // retransmission, and the last frame lands 20 ms after the last burst.
  constexpr int kMessages = 1600;
  constexpr int kBurst = 8;
  for (int run = 0; run < 3; ++run) {
    testkit::VirtualClock clock;
    // Time stands still while this thread builds the rig and schedules the
    // load, so every run starts on the same instants.
    const ClockSource::WorkerScope mainIsWorker(announced(clock));
    SimNetwork::Options opts;
    opts.clock = &clock;
    SimNetwork net(60 + static_cast<std::uint64_t>(run), opts);
    net.setDefaultLink(LinkParams{milliseconds(20), microseconds(0), 0.0, 0.0});
    ReliableConfig cfg;
    cfg.deliveryTimeout = seconds(60);
    ReliableEndpoint sender(net.openAt(1), cfg, nullptr, &clock);
    ReliableEndpoint receiver(net.openAt(2), cfg, nullptr, &clock);
    const auto ticks =
        tickEvery(cfg.tickInterval, {&sender, &receiver}, &clock);
    const TimePoint start = clock.now();
    std::atomic<int> delivered{0};
    std::atomic<TimePoint::rep> lastDelivery{0};
    receiver.setDeliver(
        [&](const NodeAddress&, std::uint64_t, std::string_view) {
          if (delivered.fetch_add(1) + 1 == kMessages) {
            lastDelivery = (clock.now() - start).count();
          }
        });
    for (int k = 0; k * kBurst < kMessages; ++k) {
      clock.at(start + milliseconds(1) + k * milliseconds(5), [&] {
        for (int i = 0; i < kBurst; ++i) {
          sender.send(receiver.address(), 1, std::string(256, 'x'));
        }
      });
    }
    while (lastDelivery.load() == 0) clock.sleepFor(milliseconds(5));
    EXPECT_EQ(sender.flushEx(seconds(10)),
              ReliableEndpoint::FlushOutcome::kFlushed);
    EXPECT_EQ(sender.stats().retransmits, 0u) << "run " << run;
    EXPECT_EQ(Duration(lastDelivery.load()), milliseconds(1016))
        << "run " << run;
  }
}

TEST(ReliableAdaptive, FastRetransmitRecoversBeforeTimer) {
  // The retransmission timer is pinned at 10s — hopeless for this test's
  // virtual horizon — so the single dropped frame can only be recovered by
  // duplicate-SACK fast retransmit.
  ReliableConfig cfg;
  cfg.tickInterval = milliseconds(2);
  cfg.rto = seconds(10);
  cfg.minRto = seconds(10);
  cfg.maxRto = seconds(10);
  cfg.deliveryTimeout = seconds(60);
  cfg.initialCwnd = 64;  // keep the whole burst in flight
  VirtualDuo pair(55, cfg,
                  LinkParams{milliseconds(1), microseconds(0), 0.0, 0.0});
  OrderedSink sink(pair.clock);
  pair.b.setDeliver(sink.fn());
  for (int i = 0; i < 10; ++i) {
    pair.a.send(pair.b.address(), 1, std::to_string(i));
  }
  // Drop exactly one frame via a 100%-loss window...
  pair.net.setDefaultLink(
      LinkParams{milliseconds(1), microseconds(0), 1.0, 0.0});
  pair.a.send(pair.b.address(), 1, "10");
  pair.net.setDefaultLink(
      LinkParams{milliseconds(1), microseconds(0), 0.0, 0.0});
  // ...then keep traffic flowing so SACK evidence accumulates.
  for (int i = 11; i < 31; ++i) {
    pair.a.send(pair.b.address(), 1, std::to_string(i));
  }
  ASSERT_TRUE(sink.waitFor(1, 31, seconds(20)));
  ASSERT_TRUE(pair.a.flush(seconds(10)));
  const auto stats = pair.a.stats();
  EXPECT_EQ(stats.fastRetransmits, 1u);
  EXPECT_EQ(stats.retransmits, 1u);  // the timer path never fired
  const auto got = sink.get(1);
  for (int i = 0; i < 31; ++i) EXPECT_EQ(got[i], std::to_string(i));
}

TEST(ReliableAdaptive, FailedStreamStaysSilentAndFlushExReportsIt) {
  // Satellite regression (one-pass tick scan): when the delivery timeout
  // fails a stream, NOTHING of that stream may reach the wire — not the
  // retransmissions staged by the same tick, not the queued frames behind
  // the window.  The sim's sent counter pins it exactly.
  ReliableConfig cfg;
  cfg.tickInterval = milliseconds(2);
  cfg.rto = seconds(1);  // first retransmission would fire after expiry
  cfg.minRto = seconds(1);
  cfg.maxRto = seconds(1);
  cfg.deliveryTimeout = milliseconds(100);
  cfg.initialCwnd = 2;
  VirtualDuo pair(56, cfg);
  pair.net.setPartition(1, 2, true);
  std::mutex mutex;
  std::condition_variable cv;
  bool failed = false;
  pair.a.setOnFailure(
      [&](const NodeAddress&, std::uint64_t, const std::string&) {
        std::scoped_lock lock(mutex);
        failed = true;
        pair.clock.notifyAll(cv);
      });
  for (int i = 0; i < 6; ++i) {
    pair.a.send(pair.b.address(), 1, std::to_string(i));
  }
  // Window 2: exactly two first transmissions; four frames queued.
  EXPECT_EQ(pair.a.stats().windowDeferred, 4u);
  {
    std::unique_lock lock(mutex);
    ASSERT_TRUE(
        pair.clock.waitFor(lock, cv, seconds(10), [&] { return failed; }));
  }
  EXPECT_EQ(pair.a.stats().failures, 1u);
  EXPECT_EQ(pair.a.stats().retransmits, 0u);
  EXPECT_EQ(pair.net.stats().sent, 2u);  // nothing staged by the failing tick
  // ...and the stream stays silent afterwards too.
  pair.clock.sleepFor(milliseconds(500));
  EXPECT_EQ(pair.net.stats().sent, 2u);
  // flushEx tells failure apart from success; bool flush keeps reporting
  // "drained" (documented legacy semantics initiator retry loops rely on).
  EXPECT_EQ(pair.a.flushEx(seconds(1)),
            ReliableEndpoint::FlushOutcome::kFailed);
  EXPECT_TRUE(pair.a.flush(seconds(1)));
  pair.a.resetStream(pair.b.address(), 1);
  EXPECT_EQ(pair.a.flushEx(seconds(1)),
            ReliableEndpoint::FlushOutcome::kFlushed);
}

TEST(ReliableAdaptive, FlushExTimesOutWhileFramesAreInFlight) {
  SimNetwork net(57);
  ReliableConfig cfg = fastConfig();
  cfg.deliveryTimeout = seconds(30);
  ReliableEndpoint a(net.open(), cfg);
  const auto ticks = tickEvery(cfg.tickInterval, {&a});
  a.send(NodeAddress{50, 50}, 1, "unreachable");
  EXPECT_EQ(a.flushEx(milliseconds(100)),
            ReliableEndpoint::FlushOutcome::kTimedOut);
}

// ---------------------------------------------------------------------------
// ReliableConfig::normalized(): the ack-deferral invariant as code
// ---------------------------------------------------------------------------

TEST(ReliableConfigNormalize, DefaultConfigNeedsNoClamping) {
  std::vector<std::string> notes;
  (void)ReliableConfig{}.normalized(&notes);
  EXPECT_TRUE(notes.empty()) << "first note: " << notes.front();
}

TEST(ReliableConfigNormalize, ClampsEveryInconsistentKnob) {
  ReliableConfig cfg;
  cfg.tickInterval = milliseconds(0);
  cfg.ackEvery = 0;
  cfg.initialCwnd = 0;
  cfg.maxCwnd = 0;
  cfg.fastRetransmitDups = 0;
  cfg.minRto = microseconds(1);
  cfg.rto = microseconds(1);
  cfg.maxRto = microseconds(1);
  cfg.ackDelay = seconds(1);  // grossly above any sane RTO
  std::vector<std::string> notes;
  const ReliableConfig out = cfg.normalized(&notes);
  EXPECT_GT(out.tickInterval, Duration::zero());
  EXPECT_GE(out.ackEvery, 1u);
  EXPECT_GE(out.initialCwnd, 1u);
  EXPECT_GE(out.maxCwnd, out.initialCwnd);
  EXPECT_GE(out.fastRetransmitDups, 1u);
  EXPECT_GE(out.minRto, 2 * out.tickInterval);
  EXPECT_GE(out.rto, out.minRto);
  EXPECT_GE(out.maxRto, out.rto);
  // The invariant the satellite demands: worst-case ack deferral stays
  // under half of every RTO the sender can use.
  EXPECT_LE(out.ackDelay + out.tickInterval, out.minRto / 2);
  EXPECT_FALSE(notes.empty());
  // Normalizing a normalized config is a fixpoint.
  std::vector<std::string> again;
  (void)out.normalized(&again);
  EXPECT_TRUE(again.empty()) << "second pass clamped: " << again.front();
}

TEST(ReliableConfigNormalize, EndpointTracesClampsOnConstruction) {
  obs::MetricsRegistry reg;
  SimNetwork net(58);
  ReliableConfig cfg;
  cfg.ackDelay = seconds(1);  // forces a clamp note
  ReliableEndpoint a(net.open(), cfg, &reg);
  bool sawClamp = false;
  for (const obs::TraceEvent& ev : reg.trace().events()) {
    if (std::string_view(ev.category) == "reliable" &&
        ev.name == "config.clamp") {
      sawClamp = true;
    }
  }
  EXPECT_TRUE(sawClamp);
}

TEST(Reliable, DuplicatesOnCleanRetransmitPathAreDropped) {
  // Force retransmits by delaying ACK-carrying reverse traffic heavily.
  SimNetwork net(8);
  net.setDefaultLink(
      LinkParams{milliseconds(30), microseconds(0), 0.0, 0.0});
  ReliableConfig cfg = fastConfig();
  cfg.rto = milliseconds(5);  // far below RTT: every frame retransmits
  ReliableEndpoint a(net.open(), cfg);
  ReliableEndpoint b(net.open(), fastConfig());
  const auto ticks = tickEvery(cfg.tickInterval, {&a, &b});
  OrderedSink sink;
  b.setDeliver(sink.fn());
  for (int i = 0; i < 20; ++i) a.send(b.address(), 1, std::to_string(i));
  ASSERT_TRUE(sink.waitFor(1, 20, seconds(10)));
  std::this_thread::sleep_for(milliseconds(100));  // late retransmits land
  EXPECT_EQ(sink.get(1).size(), 20u);
  EXPECT_GT(b.stats().duplicates, 0u);
}

}  // namespace
}  // namespace dapple
