// Heartbeat failure detection (crash-stop model).  A LivenessMonitor must
// stay quiet while its peers beat, suspect a crashed peer within the
// configured timeout, and un-suspect a peer whose heartbeats resume after a
// partition heals.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "dapple/net/sim.hpp"
#include "dapple/services/liveness/liveness.hpp"
#include "dapple/testkit/virtual_clock.hpp"

namespace dapple {
namespace {

// All timing-sensitive tests run on a VirtualClock: heartbeat/suspect
// schedules play out in virtual time, so "sleep through many suspect
// windows" costs microseconds of wall time.
SimNetwork::Options simOn(testkit::VirtualClock& clock) {
  SimNetwork::Options opts;
  opts.clock = &clock;
  return opts;
}

DappletConfig fastDetect(testkit::VirtualClock& clock) {
  DappletConfig cfg;
  cfg.clock = &clock;
  cfg.reliable.tickInterval = milliseconds(2);
  cfg.reliable.rto = milliseconds(15);
  cfg.reliable.deliveryTimeout = milliseconds(500);
  cfg.liveness.heartbeatInterval = milliseconds(20);
  cfg.liveness.suspectTimeout = milliseconds(150);
  return cfg;
}

/// Waits (in virtual time) until `pred()` or `limit` elapses; returns
/// whether pred held.
template <typename Pred>
bool eventually(testkit::VirtualClock& clock, Duration limit, Pred pred) {
  const TimePoint deadline = clock.now() + limit;
  while (clock.now() < deadline) {
    if (pred()) return true;
    clock.sleepFor(milliseconds(5));
  }
  return pred();
}

TEST(Liveness, HealthyPeersAreNeverSuspected) {
  testkit::VirtualClock clock;
  SimNetwork net(900, simOn(clock));
  Dapplet a(net, "a", fastDetect(clock));
  Dapplet b(net, "b", fastDetect(clock));
  LivenessMonitor ma(a);
  LivenessMonitor mb(b);
  ma.watch("peer-b", mb.ref());
  mb.watch("peer-a", ma.ref());

  // Sleep through many suspect windows: both stay trusted.
  clock.sleepFor(milliseconds(600));
  EXPECT_FALSE(ma.suspected("peer-b"));
  EXPECT_FALSE(mb.suspected("peer-a"));
  const auto stats = ma.stats();
  EXPECT_GT(stats.heartbeatsSent, 0u);
  EXPECT_GT(stats.heartbeatsReceived, 0u);
  EXPECT_EQ(stats.suspectEvents, 0u);

  a.stop();
  b.stop();
}

TEST(Liveness, CrashedPeerIsSuspectedWithinTwoTimeouts) {
  testkit::VirtualClock clock;
  SimNetwork net(901, simOn(clock));
  Dapplet a(net, "a", fastDetect(clock));
  auto b = std::make_unique<Dapplet>(net, "b", fastDetect(clock));
  LivenessMonitor ma(a);
  LivenessMonitor mb(*b);
  ma.watch("peer-b", mb.ref());
  mb.watch("peer-a", ma.ref());

  std::atomic<bool> fired{false};
  std::string firedKey;
  ma.onSuspect([&](const std::string& key, const InboxRef&) {
    firedKey = key;
    fired = true;
  });

  // Let the pair exchange a few beats, then crash-stop b.
  ASSERT_TRUE(eventually(clock, seconds(2), [&] {
    return ma.stats().heartbeatsReceived > 0;
  }));
  b->crash();
  const TimePoint crashedAt = clock.now();

  ASSERT_TRUE(eventually(clock, seconds(5), [&] { return fired.load(); }));
  const Duration detectIn = clock.now() - crashedAt;
  EXPECT_LT(detectIn, 2 * ma.suspectTimeout())
      << "detection took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(detectIn)
             .count()
      << "ms";
  EXPECT_EQ(firedKey, "peer-b");
  EXPECT_TRUE(ma.suspected("peer-b"));
  EXPECT_GE(ma.stats().suspectEvents, 1u);

  a.stop();
}

TEST(Liveness, PartitionHealRecoversTheSuspect) {
  testkit::VirtualClock clock;
  SimNetwork net(902, simOn(clock));
  auto cfg = fastDetect(clock);
  cfg.host = 1;
  Dapplet a(net, "a", cfg);
  cfg.host = 2;
  Dapplet b(net, "b", cfg);
  LivenessMonitor ma(a);
  LivenessMonitor mb(b);
  ma.watch("peer-b", mb.ref());
  mb.watch("peer-a", ma.ref());

  std::atomic<int> recoveries{0};
  ma.onAlive([&](const std::string&, const InboxRef&) { ++recoveries; });

  net.setPartition(1, 2, true);
  ASSERT_TRUE(
      eventually(clock, seconds(5), [&] { return ma.suspected("peer-b"); }));

  net.setPartition(1, 2, false);
  // Accuracy is eventual: one delivered heartbeat clears the suspicion.
  ASSERT_TRUE(
      eventually(clock, seconds(5), [&] { return !ma.suspected("peer-b"); }));
  EXPECT_GE(recoveries.load(), 1);
  EXPECT_GE(ma.stats().recoveryEvents, 1u);

  a.stop();
  b.stop();
}

TEST(Liveness, UnwatchSilencesEventsForThatPeer) {
  testkit::VirtualClock clock;
  SimNetwork net(903, simOn(clock));
  Dapplet a(net, "a", fastDetect(clock));
  auto b = std::make_unique<Dapplet>(net, "b", fastDetect(clock));
  LivenessMonitor ma(a);
  LivenessMonitor mb(*b);
  ma.watch("peer-b", mb.ref());
  mb.watch("peer-a", ma.ref());

  std::atomic<bool> fired{false};
  ma.onSuspect([&](const std::string&, const InboxRef&) { fired = true; });

  ma.unwatch("peer-b");
  EXPECT_TRUE(ma.watchedKeys().empty());
  b->crash();
  clock.sleepFor(4 * ma.suspectTimeout());
  EXPECT_FALSE(fired.load());

  a.stop();
}

TEST(Liveness, ConfigInheritsFromDappletAndOverrides) {
  SimNetwork net(904);
  DappletConfig cfg;
  cfg.liveness.heartbeatInterval = milliseconds(35);
  cfg.liveness.suspectTimeout = milliseconds(210);
  Dapplet d(net, "d", cfg);
  Dapplet e(net, "e", cfg);  // one monitor per dapplet: "live.ctl" is unique

  LivenessMonitor inherited(d);
  EXPECT_EQ(inherited.heartbeatInterval(), milliseconds(35));
  EXPECT_EQ(inherited.suspectTimeout(), milliseconds(210));

  LivenessConfig mine;
  mine.heartbeatInterval = milliseconds(10);
  mine.suspectTimeout = milliseconds(80);
  LivenessMonitor overridden(e, mine);
  EXPECT_EQ(overridden.heartbeatInterval(), milliseconds(10));
  EXPECT_EQ(overridden.suspectTimeout(), milliseconds(80));

  d.stop();
  e.stop();
}

// normalized() leaves the runtime unset (the dapplet then ticks its
// endpoint from a reactor of its own), hands the codec to the reliable
// layer and leaves the nested liveness defaults alone.
TEST(Liveness, NormalizedTicksOnTheReactorAndDefaultsHold) {
  SimNetwork net(906);
  DappletConfig cfg;
  cfg.wireCodec = WireCodec::kBinary;
  Dapplet d(net, "d", cfg);

  EXPECT_EQ(d.config().runtime.reactor, nullptr);
  EXPECT_EQ(d.config().reliable.codec, WireCodec::kBinary);
  // Nested liveness defaults survive normalization untouched.
  EXPECT_EQ(d.config().liveness.heartbeatInterval, milliseconds(50));
  EXPECT_EQ(d.config().liveness.suspectTimeout, milliseconds(250));

  LivenessMonitor inherited(d);
  EXPECT_EQ(inherited.heartbeatInterval(), milliseconds(50));
  EXPECT_EQ(inherited.suspectTimeout(), milliseconds(250));
  d.stop();
}

TEST(Liveness, WatchingManyPeersKeysAreIndependent) {
  testkit::VirtualClock clock;
  SimNetwork net(905, simOn(clock));
  Dapplet a(net, "a", fastDetect(clock));
  auto b = std::make_unique<Dapplet>(net, "b", fastDetect(clock));
  Dapplet c(net, "c", fastDetect(clock));
  LivenessMonitor ma(a);
  LivenessMonitor mb(*b);
  LivenessMonitor mc(c);
  // Two independent watches of b (e.g. two sessions) plus one of c.
  ma.watch("s1/b", mb.ref());
  ma.watch("s2/b", mb.ref());
  ma.watch("s1/c", mc.ref());
  mb.watch("peer-a", ma.ref());
  mc.watch("peer-a", ma.ref());
  EXPECT_EQ(ma.watchedKeys().size(), 3u);

  b->crash();
  // Both watches of b trip; c stays trusted.
  ASSERT_TRUE(eventually(clock, seconds(5), [&] {
    return ma.suspected("s1/b") && ma.suspected("s2/b");
  }));
  EXPECT_FALSE(ma.suspected("s1/c"));

  a.stop();
  c.stop();
}

}  // namespace
}  // namespace dapple
