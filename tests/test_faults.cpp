// Failure injection: the paper's §2.2 requires coping "with faults in the
// network such as undelivered messages".  These tests run the full stack
// under loss, duplication, heavy jitter, and partitions, and check both
// that protocols still complete and that unreachable peers surface as the
// specified exceptions.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "dapple/apps/calendar.hpp"
#include "dapple/core/session.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/services/liveness/liveness.hpp"
#include "dapple/services/tokens/token_manager.hpp"
#include "dapple/testkit/seed.hpp"
#include "dapple/testkit/virtual_clock.hpp"

namespace dapple {
namespace {

// Every fault test runs on a VirtualClock: the clock jumps to the next
// retransmission tick or timeout the moment all workers park, so seconds of
// simulated fault time cost milliseconds of wall time.
SimNetwork::Options simOn(testkit::VirtualClock& clock) {
  SimNetwork::Options opts;
  opts.clock = &clock;
  return opts;
}

DappletConfig lossTolerant(testkit::VirtualClock& clock) {
  DappletConfig cfg;
  cfg.clock = &clock;
  cfg.reliable.tickInterval = milliseconds(2);
  cfg.reliable.rto = milliseconds(15);
  cfg.reliable.maxRto = milliseconds(120);
  cfg.reliable.deliveryTimeout = seconds(10);
  return cfg;
}

class FaultySessions
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(FaultySessions, CalendarCompletesDespiteLossAndDuplication) {
  const auto [loss, dup] = GetParam();
  const std::uint64_t seed = testkit::testSeed(777);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  net.setDefaultLink(
      LinkParams{microseconds(300), microseconds(800), loss, dup});

  const std::vector<std::string> names = {"f0", "f1", "f2"};
  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<StateStore>> stores;
  std::vector<std::unique_ptr<SessionAgent>> agents;
  Directory directory;
  Rng rng(11);
  for (const auto& name : names) {
    dapplets.push_back(
        std::make_unique<Dapplet>(net, name, lossTolerant(clock)));
    stores.push_back(std::make_unique<StateStore>());
    apps::CalendarBook::populate(*stores.back(), rng, 30, 0.4);
    SessionAgent::Config cfg;
    cfg.store = stores.back().get();
    agents.push_back(std::make_unique<SessionAgent>(*dapplets.back(), cfg));
    apps::registerCalendarApp(*agents.back());
    directory.put(name, agents.back()->controlRef());
  }
  Dapplet director(net, "director", lossTolerant(clock));
  SessionAgent directorAgent(director);
  apps::registerCalendarApp(directorAgent);
  directory.put("director", directorAgent.controlRef());

  Initiator initiator(director);
  auto plan = apps::flatCalendarPlan(directory, "director", names, 0, 15,
                                     3);
  plan.phaseTimeout = seconds(30);
  auto result = initiator.establish(plan);
  ASSERT_TRUE(result.ok) << "setup failed under loss=" << loss;
  auto outcome = apps::parseOutcome(
      initiator.awaitCompletion(result.sessionId, seconds(60))
          .at("director"));
  EXPECT_TRUE(outcome.scheduled);
  initiator.terminate(result.sessionId);

  agents.clear();
  director.stop();
  for (auto& d : dapplets) d->stop();
}

INSTANTIATE_TEST_SUITE_P(LossDup, FaultySessions,
                         ::testing::Values(std::make_tuple(0.05, 0.0),
                                           std::make_tuple(0.10, 0.05),
                                           std::make_tuple(0.0, 0.25),
                                           std::make_tuple(0.15, 0.1)));

TEST(Faults, PartitionSurfacesDeliveryErrorThenHeals) {
  const std::uint64_t seed = testkit::testSeed(778);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  DappletConfig cfg;
  cfg.clock = &clock;
  cfg.reliable.tickInterval = milliseconds(2);
  cfg.reliable.rto = milliseconds(10);
  cfg.reliable.deliveryTimeout = milliseconds(250);
  cfg.host = 1;
  Dapplet a(net, "a", cfg);
  cfg.host = 2;
  Dapplet b(net, "b", cfg);
  Inbox& in = b.createInbox("in");
  Outbox& out = a.createOutbox();
  out.add(in.ref());

  // Healthy first.
  out.send(DataMessage("one"));
  EXPECT_TRUE(in.receiveFor(seconds(5)).has_value());

  // Partition: the paper's delivery exception must fire on the sender.
  net.setPartition(1, 2, true);
  out.send(DataMessage("lost"));
  bool failed = false;
  for (int i = 0; i < 100; ++i) {
    clock.sleepFor(milliseconds(20));
    try {
      out.send(DataMessage("probe"));
    } catch (const DeliveryError&) {
      failed = true;
      break;
    }
  }
  EXPECT_TRUE(failed) << "no DeliveryError raised across the partition";

  // Heal + reset: the channel works again.
  net.setPartition(1, 2, false);
  out.reset();
  out.send(DataMessage("after-heal"));
  EXPECT_EQ(in.receiveAs<DataMessage>(seconds(5)).kind(), "after-heal");

  a.stop();
  b.stop();
}

TEST(Faults, NextSessionReachesMemberWhoseReplyStreamFailed) {
  // A member answers every session of one initiator on one reply stream.  A
  // partition that outlasts deliveryTimeout while its DONE is in flight
  // fails that stream; once the partition heals, the next session must get
  // the member's answers again.
  const std::uint64_t seed = testkit::testSeed(781);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  std::atomic<bool> cut{false};  // outlives the role threads
  DappletConfig cfg;
  cfg.clock = &clock;
  cfg.reliable.tickInterval = milliseconds(2);
  cfg.reliable.rto = milliseconds(10);
  cfg.reliable.deliveryTimeout = milliseconds(250);
  cfg.host = 1;
  Dapplet director(net, "director", cfg);
  cfg.host = 2;
  Dapplet member(net, "m0", cfg);
  SessionAgent agent(member);
  agent.registerApp("late", [&cut](SessionContext& ctx) {
    // Finish only once the partition is up, so the DONE goes into it.
    while (!cut) ctx.dapplet().clockSource().sleepFor(milliseconds(5));
    ctx.setResult(Value(ctx.sessionId()));
  });
  Directory directory;
  directory.put("m0", agent.controlRef());
  Initiator initiator(director);
  Initiator::Plan plan;
  plan.app = "late";
  plan.phaseTimeout = seconds(5);
  plan.members.push_back(Initiator::member(directory, "m0", {}));

  const auto first = initiator.establish(plan);
  ASSERT_TRUE(first.ok);
  net.setPartition(1, 2, true);
  cut = true;
  // The reply stream gives up, and the agent drops the session as headless.
  for (int i = 0; i < 200 && agent.stats().initiatorsLost == 0; ++i) {
    clock.sleepFor(milliseconds(10));
  }
  ASSERT_EQ(1u, agent.stats().initiatorsLost);
  net.setPartition(1, 2, false);
  initiator.terminate(first.sessionId);

  auto second = initiator.establish(plan);
  ASSERT_TRUE(second.ok) << "m0: " << second.rejections["m0"];
  EXPECT_EQ(second.sessionId,
            initiator.awaitCompletion(second.sessionId, seconds(5))
                .at("m0")
                .asString());
  initiator.terminate(second.sessionId);

  member.stop();
  director.stop();
}

TEST(Faults, TokensSurviveLossyNetwork) {
  const std::uint64_t seed = testkit::testSeed(779);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  net.setDefaultLink(
      LinkParams{microseconds(200), microseconds(400), 0.08, 0.05});
  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<TokenManager>> managers;
  constexpr std::size_t kMembers = 3;
  for (std::size_t i = 0; i < kMembers; ++i) {
    dapplets.push_back(std::make_unique<Dapplet>(
        net, "tk" + std::to_string(i), lossTolerant(clock)));
    managers.push_back(std::make_unique<TokenManager>(*dapplets.back()));
  }
  std::vector<InboxRef> refs;
  for (auto& m : managers) refs.push_back(m->ref());
  for (std::size_t i = 0; i < kMembers; ++i) {
    TokenBag mine;
    if (TokenManager::homeOfColor("gold", kMembers) == i) mine["gold"] = 3;
    managers[i]->attach(refs, i, mine);
  }
  // Token churn across the lossy fabric; conservation must hold.
  for (int round = 0; round < 10; ++round) {
    managers[round % kMembers]->request({{"gold", 2}}, seconds(30));
    managers[round % kMembers]->release({{"gold", 2}});
  }
  EXPECT_EQ(managers[0]->totalTokens(seconds(20)).at("gold"), 3);
  managers.clear();
  for (auto& d : dapplets) d->stop();
}

TEST(Faults, AgentIgnoresMalformedControlTraffic) {
  // Random application messages aimed at the session-control inbox must
  // not crash or wedge the agent.
  const std::uint64_t seed = testkit::testSeed(780);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  DappletConfig cfg;
  cfg.clock = &clock;
  Dapplet member(net, "m", cfg);
  SessionAgent agent(member);
  agent.registerApp("noop", [](SessionContext&) {});
  Dapplet attacker(net, "attacker", cfg);
  Outbox& out = attacker.createOutbox();
  out.add(agent.controlRef());
  for (int i = 0; i < 20; ++i) {
    DataMessage junk("junk.kind");
    junk.set("i", Value(i));
    out.send(junk);
  }
  ASSERT_TRUE(attacker.flush(seconds(5)));

  // The agent still works.
  Directory directory;
  directory.put("m", agent.controlRef());
  Dapplet init(net, "init", cfg);
  Initiator initiator(init);
  Initiator::Plan plan;
  plan.app = "noop";
  plan.members.push_back(Initiator::member(directory, "m", {}));
  auto result = initiator.establish(plan);
  EXPECT_TRUE(result.ok);
  initiator.awaitCompletion(result.sessionId, seconds(10));
  initiator.terminate(result.sessionId);
  init.stop();
  attacker.stop();
  member.stop();
}

TEST(Faults, MalformedWireBytesNeverCrashTheDecoder) {
  // Fuzz-ish: random byte strings must raise SerializationError (or decode
  // cleanly), never crash.
  Rng rng(781);
  for (int i = 0; i < 2000; ++i) {
    std::string bytes;
    const auto len = rng.below(40);
    for (std::uint64_t k = 0; k < len; ++k) {
      bytes.push_back(static_cast<char>(rng.below(256)));
    }
    try {
      (void)decodeMessage(bytes);
    } catch (const SerializationError&) {
      // expected for almost every input
    }
  }
  // Truncations of a VALID message must also fail cleanly.
  DataMessage msg("probe");
  msg.set("k", Value("v"));
  const std::string wire = encodeMessage(msg);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    try {
      (void)decodeMessage(wire.substr(0, cut));
    } catch (const SerializationError&) {
    }
  }
  SUCCEED();
}

TEST(Faults, SessionUnderHeavyJitterStillAgrees) {
  const std::uint64_t seed = testkit::testSeed(782);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  net.setDefaultLink(
      LinkParams{microseconds(100), milliseconds(8), 0.0, 0.0});
  DappletConfig jcfg;
  jcfg.clock = &clock;
  const std::vector<std::string> names = {"j0", "j1"};
  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<StateStore>> stores;
  std::vector<std::unique_ptr<SessionAgent>> agents;
  Directory directory;
  Rng rng(5);
  for (const auto& name : names) {
    dapplets.push_back(std::make_unique<Dapplet>(net, name, jcfg));
    stores.push_back(std::make_unique<StateStore>());
    apps::CalendarBook::populate(*stores.back(), rng, 20, 0.3);
    SessionAgent::Config cfg;
    cfg.store = stores.back().get();
    agents.push_back(std::make_unique<SessionAgent>(*dapplets.back(), cfg));
    apps::registerCalendarApp(*agents.back());
    directory.put(name, agents.back()->controlRef());
  }
  Dapplet director(net, "director", jcfg);
  SessionAgent directorAgent(director);
  apps::registerCalendarApp(directorAgent);
  directory.put("director", directorAgent.controlRef());
  Initiator initiator(director);
  auto plan = apps::flatCalendarPlan(directory, "director", names, 0, 15, 3);
  plan.phaseTimeout = seconds(30);
  auto result = initiator.establish(plan);
  ASSERT_TRUE(result.ok);
  auto outcome = apps::parseOutcome(
      initiator.awaitCompletion(result.sessionId, seconds(60))
          .at("director"));
  EXPECT_TRUE(outcome.scheduled);
  initiator.terminate(result.sessionId);
  agents.clear();
  director.stop();
  for (auto& d : dapplets) d->stop();
}

// ---------------------------------------------------------------------------
// Crash-stop fault tolerance: a member process dies mid-session.  The
// liveness layer must turn its silence into MEMBER_DOWN, survivors' blocked
// receives must fail fast with PeerDownError (not the delivery timeout), and
// the initiator must return partial results naming the failed member.

TEST(CrashStop, SessionSurvivesMemberCrashWithPartialResults) {
  const std::uint64_t seed = testkit::testSeed(790);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  DappletConfig cfg = lossTolerant(clock);
  cfg.liveness.heartbeatInterval = milliseconds(25);
  cfg.liveness.suspectTimeout = milliseconds(300);

  const std::vector<std::string> names = {"c0", "c1", "c2", "c3"};
  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<LivenessMonitor>> monitors;
  std::vector<std::unique_ptr<SessionAgent>> agents;
  Directory directory;
  for (const auto& name : names) {
    dapplets.push_back(std::make_unique<Dapplet>(net, name, cfg));
    monitors.push_back(std::make_unique<LivenessMonitor>(*dapplets.back()));
    SessionAgent::Config acfg;
    acfg.monitor = monitors.back().get();
    agents.push_back(std::make_unique<SessionAgent>(*dapplets.back(), acfg));
    // The crasher ("c1") feeds everyone else; survivors block on a message
    // that will never come and must be released by eviction, not by the
    // receive timeout.
    agents.back()->registerApp("crashdemo", [name](SessionContext& ctx) {
      if (name == "c1") {
        try {
          (void)ctx.inbox("in").receiveFor(seconds(30));
        } catch (const Error&) {
          // crash() fires first; nothing to do
        }
        return;
      }
      ValueMap r;
      try {
        (void)ctx.inbox("in").receiveFor(seconds(30));
        r["sawPeerDown"] = Value(false);
      } catch (const PeerDownError& e) {
        r["sawPeerDown"] = Value(true);
        r["verdict"] = Value(std::string(e.what()));
      }
      ctx.setResult(Value(std::move(r)));
    });
    directory.put(name, agents.back()->controlRef());
  }

  Dapplet director(net, "director", cfg);
  LivenessMonitor directorMonitor(director);
  Initiator initiator(director, &directorMonitor);

  Initiator::Plan plan;
  plan.app = "crashdemo";
  for (const auto& name : names) {
    plan.members.push_back(Initiator::member(directory, name, {"in"}));
  }
  for (const auto& name : names) {
    if (name == "c1") continue;
    plan.edges.push_back({"c1", "feed", name, "in"});
  }
  plan.phaseTimeout = seconds(30);
  auto result = initiator.establish(plan);
  ASSERT_TRUE(result.ok);

  // Crash-stop c1 mid-protocol: every survivor is now blocked in receive().
  clock.sleepFor(milliseconds(100));
  dapplets[1]->crash();
  const TimePoint crashedAt = clock.now();

  // The detector must evict c1 within 2x the suspect timeout.
  const TimePoint detectBy = crashedAt + 2 * cfg.liveness.suspectTimeout;
  bool evicted = false;
  while (clock.now() < detectBy) {
    if (initiator.downMembers(result.sessionId).count("c1") != 0) {
      evicted = true;
      break;
    }
    clock.sleepFor(milliseconds(10));
  }
  EXPECT_TRUE(evicted) << "c1 not evicted within 2x suspect timeout";

  // Partial results: survivors report PeerDownError, c1's entry names it as
  // down.  Well under the roles' 30s receive timeout, proving fail-fast.
  auto results = initiator.awaitCompletion(result.sessionId, seconds(10));
  ASSERT_EQ(results.size(), names.size());
  for (const auto& name : names) {
    ASSERT_TRUE(results.count(name) != 0) << "missing entry for " << name;
    const Value& entry = results.at(name);
    if (name == "c1") {
      EXPECT_TRUE(entry.at("peerDown").asBool());
      EXPECT_EQ(entry.at("member").asString(), "c1");
      EXPECT_FALSE(entry.at("reason").asString().empty());
    } else {
      EXPECT_TRUE(entry.at("sawPeerDown").asBool())
          << name << " fell through to the receive timeout";
    }
  }
  const auto down = initiator.downMembers(result.sessionId);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_TRUE(down.count("c1") != 0);

  initiator.terminate(result.sessionId);
  agents.clear();
  monitors.clear();
  director.stop();
  for (std::size_t i = 0; i < dapplets.size(); ++i) {
    if (i != 1) dapplets[i]->stop();  // c1 already crashed
  }
}

TEST(CrashStop, SurvivorAgentsRecordEviction) {
  // Same shape, smaller: assert the agent-side stats counter moves.
  const std::uint64_t seed = testkit::testSeed(791);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  DappletConfig cfg = lossTolerant(clock);
  cfg.liveness.heartbeatInterval = milliseconds(25);
  cfg.liveness.suspectTimeout = milliseconds(250);

  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<LivenessMonitor>> monitors;
  std::vector<std::unique_ptr<SessionAgent>> agents;
  Directory directory;
  for (const std::string name : {"s0", "s1", "s2"}) {
    dapplets.push_back(std::make_unique<Dapplet>(net, name, cfg));
    monitors.push_back(std::make_unique<LivenessMonitor>(*dapplets.back()));
    SessionAgent::Config acfg;
    acfg.monitor = monitors.back().get();
    agents.push_back(std::make_unique<SessionAgent>(*dapplets.back(), acfg));
    agents.back()->registerApp("wait", [name](SessionContext& ctx) {
      if (name == "s1") {
        try {
          (void)ctx.inbox("in").receiveFor(seconds(30));
        } catch (const Error&) {
        }
        return;
      }
      try {
        (void)ctx.inbox("in").receiveFor(seconds(30));
      } catch (const PeerDownError&) {
      }
      ctx.setResult(Value(ValueMap{}));
    });
    directory.put(name, agents.back()->controlRef());
  }
  Dapplet director(net, "director", cfg);
  LivenessMonitor directorMonitor(director);
  Initiator initiator(director, &directorMonitor);
  Initiator::Plan plan;
  plan.app = "wait";
  for (const std::string name : {"s0", "s1", "s2"}) {
    plan.members.push_back(Initiator::member(directory, name, {"in"}));
  }
  plan.edges.push_back({"s1", "feed", "s0", "in"});
  plan.edges.push_back({"s1", "feed", "s2", "in"});
  auto result = initiator.establish(plan);
  ASSERT_TRUE(result.ok);

  clock.sleepFor(milliseconds(100));
  dapplets[1]->crash();
  (void)initiator.awaitCompletion(result.sessionId, seconds(10));

  // Survivor agents processed the MEMBER_DOWN broadcast.
  EXPECT_GE(agents[0]->stats().peersEvicted, 1u);
  EXPECT_GE(agents[2]->stats().peersEvicted, 1u);

  initiator.terminate(result.sessionId);
  agents.clear();
  monitors.clear();
  director.stop();
  dapplets[0]->stop();
  dapplets[2]->stop();
}

TEST(CrashStop, SetupRetriesThroughHeavyLoss) {
  // 20% loss with a deliberately small delivery timeout: single-shot setup
  // messages can die with their stream, so establishment must succeed via
  // the initiator's jittered retry/backoff (duplicate INVITEs/WIREs are
  // idempotent at the agent).
  const std::uint64_t seed = testkit::testSeed(792);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  net.setDefaultLink(
      LinkParams{microseconds(300), microseconds(900), 0.20, 0.0});
  DappletConfig cfg;
  cfg.clock = &clock;
  cfg.reliable.tickInterval = milliseconds(2);
  cfg.reliable.rto = milliseconds(15);
  cfg.reliable.maxRto = milliseconds(80);
  cfg.reliable.deliveryTimeout = milliseconds(400);

  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<SessionAgent>> agents;
  Directory directory;
  for (const std::string name : {"r0", "r1", "r2", "r3"}) {
    dapplets.push_back(std::make_unique<Dapplet>(net, name, cfg));
    agents.push_back(std::make_unique<SessionAgent>(*dapplets.back()));
    agents.back()->registerApp("noop", [](SessionContext& ctx) {
      ctx.setResult(Value(ValueMap{}));
    });
    directory.put(name, agents.back()->controlRef());
  }
  Dapplet director(net, "director", cfg);
  Initiator initiator(director);
  Initiator::Plan plan;
  plan.app = "noop";
  for (const std::string name : {"r0", "r1", "r2", "r3"}) {
    plan.members.push_back(Initiator::member(directory, name, {}));
  }
  plan.phaseTimeout = seconds(30);
  plan.setupAttempts = 8;
  plan.retryBase = milliseconds(100);
  auto result = initiator.establish(plan);
  ASSERT_TRUE(result.ok) << "setup failed under 20% loss";
  auto results = initiator.awaitCompletion(result.sessionId, seconds(30));
  EXPECT_EQ(results.size(), 4u);
  initiator.terminate(result.sessionId);
  agents.clear();
  director.stop();
  for (auto& d : dapplets) d->stop();
}

TEST(CrashStop, SimNetworkKillDropsTheEndpoint) {
  // The injection primitive itself: kill() closes the victim's endpoint so
  // traffic to it starts failing at the reliable layer.
  const std::uint64_t seed = testkit::testSeed(793);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  DappletConfig cfg;
  cfg.clock = &clock;
  cfg.reliable.tickInterval = milliseconds(2);
  cfg.reliable.rto = milliseconds(10);
  cfg.reliable.deliveryTimeout = milliseconds(200);
  Dapplet a(net, "a", cfg);
  Dapplet b(net, "b", cfg);
  Inbox& in = b.createInbox("in");
  Outbox& out = a.createOutbox();
  out.add(in.ref());
  out.send(DataMessage("ping"));
  EXPECT_TRUE(in.receiveFor(seconds(5)).has_value());

  ASSERT_TRUE(net.kill(b.address()));
  bool failed = false;
  for (int i = 0; i < 200 && !failed; ++i) {
    clock.sleepFor(milliseconds(10));
    try {
      out.send(DataMessage("probe"));
    } catch (const DeliveryError&) {
      failed = true;
    }
  }
  EXPECT_TRUE(failed) << "no DeliveryError after the endpoint was killed";
  a.stop();
}

}  // namespace
}  // namespace dapple
