// Property/stress tests at the session layer: randomized topologies, many
// concurrent sessions over shared members, repeated session churn on
// long-lived dapplets, and snapshot persistence.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "dapple/core/session.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/testkit/seed.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/services/snapshot/snapshot.hpp"
#include "dapple/util/rng.hpp"

namespace dapple {
namespace {

/// Random-DAG topology property: generate a random acyclic wiring, run a
/// "flood" role where every member sends one token on each out-edge and
/// expects one on each in-edge; the session must complete with every
/// member reporting exactly its in-degree.
class RandomTopology : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTopology, FloodMatchesInDegree) {
  // DAPPLE_TEST_SEED shifts the whole checked-in sweep to a fresh region
  // of seed space without recompiling.
  const std::uint64_t seed = testkit::testSeed(0) + GetParam();
  DAPPLE_SEED_TRACE(seed);
  Rng rng(seed);
  const std::size_t n = 3 + rng.below(5);  // 3..7 members

  SimNetwork net(seed);
  net.setDefaultLink(
      LinkParams{microseconds(200), microseconds(500), 0.0, 0.0});

  std::vector<std::string> names;
  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<SessionAgent>> agents;
  Directory directory;

  // Edges i -> j for i < j (acyclic); each with probability 0.6.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  std::vector<int> inDegree(n, 0);
  std::vector<int> outDegree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.chance(0.6)) {
        edges.emplace_back(i, j);
        ++outDegree[i];
        ++inDegree[j];
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    names.push_back("r" + std::to_string(i));
    dapplets.push_back(std::make_unique<Dapplet>(net, names.back()));
    agents.push_back(std::make_unique<SessionAgent>(*dapplets.back()));
    agents.back()->registerApp("flood", [](SessionContext& ctx) {
      const auto expect = ctx.params().at("in").asInt();
      if (ctx.hasOutbox("out")) {
        DataMessage token("token");
        token.set("from", Value(ctx.self()));
        ctx.outbox("out").send(token);
      }
      std::int64_t got = 0;
      std::set<std::string> senders;
      while (got < expect) {
        senders.insert(ctx.inbox("in")
                           .receiveAs<DataMessage>(seconds(20))
                           .get("from")
                           .asString());
        ++got;
      }
      ValueMap result;
      result["got"] = Value(static_cast<long long>(got));
      result["distinct"] = Value(static_cast<long long>(senders.size()));
      ctx.setResult(Value(std::move(result)));
    });
    directory.put(names.back(), agents.back()->controlRef());
  }

  Dapplet init(net, "init");
  Initiator initiator(init);
  Initiator::Plan plan;
  plan.app = "flood";
  plan.phaseTimeout = seconds(20);
  for (std::size_t i = 0; i < n; ++i) {
    ValueMap params;
    params["in"] = Value(static_cast<long long>(inDegree[i]));
    plan.members.push_back(Initiator::member(
        directory, names[i], {"in"}, Value(std::move(params))));
  }
  for (const auto& [i, j] : edges) {
    plan.edges.push_back({names[i], "out", names[j], "in"});
  }
  auto result = initiator.establish(plan);
  ASSERT_TRUE(result.ok) << "seed " << seed;
  auto done = initiator.awaitCompletion(result.sessionId, seconds(60));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(done.at(names[i]).at("got").asInt(), inDegree[i])
        << "seed " << seed << " member " << i;
    // Fan-out copies are one per edge: distinct senders == in-degree here
    // because each pair has at most one edge.
    EXPECT_EQ(done.at(names[i]).at("distinct").asInt(), inDegree[i]);
  }
  initiator.terminate(result.sessionId);
  agents.clear();
  init.stop();
  for (auto& d : dapplets) d->stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopology,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808));

TEST(Stress, ManyConcurrentSessionsOverSharedMembers) {
  // 6 members, 8 concurrent sessions with disjoint state keys: all must
  // establish and complete, and the members must end fully unlinked.
  const std::uint64_t seed = testkit::testSeed(9000);
  DAPPLE_SEED_TRACE(seed);
  SimNetwork net(seed);
  constexpr std::size_t kMembers = 6;
  constexpr int kSessions = 8;

  std::vector<std::string> names;
  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<StateStore>> stores;
  std::vector<std::unique_ptr<SessionAgent>> agents;
  Directory directory;
  std::atomic<int> rolesRun{0};
  for (std::size_t i = 0; i < kMembers; ++i) {
    names.push_back("s" + std::to_string(i));
    dapplets.push_back(std::make_unique<Dapplet>(net, names.back()));
    stores.push_back(std::make_unique<StateStore>());
    SessionAgent::Config cfg;
    cfg.store = stores.back().get();
    agents.push_back(std::make_unique<SessionAgent>(*dapplets.back(), cfg));
    agents.back()->registerApp("mark", [&rolesRun](SessionContext& ctx) {
      ctx.state().put(ctx.params().at("key").asString(),
                      Value(ctx.sessionId()));
      ++rolesRun;
    });
    directory.put(names.back(), agents.back()->controlRef());
  }
  Dapplet init(net, "init");
  Initiator initiator(init);

  std::vector<std::string> sessionIds;
  Rng rng(1);
  for (int s = 0; s < kSessions; ++s) {
    Initiator::Plan plan;
    plan.app = "mark";
    plan.phaseTimeout = seconds(20);
    // Two random members per session; unique state key -> no interference.
    std::set<std::size_t> chosen;
    while (chosen.size() < 2) chosen.insert(rng.below(kMembers));
    for (std::size_t m : chosen) {
      ValueMap params;
      params["key"] = Value("slot." + std::to_string(s));
      auto member = Initiator::member(directory, names[m], {},
                                      Value(std::move(params)));
      member.writeKeys = {"slot." + std::to_string(s)};
      plan.members.push_back(member);
    }
    auto result = initiator.establish(plan);
    ASSERT_TRUE(result.ok) << "session " << s;
    sessionIds.push_back(result.sessionId);
  }
  for (const auto& id : sessionIds) {
    initiator.awaitCompletion(id, seconds(30));
    initiator.terminate(id);
  }
  EXPECT_EQ(rolesRun.load(), kSessions * 2);
  for (int i = 0; i < 200; ++i) {
    bool clear = true;
    for (auto& agent : agents) clear = clear && agent->activeSessions().empty();
    if (clear) break;
    std::this_thread::sleep_for(milliseconds(10));
  }
  for (auto& agent : agents) {
    EXPECT_TRUE(agent->activeSessions().empty());
  }
  agents.clear();
  init.stop();
  for (auto& d : dapplets) d->stop();
}

TEST(Stress, SessionChurnOnLongLivedDapplets) {
  // The paper's model: long-lived dapplets joining many short sessions.
  const std::uint64_t seed = testkit::testSeed(9100);
  DAPPLE_SEED_TRACE(seed);
  SimNetwork net(seed);
  Dapplet member(net, "veteran");
  SessionAgent agent(member);
  std::atomic<int> runs{0};
  agent.registerApp("tick", [&runs](SessionContext&) { ++runs; });
  Directory directory;
  directory.put("veteran", agent.controlRef());
  Dapplet init(net, "init");
  Initiator initiator(init);

  constexpr int kRounds = 25;
  for (int r = 0; r < kRounds; ++r) {
    Initiator::Plan plan;
    plan.app = "tick";
    plan.phaseTimeout = seconds(10);
    plan.members.push_back(
        Initiator::member(directory, "veteran", {"in"}));
    auto result = initiator.establish(plan);
    ASSERT_TRUE(result.ok) << "round " << r;
    initiator.awaitCompletion(result.sessionId, seconds(10));
    initiator.terminate(result.sessionId);
  }
  EXPECT_EQ(runs.load(), kRounds);
  init.stop();
  member.stop();
}

TEST(SnapshotPersistence, SaveLoadRoundTrip) {
  GlobalSnapshot snap;
  snap.at = 12345;
  ValueMap state0;
  state0["coins"] = Value(17);
  snap.states[0] = Value(std::move(state0));
  snap.states[2] = Value("opaque");
  ValueMap msg;
  msg["wire"] = Value("s5:hello");
  snap.channels[1].push_back(Value(std::move(msg)));

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dapple_snapshot_test_" + std::to_string(::getpid()) + ".wire"))
          .string();
  snap.saveTo(path);
  const GlobalSnapshot back = GlobalSnapshot::loadFrom(path);
  EXPECT_EQ(back.at, snap.at);
  EXPECT_EQ(back.states.size(), 2u);
  EXPECT_EQ(back.states.at(0).at("coins").asInt(), 17);
  EXPECT_EQ(back.states.at(2).asString(), "opaque");
  ASSERT_EQ(back.channels.at(1).size(), 1u);
  EXPECT_EQ(back.channels.at(1)[0].at("wire").asString(), "s5:hello");
  std::filesystem::remove(path);
}

TEST(SnapshotPersistence, LoadMissingFileThrows) {
  EXPECT_THROW(GlobalSnapshot::loadFrom("/no/such/dir/snap.wire"),
               StateError);
}

}  // namespace
}  // namespace dapple
