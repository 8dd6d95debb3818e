// Tests for the session layer: establishment, rejection paths (ACL,
// unknown app, interference), results, unlink cleanup, growth & shrink.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>

#include "dapple/core/session.hpp"
#include "dapple/core/session_msgs.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/serial/data_message.hpp"

namespace dapple {
namespace {

/// Test fixture: N member dapplets with agents + one initiator dapplet.
class SessionRig : public ::testing::Test {
 protected:
  void makeMembers(std::size_t n, SessionAgent::Config config = {}) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::string name = "m" + std::to_string(i);
      dapplets.push_back(std::make_unique<Dapplet>(net, name));
      agents.push_back(
          std::make_unique<SessionAgent>(*dapplets.back(), config));
      directory.put(name, agents.back()->controlRef());
    }
  }

  void registerEchoApp() {
    // Ping/echo role: the first peer opens the exchange, the other echoes —
    // someone has to send first or both sides block forever.
    for (auto& agent : agents) {
      agent->registerApp("echo", [](SessionContext& ctx) {
        const bool leader =
            !ctx.peers().empty() && ctx.peers().front() == ctx.self();
        if (leader && ctx.hasOutbox("out")) {
          DataMessage hello("hello");
          ctx.outbox("out").send(hello);
        }
        if (ctx.hasInbox("in")) {
          Delivery del = ctx.inbox("in").receive();
          if (!leader && ctx.hasOutbox("out")) {
            ctx.outbox("out").send(*del.message);
          }
        }
        ValueMap r;
        r["member"] = Value(ctx.self());
        ctx.setResult(Value(std::move(r)));
      });
    }
  }

  /// Runs `n` echo sessions of m0 and m1 back to back from `initiator`.
  void runEchoSessions(Initiator& initiator, int n) {
    Initiator::Plan plan;
    plan.app = "echo";
    plan.members.push_back(Initiator::member(directory, "m0", {"in"}));
    plan.members.push_back(Initiator::member(directory, "m1", {"in"}));
    plan.edges.push_back({"m0", "out", "m1", "in"});
    plan.edges.push_back({"m1", "out", "m0", "in"});
    for (int session = 0; session < n; ++session) {
      auto result = initiator.establish(plan);
      ASSERT_TRUE(result.ok);
      EXPECT_EQ(
          initiator.awaitCompletion(result.sessionId, seconds(10)).size(), 2u);
      initiator.terminate(result.sessionId);
    }
  }

  SimNetwork net{101};
  Directory directory;
  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<SessionAgent>> agents;

  void TearDown() override {
    agents.clear();
    for (auto& d : dapplets) d->stop();
  }
};

TEST_F(SessionRig, EstablishLinkRunCollectResults) {
  makeMembers(2);
  registerEchoApp();
  Dapplet init(net, "init");
  Initiator initiator(init);

  Initiator::Plan plan;
  plan.app = "echo";
  plan.members.push_back(Initiator::member(directory, "m0", {"in"}));
  plan.members.push_back(Initiator::member(directory, "m1", {"in"}));
  plan.edges.push_back({"m0", "out", "m1", "in"});
  plan.edges.push_back({"m1", "out", "m0", "in"});

  auto result = initiator.establish(plan);
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(result.sessionId.empty());

  auto done = initiator.awaitCompletion(result.sessionId, seconds(10));
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done.at("m0").at("member").asString(), "m0");
  EXPECT_EQ(done.at("m1").at("member").asString(), "m1");

  initiator.terminate(result.sessionId);
  // Unlink must clean member-side session state.  UNLINKs race each other,
  // so wait for both members, not just the first.
  for (int i = 0; i < 100 && !(agents[0]->activeSessions().empty() &&
                               agents[1]->activeSessions().empty());
       ++i) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_TRUE(agents[0]->activeSessions().empty());
  EXPECT_TRUE(agents[1]->activeSessions().empty());
  EXPECT_EQ(agents[0]->stats().sessionsUnlinked, 1u);
  init.stop();
}

TEST_F(SessionRig, AclRejectsUnlistedInitiator) {
  SessionAgent::Config config;
  config.acl = {"trusted-director"};  // our initiator is not on it
  makeMembers(1, config);
  registerEchoApp();
  Dapplet init(net, "stranger");
  Initiator initiator(init);

  Initiator::Plan plan;
  plan.app = "echo";
  plan.members.push_back(Initiator::member(directory, "m0", {"in"}));
  auto result = initiator.establish(plan);
  EXPECT_FALSE(result.ok);
  ASSERT_TRUE(result.rejections.count("m0"));
  EXPECT_NE(result.rejections["m0"].find("access control"),
            std::string::npos);
  EXPECT_EQ(agents[0]->stats().invitesRejectedAcl, 1u);
  init.stop();
}

TEST_F(SessionRig, UnknownAppRejected) {
  makeMembers(1);
  Dapplet init(net, "init");
  Initiator initiator(init);
  Initiator::Plan plan;
  plan.app = "not-registered";
  plan.members.push_back(Initiator::member(directory, "m0", {"in"}));
  auto result = initiator.establish(plan);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.rejections["m0"].find("unknown application"),
            std::string::npos);
  init.stop();
}

TEST_F(SessionRig, UnreachableMemberTimesOutAndAbortsOthers) {
  makeMembers(1);
  registerEchoApp();
  directory.put("ghost", InboxRef{NodeAddress{88, 88}, 1, ""});
  Dapplet init(net, "init");
  Initiator initiator(init);
  Initiator::Plan plan;
  plan.app = "echo";
  plan.phaseTimeout = milliseconds(300);
  plan.members.push_back(Initiator::member(directory, "m0", {"in"}));
  plan.members.push_back(Initiator::member(directory, "ghost", {"in"}));
  auto result = initiator.establish(plan);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.rejections["ghost"].find("timeout"), std::string::npos);
  // The accepted member must have been rolled back.
  for (int i = 0; i < 100 && !agents[0]->activeSessions().empty(); ++i) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_TRUE(agents[0]->activeSessions().empty());
  init.stop();
}

TEST_F(SessionRig, InterferenceBlocksThenReleases) {
  StateStore store;
  SessionAgent::Config config;
  config.store = &store;
  makeMembers(1, config);

  // A long-running role that exits when told.
  std::atomic<bool> release{false};
  agents[0]->registerApp("holder", [&](SessionContext& ctx) {
    while (!release && !ctx.stopToken().stop_requested()) {
      std::this_thread::sleep_for(milliseconds(5));
    }
  });

  Dapplet init(net, "init");
  Initiator initiator(init);
  Initiator::Plan planA;
  planA.app = "holder";
  auto memberA = Initiator::member(directory, "m0", {});
  memberA.writeKeys = {"doc"};
  planA.members.push_back(memberA);
  auto resA = initiator.establish(planA);
  ASSERT_TRUE(resA.ok);

  // Second session writing the same key must be rejected...
  auto resB = initiator.establish(planA);
  EXPECT_FALSE(resB.ok);
  EXPECT_NE(resB.rejections["m0"].find("interference"), std::string::npos);

  // ...but a disjoint session is fine concurrently.
  Initiator::Plan planC = planA;
  planC.members[0].writeKeys = {"other"};
  auto resC = initiator.establish(planC);
  EXPECT_TRUE(resC.ok);

  // After the first session ends, the key is claimable again.
  release = true;
  initiator.awaitCompletion(resA.sessionId, seconds(10));
  initiator.terminate(resA.sessionId);
  for (int i = 0; i < 200; ++i) {
    if (agents[0]->activeSessions().size() == 1) break;
    std::this_thread::sleep_for(milliseconds(10));
  }
  auto resD = initiator.establish(planA);
  EXPECT_TRUE(resD.ok);
  initiator.awaitCompletion(resC.sessionId, seconds(10));
  initiator.awaitCompletion(resD.sessionId, seconds(10));
  initiator.terminate(resC.sessionId);
  initiator.terminate(resD.sessionId);
  init.stop();
}

TEST_F(SessionRig, SessionsGrow) {
  // Paper §1: "after initiation they may grow and shrink as required".
  makeMembers(3);
  // Accumulator role: m0 collects greetings forever (until unlinked);
  // greeter roles send one greeting to m0 and finish.
  std::atomic<int> greetings{0};
  agents[0]->registerApp("grow", [&](SessionContext& ctx) {
    while (true) {
      Delivery del = ctx.inbox("in").receive();  // Shutdown on unlink
      (void)del;
      ++greetings;
    }
  });
  for (std::size_t i = 1; i < 3; ++i) {
    agents[i]->registerApp("grow", [](SessionContext& ctx) {
      DataMessage hello("hello");
      ctx.outbox("out").send(hello);
    });
  }

  Dapplet init(net, "init");
  Initiator initiator(init);
  Initiator::Plan plan;
  plan.app = "grow";
  plan.members.push_back(Initiator::member(directory, "m0", {"in"}));
  plan.members.push_back(Initiator::member(directory, "m1", {}));
  plan.edges.push_back({"m1", "out", "m0", "in"});
  auto result = initiator.establish(plan);
  ASSERT_TRUE(result.ok);

  for (int i = 0; i < 200 && greetings < 1; ++i) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_EQ(greetings.load(), 1);

  // Grow: add m2 with an edge into m0's existing inbox.
  auto newMember = Initiator::member(directory, "m2", {});
  const bool grown = initiator.addMember(
      result.sessionId, newMember, {{"m2", "out", "m0", "in"}}, seconds(5));
  EXPECT_TRUE(grown);
  for (int i = 0; i < 200 && greetings < 2; ++i) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_EQ(greetings.load(), 2);

  initiator.terminate(result.sessionId);
  init.stop();
}

TEST_F(SessionRig, SessionGrowsWhileAnotherThreadAwaitsCompletion) {
  // The initiator's replies are filed by its reactor, not read by whichever
  // call happens to be receiving: a waiter parked in awaitCompletion must
  // not swallow the INVITE and WIRE replies addMember waits for.
  makeMembers(3);
  std::atomic<int> greetings{0};
  agents[0]->registerApp("grow", [&](SessionContext& ctx) {
    while (true) {
      ctx.inbox("in").receive();  // ShutdownError on unlink
      ++greetings;
    }
  });
  for (std::size_t i = 1; i < 3; ++i) {
    agents[i]->registerApp("grow", [](SessionContext& ctx) {
      DataMessage hello("hello");
      ctx.outbox("out").send(hello);
    });
  }

  Dapplet init(net, "init");
  Initiator initiator(init);
  Initiator::Plan plan;
  plan.app = "grow";
  plan.members.push_back(Initiator::member(directory, "m0", {"in"}));
  plan.members.push_back(Initiator::member(directory, "m1", {}));
  plan.edges.push_back({"m1", "out", "m0", "in"});
  auto result = initiator.establish(plan);
  ASSERT_TRUE(result.ok);

  // m0 never finishes, so the waiter stays parked until terminate() below
  // ends the session (or its own timeout passes); either way it must catch.
  std::thread waiter([&] {
    try {
      initiator.awaitCompletion(result.sessionId, seconds(5));
    } catch (const Error&) {
    }
  });
  std::this_thread::sleep_for(milliseconds(50));
  const bool grown = initiator.addMember(
      result.sessionId, Initiator::member(directory, "m2", {}),
      {{"m2", "out", "m0", "in"}}, seconds(2));
  EXPECT_TRUE(grown);
  for (int i = 0; i < 200 && greetings < 2; ++i) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_EQ(greetings.load(), 2);

  initiator.terminate(result.sessionId);
  waiter.join();
  init.stop();
}

TEST_F(SessionRig, BackToBackSessionsShareOneReplyStreamPerMember) {
  // One reply inbox per initiator, not per session: a member's agent keeps
  // one cached reply outbox towards it however many sessions come and go.
  makeMembers(2);
  registerEchoApp();
  Dapplet init(net, "init");
  Initiator initiator(init);
  runEchoSessions(initiator, 3);
  // The session outboxes go at unlink; only the reply stream stays.
  for (std::size_t m = 0; m < 2; ++m) {
    for (int i = 0; i < 200 && !agents[m]->activeSessions().empty(); ++i) {
      std::this_thread::sleep_for(milliseconds(10));
    }
    EXPECT_TRUE(agents[m]->activeSessions().empty());
    EXPECT_EQ(dapplets[m]->describe().at("outboxes").asList().size(), 1u);
  }
  init.stop();
}

TEST_F(SessionRig, BackToBackSessionsShareOneControlStreamPerMember) {
  // The initiator, too, keeps one channel per member for every session, so
  // each member's UNLINK is ordered before the next session's INVITE.
  makeMembers(2);
  registerEchoApp();
  Dapplet init(net, "init");
  Initiator initiator(init);
  runEchoSessions(initiator, 3);
  // Outbox ids count up from 1; this rig's initiator uses fewer than 64.
  for (std::size_t m = 0; m < 2; ++m) {
    int streams = 0;
    for (std::uint64_t id = 1; id < 64; ++id) {
      if (init.transport().probeStream(dapplets[m]->address(), id).exists) {
        ++streams;
      }
    }
    EXPECT_EQ(1, streams) << "send streams to m" << m;
  }
  init.stop();
}

TEST_F(SessionRig, StoppingAMemberDappletEndsItsRole) {
  // A role that runs until its stop token fires ends when its dapplet stops,
  // even while the session is still linked: stop() joins the role.
  makeMembers(1);
  std::atomic<bool> running{false};
  std::atomic<bool> watchdog{false};  // frees a stop() stuck on the role
  agents[0]->registerApp("linger", [&](SessionContext& ctx) {
    running = true;
    while (!ctx.stopToken().stop_requested() && !watchdog) {
      std::this_thread::sleep_for(milliseconds(2));
    }
  });
  Dapplet init(net, "init");
  Initiator initiator(init);
  Initiator::Plan plan;
  plan.app = "linger";
  plan.members.push_back(Initiator::member(directory, "m0", {}));
  ASSERT_TRUE(initiator.establish(plan).ok);
  for (int i = 0; i < 200 && !running; ++i) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  ASSERT_TRUE(running);

  std::promise<void> stopped;
  std::future<void> done = stopped.get_future();
  std::thread stopper([&] {
    dapplets[0]->stop();
    stopped.set_value();
  });
  const bool inTime = done.wait_for(seconds(5)) == std::future_status::ready;
  watchdog = true;
  stopper.join();
  EXPECT_TRUE(inTime) << "stop() waited for a role whose session was live";
  init.stop();
}

/// A member run by hand instead of by a SessionAgent, for answers no agent
/// gives: it accepts every INVITE unless `silent`, refuses every WIRE, and
/// counts the UNLINKs it receives.
struct ScriptedMember {
  ScriptedMember(SimNetwork& net, bool silent) : dapplet(net, "scripted") {
    Inbox& control = dapplet.createInbox();
    ref = control.ref();
    control.onMessage([this, silent](Delivery del) {
      const Message& m = *del.message;
      if (const auto* invite = dynamic_cast<const InviteMsg*>(&m)) {
        if (silent) return;
        if (replies.fanout() == 0) replies.add(invite->replyTo);
        InviteReplyMsg reply;
        reply.sessionId = invite->sessionId;
        reply.memberName = invite->memberName;
        reply.accepted = true;
        replies.send(reply);
      } else if (const auto* wire = dynamic_cast<const WireMsg*>(&m)) {
        WireReplyMsg reply;
        reply.sessionId = wire->sessionId;
        reply.memberName = "scripted";
        reply.reason = "wiring refused";
        replies.send(reply);
      } else if (dynamic_cast<const UnlinkMsg*>(&m) != nullptr) {
        ++unlinks;
      }
    });
  }

  bool awaitUnlinks(int n) const {
    for (int i = 0; i < 200 && unlinks < n; ++i) {
      std::this_thread::sleep_for(milliseconds(10));
    }
    return unlinks == n;
  }

  std::atomic<int> unlinks{0};
  Dapplet dapplet;  // after `unlinks`: stopped first, with its handler
  Outbox& replies = dapplet.createOutbox();
  InboxRef ref;
};

TEST_F(SessionRig, RefusedWireFailsGrowthAtOnceAndRollsItBack) {
  // A refused WIRE ends addMember's wait, and the newcomer leaves the
  // session as if never added: it is unlinked, and awaitCompletion does not
  // wait for a member that was never started.
  makeMembers(1);
  agents[0]->registerApp("solo", [](SessionContext& ctx) {
    ctx.setResult(Value(ctx.self()));
  });
  ScriptedMember scripted(net, false);
  directory.put("scripted", scripted.ref);
  Dapplet init(net, "init");
  Initiator initiator(init);
  Initiator::Plan plan;
  plan.app = "solo";
  plan.members.push_back(Initiator::member(directory, "m0", {}));
  auto result = initiator.establish(plan);
  ASSERT_TRUE(result.ok);

  const auto before = std::chrono::steady_clock::now();
  EXPECT_FALSE(initiator.addMember(result.sessionId,
                                   Initiator::member(directory, "scripted", {}),
                                   {}, seconds(5)));
  EXPECT_LT(std::chrono::steady_clock::now() - before, seconds(2));
  EXPECT_TRUE(scripted.awaitUnlinks(1));
  const auto results = initiator.awaitCompletion(result.sessionId, seconds(5));
  EXPECT_EQ(1u, results.size());
  EXPECT_EQ("m0", results.at("m0").asString());
  initiator.terminate(result.sessionId);
  init.stop();
}

TEST_F(SessionRig, FailedSetupsUnlinkMembersThatNeverAnswered) {
  // A member whose INVITE answer was lost has linked the session all the
  // same, so an aborted establish and a failed addMember both unlink it.
  makeMembers(1);
  registerEchoApp();
  ScriptedMember silent(net, true);
  directory.put("scripted", silent.ref);
  Dapplet init(net, "init");
  Initiator initiator(init);
  Initiator::Plan plan;
  plan.app = "echo";
  plan.phaseTimeout = milliseconds(300);
  plan.members.push_back(Initiator::member(directory, "m0", {"in"}));
  plan.members.push_back(Initiator::member(directory, "scripted", {"in"}));
  auto result = initiator.establish(plan);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.rejections["scripted"].find("timeout"), std::string::npos);
  EXPECT_TRUE(silent.awaitUnlinks(1));

  Initiator::Plan solo;
  solo.app = "echo";
  solo.members.push_back(Initiator::member(directory, "m0", {}));
  result = initiator.establish(solo);
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(initiator.addMember(result.sessionId,
                                   Initiator::member(directory, "scripted", {}),
                                   {}, milliseconds(300)));
  EXPECT_TRUE(silent.awaitUnlinks(2));
  initiator.terminate(result.sessionId);
  init.stop();
}

TEST_F(SessionRig, SessionsShrink) {
  makeMembers(2);
  std::atomic<int> beats{0};
  // m0 beats into m1 until m1 is removed; m1 counts.
  agents[0]->registerApp("shrink", [&](SessionContext& ctx) {
    Outbox& out = ctx.outbox("out");
    while (!ctx.stopToken().stop_requested()) {
      if (out.fanout() > 0) {
        DataMessage beat("beat");
        out.send(beat);
      }
      std::this_thread::sleep_for(milliseconds(5));
    }
  });
  agents[1]->registerApp("shrink", [&](SessionContext& ctx) {
    while (true) {
      Delivery del = ctx.inbox("in").receive();
      (void)del;
      ++beats;
    }
  });

  Dapplet init(net, "init");
  Initiator initiator(init);
  Initiator::Plan plan;
  plan.app = "shrink";
  plan.members.push_back(Initiator::member(directory, "m0", {}));
  plan.members.push_back(Initiator::member(directory, "m1", {"in"}));
  plan.edges.push_back({"m0", "out", "m1", "in"});
  auto result = initiator.establish(plan);
  ASSERT_TRUE(result.ok);
  for (int i = 0; i < 200 && beats < 3; ++i) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_GE(beats.load(), 3);

  // Shrink: remove m1; its binding is dropped at m0.
  initiator.removeMember(result.sessionId, "m1");
  for (int i = 0; i < 100 && !agents[1]->activeSessions().empty(); ++i) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_TRUE(agents[1]->activeSessions().empty());
  // m0's outbox lost the target, so no more sends reach m1.
  Outbox* unused = nullptr;
  (void)unused;
  initiator.terminate(result.sessionId);
  init.stop();
}

TEST_F(SessionRig, ConcurrentSessionsOnDisjointMembers) {
  makeMembers(4);
  registerEchoApp();
  Dapplet init(net, "init");
  Initiator initiator(init);

  const auto makePlan = [&](const std::string& x, const std::string& y) {
    Initiator::Plan plan;
    plan.app = "echo";
    plan.members.push_back(Initiator::member(directory, x, {"in"}));
    plan.members.push_back(Initiator::member(directory, y, {"in"}));
    plan.edges.push_back({x, "out", y, "in"});
    plan.edges.push_back({y, "out", x, "in"});
    return plan;
  };
  auto r1 = initiator.establish(makePlan("m0", "m1"));
  auto r2 = initiator.establish(makePlan("m2", "m3"));
  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(initiator.awaitCompletion(r1.sessionId, seconds(10)).size(), 2u);
  EXPECT_EQ(initiator.awaitCompletion(r2.sessionId, seconds(10)).size(), 2u);
  initiator.terminate(r1.sessionId);
  initiator.terminate(r2.sessionId);
  init.stop();
}

TEST_F(SessionRig, MemberParamsAndSessionParamsReachRoles) {
  makeMembers(1);
  std::atomic<long long> got{0};
  agents[0]->registerApp("params", [&](SessionContext& ctx) {
    got = ctx.params().at("mine").asInt() * 1000 +
          ctx.sessionParams().at("shared").asInt();
  });
  Dapplet init(net, "init");
  Initiator initiator(init);
  Initiator::Plan plan;
  plan.app = "params";
  ValueMap shared;
  shared["shared"] = Value(7);
  plan.params = Value(std::move(shared));
  ValueMap mine;
  mine["mine"] = Value(3);
  plan.members.push_back(
      Initiator::member(directory, "m0", {}, Value(std::move(mine))));
  auto result = initiator.establish(plan);
  ASSERT_TRUE(result.ok);
  initiator.awaitCompletion(result.sessionId, seconds(10));
  EXPECT_EQ(got.load(), 3007);
  initiator.terminate(result.sessionId);
  init.stop();
}

TEST_F(SessionRig, RoleErrorsAreReportedInDoneResult) {
  makeMembers(1);
  agents[0]->registerApp("bad", [](SessionContext&) {
    throw TokenError("role exploded");
  });
  Dapplet init(net, "init");
  Initiator initiator(init);
  Initiator::Plan plan;
  plan.app = "bad";
  plan.members.push_back(Initiator::member(directory, "m0", {}));
  auto result = initiator.establish(plan);
  ASSERT_TRUE(result.ok);
  auto done = initiator.awaitCompletion(result.sessionId, seconds(10));
  ASSERT_TRUE(done.at("m0").contains("error"));
  EXPECT_NE(done.at("m0").at("error").asString().find("role exploded"),
            std::string::npos);
  initiator.terminate(result.sessionId);
  init.stop();
}

}  // namespace
}  // namespace dapple
