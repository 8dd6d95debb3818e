// Dynamic sessions + the directory service.
//
//   $ ./dynamic_session
//
// Paper §1: sessions "need not be static: after initiation they may grow
// and shrink as required", and §3.1 leaves directory maintenance open —
// here a DirectoryServer maintains it.  A moderator links two panelists
// discovered through the registry into a Q&A session, a latecomer
// registers and is added live, and one panelist is removed mid-session.
#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "dapple/core/session.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/services/directory/directory_service.hpp"

using namespace dapple;

namespace {

std::atomic<int> g_answers{0};

/// Panelist role: answer every question that arrives until unlinked.
void panelistRole(SessionContext& ctx) {
  Inbox& questions = ctx.inbox("questions");
  Outbox& answers = ctx.outbox("answers");
  while (true) {
    Delivery del = questions.receive();  // ShutdownError on unlink
    const auto& q = del.as<DataMessage>();
    DataMessage a("answer");
    a.set("from", Value(ctx.self()));
    a.set("q", q.get("n"));
    answers.send(a);
  }
}

/// Moderator role: poses questions, tallies the answers.
void moderatorRole(SessionContext& ctx) {
  Inbox& answers = ctx.inbox("answers");
  while (!ctx.stopToken().stop_requested()) {
    auto del = answers.tryReceive();
    if (!del) {
      std::this_thread::sleep_for(milliseconds(2));
      continue;
    }
    const auto& a = del->as<DataMessage>();
    std::printf("  moderator: %s answered question %lld\n",
                a.get("from").asString().c_str(),
                static_cast<long long>(a.get("q").asInt()));
    ++g_answers;
  }
}

}  // namespace

int main() {
  SimNetwork net(2468);
  net.setDefaultLink(LinkParams{microseconds(500), microseconds(250), 0, 0});

  // The registry: a dapplet anyone can register with.
  Dapplet registryD(net, "registry");
  DirectoryServer registry(registryD);

  // Panelists self-register their session-control inboxes.
  auto makePanelist = [&](const std::string& name) {
    auto d = std::make_unique<Dapplet>(net, name);
    auto agent = std::make_unique<SessionAgent>(*d);
    agent->registerApp("qa", [](SessionContext& ctx) {
      if (ctx.params().at("role").asString() == "moderator") {
        moderatorRole(ctx);
      } else {
        panelistRole(ctx);
      }
    });
    DirectoryClient self(*d, registry.ref());
    self.registerName("panel." + name, agent->controlRef());
    return std::pair(std::move(d), std::move(agent));
  };
  auto [ann, annAgent] = makePanelist("ann");
  auto [raj, rajAgent] = makePanelist("raj");

  // The moderator discovers the current panel through the registry.
  Dapplet modD(net, "moderator");
  SessionAgent modAgent(modD);
  modAgent.registerApp("qa", [](SessionContext& ctx) {
    moderatorRole(ctx);
  });
  DirectoryClient discovery(modD, registry.ref());
  discovery.registerName("panel.moderator", modAgent.controlRef());
  Directory panel = discovery.list("panel.");
  std::printf("registry lists %zu participants\n", panel.size());

  const auto roleParam = [](const std::string& role) {
    ValueMap m;
    m["role"] = Value(role);
    return Value(std::move(m));
  };

  Initiator initiator(modD);
  Initiator::Plan plan;
  plan.app = "qa";
  plan.members.push_back(Initiator::member(panel, "panel.moderator",
                                           {"answers"},
                                           roleParam("moderator")));
  for (const std::string name : {"panel.ann", "panel.raj"}) {
    plan.members.push_back(Initiator::member(panel, name, {"questions"},
                                             roleParam("panelist")));
    plan.edges.push_back({name, "answers", "panel.moderator", "answers"});
  }
  auto result = initiator.establish(plan);
  if (!result.ok) {
    std::printf("session failed to establish\n");
    return 1;
  }
  std::printf("Q&A session %s established with 2 panelists\n",
              result.sessionId.c_str());

  // Ask round 1 directly through a moderator-owned outbox bound to the
  // panelists' session inboxes via the directory-returned refs... the
  // moderator's role owns the session ports, so the simplest way for main
  // to inject questions is a plain outbox to each panelist's session inbox
  // — but those are session-private.  Instead the initiator *grows* the
  // session with a "question desk" member whose wiring fans questions out.
  Dapplet deskD(net, "desk");
  SessionAgent deskAgent(deskD);
  std::atomic<bool> deskReady{false};
  deskAgent.registerApp("qa", [&](SessionContext& ctx) {
    Outbox& questions = ctx.outbox("ask");
    for (int n = 1; n <= 3; ++n) {
      DataMessage q("question");
      q.set("n", Value(n));
      questions.send(q);
    }
    deskReady = true;
    while (!ctx.stopToken().stop_requested()) {
      std::this_thread::sleep_for(milliseconds(5));
    }
  });
  DirectoryClient deskClient(deskD, registry.ref());
  deskClient.registerName("panel.desk", deskAgent.controlRef());

  auto deskPlan = Initiator::member(discovery.list("panel."), "panel.desk",
                                    {}, roleParam("desk"));
  const bool grown = initiator.addMember(
      result.sessionId, deskPlan,
      {{"panel.desk", "ask", "panel.ann", "questions"},
       {"panel.desk", "ask", "panel.raj", "questions"}},
      seconds(10));
  if (!grown) {
    std::printf("session failed to grow\n");
    return 1;
  }
  std::printf("session grew with a question desk\n");
  while (g_answers < 6) std::this_thread::sleep_for(milliseconds(5));
  std::printf("both panelists answered 3 questions (6 answers)\n");

  // Shrink: raj leaves the panel mid-session.  removeMember returns once
  // raj's UNLINK is queued; raj unlinks when it arrives.
  initiator.removeMember(result.sessionId, "panel.raj");
  for (int i = 0; i < 400 && !rajAgent->activeSessions().empty(); ++i) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  std::printf("raj removed from the session; active sessions at raj: %zu\n",
              rajAgent->activeSessions().size());

  initiator.terminate(result.sessionId);
  std::printf("session terminated.\n");

  modD.stop();
  deskD.stop();
  registryD.stop();
  ann->stop();
  raj->stop();
  return 0;
}
