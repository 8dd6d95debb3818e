#include <cstring>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "dapple/core/service.hpp"
#include "dapple/core/session.hpp"
#include "dapple/util/log.hpp"

namespace dapple {

namespace {
constexpr const char* kLog = "session";

/// Reserved state-store key prefix for journaled session metadata
/// (Config::durableSessions).  Roles cannot touch these keys: session
/// access sets go through StateView, which only admits declared keys.
constexpr const char* kJournalPrefix = "dapple.sess/";

AccessSets toSets(const std::vector<std::string>& reads,
                  const std::vector<std::string>& writes) {
  AccessSets sets;
  sets.reads.insert(reads.begin(), reads.end());
  sets.writes.insert(writes.begin(), writes.end());
  return sets;
}

Value stringsToValue(const std::vector<std::string>& v) {
  ValueList out;
  out.reserve(v.size());
  for (const std::string& s : v) out.emplace_back(s);
  return Value(std::move(out));
}

std::vector<std::string> stringsFromValue(const Value& v) {
  std::vector<std::string> out;
  for (const Value& s : v.asList()) out.push_back(s.asString());
  return out;
}
}  // namespace

/// Shared state of one linked session at a member.
struct SessionContext::Record {
  std::string sessionId;
  std::string app;
  std::string memberName;
  std::string initiatorName;
  InboxRef initiatorReply;

  std::map<std::string, Inbox*> inboxes;    // session-local name -> inbox
  std::map<std::string, Outbox*> outboxes;  // session-local name -> outbox
  Outbox* replyOutbox = nullptr;            // bound to initiatorReply

  std::optional<StateView> stateView;
  std::vector<std::string> peers;
  Value memberParams;
  Value sessionParams;
  std::string livenessKey;  // monitor watch key for the initiator ("" = none)

  std::stop_source stopSource;

  std::mutex mutex;  // guards the mutable fields below
  Value result;
  bool started = false;
  bool roleFinished = false;
  bool unlinked = false;
  /// Crash recovery: true while this record is a restarted session waiting
  /// for the initiator's REJOIN verdict; acked flips when it arrives.
  bool rejoinPending = false;
  bool rejoinAcked = false;
};

SessionContext::SessionContext(Dapplet& dapplet, std::shared_ptr<Record> rec)
    : dapplet_(dapplet),
      record_(std::move(rec)),
      sessionId_(record_->sessionId),
      app_(record_->app),
      self_(record_->memberName),
      peers_(record_->peers),
      params_(record_->memberParams) {}

const Value& SessionContext::sessionParams() const {
  return record_->sessionParams;
}

Inbox& SessionContext::inbox(const std::string& name) const {
  const auto it = record_->inboxes.find(name);
  if (it == record_->inboxes.end()) {
    throw AddressError("session " + sessionId_ + ": no inbox '" + name + "'");
  }
  return *it->second;
}

Outbox& SessionContext::outbox(const std::string& name) const {
  const auto it = record_->outboxes.find(name);
  if (it == record_->outboxes.end()) {
    throw AddressError("session " + sessionId_ + ": no outbox '" + name +
                       "'");
  }
  return *it->second;
}

bool SessionContext::hasInbox(const std::string& name) const {
  return record_->inboxes.count(name) != 0;
}

bool SessionContext::hasOutbox(const std::string& name) const {
  return record_->outboxes.count(name) != 0;
}

StateView& SessionContext::state() const {
  if (!record_->stateView) {
    throw StateError("session " + sessionId_ +
                     ": member has no persistent state store");
  }
  return *record_->stateView;
}

std::stop_token SessionContext::stopToken() const {
  return record_->stopSource.get_token();
}

void SessionContext::setResult(Value result) {
  std::scoped_lock lock(record_->mutex);
  record_->result = std::move(result);
}

// ===========================================================================

struct SessionAgent::Impl : ServiceCore,
                            std::enable_shared_from_this<SessionAgent::Impl> {
  Impl(Dapplet& dapplet, Config config)
      : ServiceCore(dapplet, kSessionControlInbox),
        cfg(std::move(config)),
        mInvitesAccepted(&d.metricsRegistry().counter("session.invites_accepted")),
        mInvitesRejected(&d.metricsRegistry().counter("session.invites_rejected")),
        mSessionsCompleted(
            &d.metricsRegistry().counter("session.sessions_completed")),
        mSessionsUnlinked(
            &d.metricsRegistry().counter("session.sessions_unlinked")),
        mInitiatorsLost(&d.metricsRegistry().counter("session.initiators_lost")),
        mPeersEvicted(&d.metricsRegistry().counter("session.peers_evicted")),
        mRejoinRequests(
            &d.metricsRegistry().counter("recovery.rejoin_requests")),
        mRejoinAccepted(
            &d.metricsRegistry().counter("recovery.rejoin_accepted")),
        mRejoinRejected(
            &d.metricsRegistry().counter("recovery.rejoin_rejected")),
        mPeersRejoined(&d.metricsRegistry().counter("recovery.peer_rejoined")),
        trace(&d.trace()) {}

  Config cfg;

  // Counters registered once on the owning dapplet; a Stats struct mirror is
  // kept for the pre-observability stats() accessor.
  obs::Counter* mInvitesAccepted;
  obs::Counter* mInvitesRejected;
  obs::Counter* mSessionsCompleted;
  obs::Counter* mSessionsUnlinked;
  obs::Counter* mInitiatorsLost;
  obs::Counter* mPeersEvicted;
  obs::Counter* mRejoinRequests;
  obs::Counter* mRejoinAccepted;
  obs::Counter* mRejoinRejected;
  obs::Counter* mPeersRejoined;
  obs::TraceRing* trace;

  // Set by ~SessionAgent under `journalMutex`: role threads and rejoin
  // retry steps hold Impl alive past the agent (and past cfg.store, which is
  // only guaranteed to outlive the *agent*), so journal access must stop
  // here.
  std::mutex journalMutex;
  bool closed = false;
  /// Rejoin retry chains in flight, keyed by session id and guarded by
  /// `journalMutex`.  A shared reactor outlives the dapplet by contract, so
  /// every pending step's TimerHandle is retained here for ~SessionAgent to
  /// cancel — otherwise a step firing after teardown would touch the
  /// dangling `d` reference.
  std::map<std::string, Reactor::TimerHandle> rejoinTimers;

  std::map<std::string, RoleFn> roles;
  std::map<std::string, std::shared_ptr<SessionContext::Record>> sessions;
  InterferenceGuard interference;
  Stats stats;

  // Cache of outboxes keyed by reply target, reused across sessions so each
  // initiator sees one FIFO stream from this agent.
  std::map<std::uint64_t, Outbox*> replyOutboxes;
  std::mutex replyMutex;

  // -- helpers -----------------------------------------------------------

  /// Sends `msg` to `target` over a cached dedicated outbox.  Every session
  /// of one initiator replies on that stream, so a failed stream (the
  /// initiator was unreachable past deliveryTimeout) is reset and the send
  /// retried once: onPeerFailure unlinks the sessions the failure broke,
  /// and the failure must not outlive the outage for the sessions after.
  void reply(const InboxRef& target, const Message& msg) {
    Outbox* box = nullptr;
    {
      std::scoped_lock lock(replyMutex);
      const std::uint64_t key =
          target.node.packed() * 1000003u + target.localId;
      const auto it = replyOutboxes.find(key);
      if (it != replyOutboxes.end()) {
        box = it->second;
      } else {
        box = &d.createOutbox();
        box->add(target);
        replyOutboxes.emplace(key, box);
      }
    }
    try {
      box->send(msg);
    } catch (const DeliveryError&) {
      box->reset();
      box->send(msg);
    }
  }

  /// How many times a restarted member re-sends its REJOIN before declaring
  /// the initiator unreachable and discarding the journaled session.
  static constexpr int kRejoinAttempts = 8;

  /// Rejoin retry: one send per step, rescheduled through the timer wheel
  /// with a linear backoff (clock-routed, so virtual-time safe).  Each step
  /// holds Impl alive via shared_from_this, but Impl's `d` is a plain
  /// reference and a shared reactor outlives the dapplet by contract, so
  /// every step re-checks `closed` before touching `d` and the armed
  /// TimerHandle is retained in `rejoinTimers` — ~SessionAgent cancels
  /// it (cancel additionally waits out an in-flight step) so no step can run
  /// once the agent is gone.
  void rejoinRetryStep(std::shared_ptr<SessionContext::Record> rec,
                       RejoinMsg rj, int attempt) {
    const std::string sessionId = rec->sessionId;
    {
      std::scoped_lock lock(journalMutex);
      if (closed) {  // agent destroyed: `d` may be next — never touch it
        rejoinTimers.erase(sessionId);
        return;
      }
    }
    bool settled;
    {
      std::scoped_lock lock(rec->mutex);
      settled = rec->rejoinAcked || rec->unlinked;
    }
    if (settled || attempt >= kRejoinAttempts) {
      {
        std::scoped_lock lock(journalMutex);
        rejoinTimers.erase(sessionId);
        if (closed) return;  // agent destroyed: leave the journal be
      }
      if (settled) return;  // verdict arrived: chain retired
      trace->emit("recovery", "rejoin.giveup", sessionId);
      eraseJournal(sessionId);
      unlinkLocal(rec, true);
      return;
    }
    try {
      reply(rec->initiatorReply, rj);
    } catch (const Error&) {
      // The next step sends again.
    }
    auto self = shared_from_this();
    const Duration delay = milliseconds(100) * (attempt + 1);
    std::scoped_lock lock(journalMutex);
    if (closed) {  // destroyed while we were sending: do not re-arm
      rejoinTimers.erase(sessionId);
      return;
    }
    rejoinTimers[sessionId] =
        d.after(delay, [self, rec = std::move(rec), rj = std::move(rj),
                        attempt] { self->rejoinRetryStep(rec, rj, attempt + 1); });
  }

  // -- crash-recovery journal (Config::durableSessions) -------------------

  bool journaling() const {
    return cfg.durableSessions && cfg.store != nullptr;
  }

  static std::string journalKey(const std::string& sessionId) {
    return kJournalPrefix + sessionId;
  }

  /// Persists everything a restarted process needs to re-enter the
  /// session: identity, the initiator's reply/liveness refs, the inbox
  /// names to re-create, the declared access sets, and the member params.
  void journalSession(const InviteMsg& m) {
    ValueMap meta;
    meta["app"] = Value(m.app);
    meta["member"] = Value(m.memberName);
    meta["initiator"] = Value(m.initiatorName);
    meta["reply"] = inboxRefToValue(m.replyTo);
    meta["liveness"] = inboxRefToValue(m.livenessRef);
    meta["inboxes"] = stringsToValue(m.inboxesToCreate);
    meta["reads"] = stringsToValue(m.readKeys);
    meta["writes"] = stringsToValue(m.writeKeys);
    meta["params"] = m.params;
    std::scoped_lock lock(journalMutex);
    if (!closed) cfg.store->put(journalKey(m.sessionId), Value(std::move(meta)));
  }

  void eraseJournal(const std::string& sessionId) {
    std::scoped_lock lock(journalMutex);
    if (closed) return;  // the store may already be gone
    if (journaling()) cfg.store->erase(journalKey(sessionId));
  }

  void dispatch(const Delivery& del) {
    const Message& m = *del.message;
    if (const auto* invite = dynamic_cast<const InviteMsg*>(&m)) {
      onInvite(*invite);
    } else if (const auto* wire = dynamic_cast<const WireMsg*>(&m)) {
      onWire(*wire);
    } else if (const auto* start = dynamic_cast<const StartMsg*>(&m)) {
      onStart(*start);
    } else if (const auto* unlink = dynamic_cast<const UnlinkMsg*>(&m)) {
      onUnlink(*unlink);
    } else if (const auto* unbind = dynamic_cast<const UnbindMsg*>(&m)) {
      onUnbind(*unbind);
    } else if (const auto* down = dynamic_cast<const MemberDownMsg*>(&m)) {
      onMemberDown(*down);
    } else if (const auto* ack = dynamic_cast<const RejoinAckMsg*>(&m)) {
      onRejoinAck(*ack);
    } else if (const auto* up = dynamic_cast<const MemberUpMsg*>(&m)) {
      onMemberUp(*up);
    } else {
      DAPPLE_LOG(kDebug, kLog) << d.name() << ": unexpected control message "
                               << m.typeName();
    }
  }

  void onInvite(const InviteMsg& m) {
    InviteReplyMsg out;
    out.sessionId = m.sessionId;
    out.memberName = m.memberName;
    {
      std::scoped_lock lock(mutex);
      const auto existing = sessions.find(m.sessionId);
      if (existing != sessions.end()) {
        // Duplicate invite (e.g. initiator retry): re-confirm idempotently.
        out.accepted = true;
        for (const auto& [name, box] : existing->second->inboxes) {
          out.inboxRefs[name] = box->ref();
        }
        if (cfg.monitor != nullptr) out.livenessRef = cfg.monitor->ref();
      } else if (!cfg.acl.empty() && cfg.acl.count(m.initiatorName) == 0) {
        out.accepted = false;
        out.reason = "initiator '" + m.initiatorName +
                     "' is not on the access control list";
        ++stats.invitesRejectedAcl;
        mInvitesRejected->inc();
        trace->emit("session", "invite.reject", out.reason);
      } else if (roles.count(m.app) == 0) {
        out.accepted = false;
        out.reason = "unknown application '" + m.app + "'";
        ++stats.invitesRejectedUnknownApp;
        mInvitesRejected->inc();
        trace->emit("session", "invite.reject", out.reason);
      } else if (!interference.tryClaim(
                     m.sessionId, toSets(m.readKeys, m.writeKeys))) {
        // Paper §3.1: "it is already participating in a session and another
        // concurrent session would cause interference".
        out.accepted = false;
        out.reason = "interference with a concurrent session";
        ++stats.invitesRejectedInterference;
        mInvitesRejected->inc();
        trace->emit("session", "invite.reject",
                    m.sessionId + ": " + out.reason);
      } else {
        auto rec = std::make_shared<SessionContext::Record>();
        rec->sessionId = m.sessionId;
        rec->app = m.app;
        rec->memberName = m.memberName;
        rec->initiatorName = m.initiatorName;
        rec->initiatorReply = m.replyTo;
        rec->memberParams = m.params;
        for (const std::string& name : m.inboxesToCreate) {
          Inbox& box = d.createInbox();
          rec->inboxes[name] = &box;
          out.inboxRefs[name] = box.ref();
        }
        if (cfg.store != nullptr) {
          rec->stateView.emplace(*cfg.store,
                                 toSets(m.readKeys, m.writeKeys));
        }
        if (cfg.monitor != nullptr) {
          out.livenessRef = cfg.monitor->ref();
          if (m.livenessRef.valid()) {
            // Watch the initiator back: if it dies, the session is headless
            // and this member unlinks itself (see the onSuspect hook).
            rec->livenessKey = "init/" + m.sessionId;
            cfg.monitor->watch(rec->livenessKey, m.livenessRef);
          }
        }
        sessions[m.sessionId] = rec;
        out.accepted = true;
        ++stats.invitesAccepted;
        mInvitesAccepted->inc();
        if (journaling()) journalSession(m);
      }
    }
    reply(m.replyTo, out);
  }

  void onWire(const WireMsg& m) {
    WireReplyMsg out;
    out.sessionId = m.sessionId;
    std::shared_ptr<SessionContext::Record> rec;
    {
      std::scoped_lock lock(mutex);
      const auto it = sessions.find(m.sessionId);
      if (it != sessions.end()) rec = it->second;
    }
    if (!rec) {
      out.ok = false;
      out.reason = "unknown session";
      DAPPLE_LOG(kDebug, kLog) << d.name() << ": WIRE for unknown session "
                               << m.sessionId;
      return;  // nowhere to reply without a record
    }
    out.memberName = rec->memberName;
    {
      std::scoped_lock lock(mutex);
      for (const Binding& binding : m.bindings) {
        Outbox*& box = rec->outboxes[binding.outboxName];
        if (box == nullptr) box = &d.createOutbox();
        for (const InboxRef& target : binding.targets) box->add(target);
      }
      out.ok = true;
    }
    reply(rec->initiatorReply, out);
  }

  void onUnbind(const UnbindMsg& m) {
    std::scoped_lock lock(mutex);
    const auto it = sessions.find(m.sessionId);
    if (it == sessions.end()) return;
    auto& rec = it->second;
    for (const Binding& binding : m.bindings) {
      const auto boxIt = rec->outboxes.find(binding.outboxName);
      if (boxIt == rec->outboxes.end()) continue;
      for (const InboxRef& target : binding.targets) {
        try {
          boxIt->second->remove(target);
        } catch (const AddressError&) {
          // Already unbound; shrink is idempotent.
        }
      }
    }
  }

  void onStart(const StartMsg& m) {
    std::shared_ptr<SessionContext::Record> rec;
    RoleFn role;
    {
      std::scoped_lock lock(mutex);
      const auto it = sessions.find(m.sessionId);
      if (it == sessions.end()) {
        DAPPLE_LOG(kDebug, kLog) << d.name() << ": START for unknown session "
                                 << m.sessionId;
        return;
      }
      rec = it->second;
      {
        std::scoped_lock recLock(rec->mutex);
        if (rec->started) return;  // duplicate START
        rec->started = true;
      }
      rec->peers = m.peers;
      rec->sessionParams = m.params;
      role = roles.at(rec->app);
    }
    auto self = shared_from_this();
    d.spawn([self, rec, role](std::stop_token) {
      self->runRole(rec, role);
    });
  }

  void runRole(const std::shared_ptr<SessionContext::Record>& rec,
               const RoleFn& role) {
    SessionContext ctx(d, rec);
    try {
      role(ctx);
    } catch (const ShutdownError&) {
      // Session unlinked (or dapplet stopping) while the role was blocked.
    } catch (const Error& e) {
      DAPPLE_LOG(kWarn, kLog) << d.name() << ": role for session "
                              << rec->sessionId << " failed: " << e.what();
      std::scoped_lock lock(rec->mutex);
      ValueMap err;
      err["error"] = Value(std::string(e.what()));
      rec->result = Value(std::move(err));
    }
    bool sendDone = false;
    {
      std::scoped_lock lock(rec->mutex);
      rec->roleFinished = true;
      sendDone = !rec->unlinked;
    }
    if (sendDone) {
      DoneMsg done;
      done.sessionId = rec->sessionId;
      done.memberName = rec->memberName;
      {
        std::scoped_lock lock(rec->mutex);
        done.result = rec->result;
      }
      try {
        reply(rec->initiatorReply, done);
      } catch (const Error& e) {
        DAPPLE_LOG(kWarn, kLog) << d.name() << ": DONE send failed: "
                                << e.what();
      }
      {
        std::scoped_lock lock(mutex);
        ++stats.sessionsCompleted;
      }
      mSessionsCompleted->inc();
      trace->emit("session", "session.done", rec->sessionId);
    }
    maybeCleanup(rec);
  }

  void onUnlink(const UnlinkMsg& m) {
    std::shared_ptr<SessionContext::Record> rec;
    {
      std::scoped_lock lock(mutex);
      const auto it = sessions.find(m.sessionId);
      if (it == sessions.end()) return;
      rec = it->second;
    }
    unlinkLocal(rec, false);
  }

  /// Tears a linked session down from this side: used for UNLINK and when
  /// the session's initiator is declared dead (headless sessions cannot
  /// complete — nobody would collect DONE or send UNLINK).
  void unlinkLocal(const std::shared_ptr<SessionContext::Record>& rec,
                   bool initiatorLost) {
    {
      std::scoped_lock lock(mutex);
      if (sessions.count(rec->sessionId) == 0) return;
      ++stats.sessionsUnlinked;
      if (initiatorLost) ++stats.initiatorsLost;
    }
    mSessionsUnlinked->inc();
    if (initiatorLost) {
      mInitiatorsLost->inc();
      trace->emit("session", "initiator.lost", rec->sessionId);
    }
    {
      std::scoped_lock lock(rec->mutex);
      rec->unlinked = true;
    }
    rec->stopSource.request_stop();
    // Wake any role blocked on a session inbox.
    for (const auto& [name, box] : rec->inboxes) box->close();
    maybeCleanup(rec);
  }

  /// A peer dapplet at `node` crash-stopped: drop this session's bindings to
  /// it, clear the resulting stream failures so survivor channels keep
  /// working, and fail blocked receives fast.  Every session inbox gets one
  /// PeerDownError alert — the agent cannot know which inboxes the dead peer
  /// fed, so roles must treat the error as "session degraded, a peer is
  /// gone" and re-enter receive if they still expect survivor traffic.
  void evictNode(const std::shared_ptr<SessionContext::Record>& rec,
                 const NodeAddress& node, const std::string& reason) {
    std::vector<Outbox*> outboxes;
    {
      std::scoped_lock lock(mutex);
      if (sessions.count(rec->sessionId) == 0) return;  // already unlinked
      for (const auto& [name, box] : rec->outboxes) {
        if (box != nullptr) outboxes.push_back(box);
      }
      ++stats.peersEvicted;
    }
    for (Outbox* box : outboxes) {
      if (box->removeNode(node) > 0) box->reset();
    }
    for (const auto& [name, box] : rec->inboxes) box->raise(reason);
    mPeersEvicted->inc();
    trace->emit("session", "member.evict",
                rec->sessionId + ": " + node.toString() + ": " + reason);
    DAPPLE_LOG(kInfo, kLog) << d.name() << ": session " << rec->sessionId
                            << ": evicted peer at " << node.toString() << " ("
                            << reason << ")";
  }

  void onMemberDown(const MemberDownMsg& m) {
    std::shared_ptr<SessionContext::Record> rec;
    {
      std::scoped_lock lock(mutex);
      const auto it = sessions.find(m.sessionId);
      if (it == sessions.end()) return;
      rec = it->second;
    }
    evictNode(rec, NodeAddress::fromPacked(m.node),
              "member '" + m.memberName + "' down: " + m.reason);
  }

  /// Crash recovery: the evicted peer came back at a new address.  The
  /// accompanying WIRE already re-pointed this member's outboxes; this is
  /// the observable narration of the un-evict.
  void onMemberUp(const MemberUpMsg& m) {
    {
      std::scoped_lock lock(mutex);
      if (sessions.count(m.sessionId) == 0) return;
    }
    mPeersRejoined->inc();
    {
      std::scoped_lock lock(mutex);
      ++stats.peersRejoined;
    }
    trace->emit("recovery", "member.rejoined",
                m.sessionId + ": '" + m.memberName + "' incarnation " +
                    std::to_string(m.incarnation) + " at " +
                    NodeAddress::fromPacked(m.node).toString());
    DAPPLE_LOG(kInfo, kLog) << d.name() << ": session " << m.sessionId
                            << ": member '" << m.memberName
                            << "' rejoined (incarnation " << m.incarnation
                            << ")";
  }

  /// Initiator's verdict on a REJOIN this agent sent from rejoinPersisted.
  void onRejoinAck(const RejoinAckMsg& m) {
    std::shared_ptr<SessionContext::Record> rec;
    {
      std::scoped_lock lock(mutex);
      const auto it = sessions.find(m.sessionId);
      if (it == sessions.end()) return;
      rec = it->second;
    }
    bool fresh = false;
    {
      std::scoped_lock lock(rec->mutex);
      if (!rec->rejoinPending) return;  // not a rejoining record
      fresh = !rec->rejoinAcked;
      if (m.accepted) rec->rejoinAcked = true;
    }
    if (!m.accepted) {
      // The initiator will not have us back (session completed, stale
      // incarnation, ...): discard the journaled session for good.
      if (fresh) {
        mRejoinRejected->inc();
        trace->emit("recovery", "rejoin.rejected",
                    m.sessionId + ": " + m.reason);
      }
      eraseJournal(m.sessionId);
      unlinkLocal(rec, false);
      return;
    }
    if (fresh) {
      mRejoinAccepted->inc();
      trace->emit("recovery", "rejoin.accepted", m.sessionId);
      DAPPLE_LOG(kInfo, kLog) << d.name() << ": session " << m.sessionId
                              << ": rejoin accepted (incarnation "
                              << m.incarnation << ")";
    }
  }

  /// Re-enters every journaled session (see SessionAgent::rejoinPersisted).
  std::vector<std::string> rejoinPersisted() {
    std::vector<std::string> out;
    if (!journaling()) return out;
    for (const std::string& key : cfg.store->keys()) {
      if (key.rfind(kJournalPrefix, 0) != 0) continue;
      const std::string sessionId = key.substr(std::strlen(kJournalPrefix));
      Value meta;
      try {
        meta = cfg.store->get(key);
      } catch (const Error&) {
        continue;
      }
      std::shared_ptr<SessionContext::Record> rec;
      RejoinMsg rj;
      try {
        std::scoped_lock lock(mutex);
        if (sessions.count(sessionId) != 0) continue;
        const std::string app = meta.at("app").asString();
        if (roles.count(app) == 0) {
          trace->emit("recovery", "rejoin.skip",
                      sessionId + ": role '" + app + "' not registered");
          continue;
        }
        rec = std::make_shared<SessionContext::Record>();
        rec->sessionId = sessionId;
        rec->app = app;
        rec->memberName = meta.at("member").asString();
        rec->initiatorName = meta.at("initiator").asString();
        rec->initiatorReply = inboxRefFromValue(meta.at("reply"));
        rec->memberParams = meta.at("params");
        rec->rejoinPending = true;
        const auto sets = toSets(stringsFromValue(meta.at("reads")),
                                 stringsFromValue(meta.at("writes")));
        for (const std::string& name : stringsFromValue(meta.at("inboxes"))) {
          Inbox& box = d.createInbox();
          rec->inboxes[name] = &box;
          rj.inboxRefs[name] = box.ref();
        }
        rec->stateView.emplace(*cfg.store, sets);
        interference.tryClaim(sessionId, sets);  // fresh process: no rivals
        if (cfg.monitor != nullptr) {
          const InboxRef initLive = inboxRefFromValue(meta.at("liveness"));
          if (initLive.valid()) {
            rec->livenessKey = "init/" + sessionId;
            cfg.monitor->watch(rec->livenessKey, initLive);
          }
        }
        sessions[sessionId] = rec;
      } catch (const Error& e) {
        trace->emit("recovery", "rejoin.skip",
                    sessionId + ": bad journal entry: " + e.what());
        continue;
      }
      rj.sessionId = sessionId;
      rj.memberName = rec->memberName;
      rj.incarnation = cfg.incarnation;
      rj.control = inbox->ref();
      if (cfg.monitor != nullptr) rj.livenessRef = cfg.monitor->ref();
      mRejoinRequests->inc();
      {
        std::scoped_lock lock(mutex);
        ++stats.rejoinsSent;
      }
      trace->emit("recovery", "rejoin.request",
                  sessionId + " incarnation " +
                      std::to_string(cfg.incarnation));
      // Retry until the initiator answers: the restart races MEMBER_DOWN
      // eviction and the initiator may still be mid-broadcast, so one send
      // is not enough.
      rejoinRetryStep(rec, rj, 0);
      out.push_back(sessionId);
    }
    return out;
  }

  /// Reliable-stream failure hook: a send stream from this dapplet timed
  /// out.  When it is one of a session's data outboxes, evict the dead node
  /// locally (the initiator's MEMBER_DOWN may lag or never come if the
  /// initiator died too).  When it is a cached reply stream, every session
  /// whose initiator lives at `dst` just lost its head — unlink them.
  void onPeerFailure(const NodeAddress& dst, std::uint64_t outboxId,
                     const std::string& reason) {
    bool isReplyStream = false;
    {
      std::scoped_lock lock(replyMutex);
      for (const auto& [key, box] : replyOutboxes) {
        if (box->id() == outboxId) {
          isReplyStream = true;
          break;
        }
      }
    }
    std::vector<std::shared_ptr<SessionContext::Record>> evict;
    std::vector<std::shared_ptr<SessionContext::Record>> headless;
    {
      std::scoped_lock lock(mutex);
      for (const auto& [id, rec] : sessions) {
        if (isReplyStream) {
          if (rec->initiatorReply.node == dst) headless.push_back(rec);
          continue;
        }
        for (const auto& [name, box] : rec->outboxes) {
          if (box != nullptr && box->id() == outboxId) {
            evict.push_back(rec);
            break;
          }
        }
      }
    }
    for (const auto& rec : evict) {
      evictNode(rec, dst, "stream failure: " + reason);
    }
    for (const auto& rec : headless) unlinkLocal(rec, true);
  }

  /// Destroys the session's ports and forgets it once both (a) it has been
  /// unlinked or its role finished, and (b) no role thread can still touch
  /// the ports.
  void maybeCleanup(const std::shared_ptr<SessionContext::Record>& rec) {
    {
      std::scoped_lock lock(rec->mutex);
      const bool roleDone = rec->roleFinished || !rec->started;
      if (!(rec->unlinked && roleDone)) return;
    }
    {
      std::scoped_lock lock(mutex);
      if (sessions.erase(rec->sessionId) == 0) return;  // already cleaned
      for (const auto& [name, box] : rec->inboxes) d.destroyInbox(*box);
      for (const auto& [name, box] : rec->outboxes) {
        if (box != nullptr) d.destroyOutbox(*box);
      }
      interference.release(rec->sessionId);
      eraseJournal(rec->sessionId);
    }
    if (cfg.monitor != nullptr && !rec->livenessKey.empty()) {
      cfg.monitor->unwatch(rec->livenessKey);
    }
    DAPPLE_LOG(kDebug, kLog) << d.name() << ": session " << rec->sessionId
                             << " unlinked";
  }
};

SessionAgent::SessionAgent(Dapplet& dapplet, Config config)
    : impl_(std::make_shared<Impl>(dapplet, std::move(config))) {
  // Failure hooks capture weak_ptrs: the monitor and the dapplet may both
  // outlive this agent, and neither supports callback removal.
  std::weak_ptr<Impl> weak = impl_;
  dapplet.addPeerFailureListener(
      [weak](const NodeAddress& dst, std::uint64_t outboxId,
             const std::string& reason) {
        if (auto impl = weak.lock()) impl->onPeerFailure(dst, outboxId, reason);
      });
  if (impl_->cfg.monitor != nullptr) {
    impl_->cfg.monitor->onSuspect(
        [weak](const std::string& key, const InboxRef&) {
          auto impl = weak.lock();
          if (!impl || key.rfind("init/", 0) != 0) return;
          std::shared_ptr<SessionContext::Record> rec;
          {
            std::scoped_lock lock(impl->mutex);
            const auto it = impl->sessions.find(key.substr(5));
            if (it == impl->sessions.end()) return;
            rec = it->second;
          }
          impl->unlinkLocal(rec, true);
        });
  }
  // Control messages are dispatched one at a time from the inbox's handler
  // strand.  Role functions registered via registerApp run on spawned
  // threads: they are arbitrary user code and may block.
  impl_->serve(
      [impl = impl_.get()](const Delivery& del) { impl->dispatch(del); });
}

SessionAgent::~SessionAgent() {
  // Dispatch barrier; role threads hold their own shared_ptr to Impl and
  // finish on their own.
  impl_->shutdown();
  // Fence off the journal: role threads may outlive this agent (and
  // cfg.store only has to outlive the agent, not the dapplet).
  std::map<std::string, Reactor::TimerHandle> rejoinTimers;
  {
    std::scoped_lock gate(impl_->journalMutex);
    impl_->closed = true;
    rejoinTimers.swap(impl_->rejoinTimers);
  }
  // Retire the rejoin retry chains.  `closed` stops any step from re-arming
  // (or touching `d`), and cancel() waits out a step already in flight, so
  // after this loop no chain callback runs again — required because a
  // shared reactor outlives both this agent and the dapplet.
  for (auto& [id, handle] : rejoinTimers) handle.cancel();
}

void SessionAgent::registerApp(const std::string& app, RoleFn role) {
  std::scoped_lock lock(impl_->mutex);
  impl_->roles[app] = std::move(role);
}

InboxRef SessionAgent::controlRef() const { return impl_->inbox->ref(); }

InterferenceGuard& SessionAgent::guard() { return impl_->interference; }

std::vector<std::string> SessionAgent::activeSessions() const {
  std::scoped_lock lock(impl_->mutex);
  std::vector<std::string> out;
  out.reserve(impl_->sessions.size());
  for (const auto& [id, rec] : impl_->sessions) out.push_back(id);
  return out;
}

SessionAgent::Stats SessionAgent::stats() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->stats;
}

std::vector<std::string> SessionAgent::rejoinPersisted() {
  return impl_->rejoinPersisted();
}

}  // namespace dapple
