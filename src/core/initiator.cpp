#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "dapple/core/service.hpp"
#include "dapple/core/session.hpp"
#include "dapple/util/log.hpp"
#include "dapple/util/rng.hpp"

namespace dapple {

namespace {
constexpr const char* kLog = "initiator";
}  // namespace

/// The initiator is a service like any other (DESIGN.md §13): one anonymous
/// reply inbox, shared by every session, is handled on the dapplet's
/// reactor.  The handler files INVITE replies, WIRE replies and DONEs into
/// the session records and answers a REJOIN on arrival; the blocking calls
/// wait on those records.  Everything sent to one member control inbox rides
/// one FIFO channel shared by every session (paper §3.2), so a member handles
/// a session's UNLINK before any later INVITE.  `mutex` guards every session
/// and channel.
struct Initiator::Impl : ServiceCore {
  Impl(Dapplet& dapplet, PeerMonitor* mon)
      : ServiceCore(dapplet, ""),
        monitor(mon),
        rng(dapplet.id() ^ 0x5e551041u),
        mInviteRoundUs(&d.metricsRegistry().histogram("session.invite_round_us")),
        mWireRoundUs(&d.metricsRegistry().histogram("session.wire_round_us")),
        mStartRoundUs(&d.metricsRegistry().histogram("session.start_round_us")),
        mRejoinHandled(&d.metricsRegistry().counter("recovery.rejoin_handled")),
        mRejoinRefused(&d.metricsRegistry().counter("recovery.rejoin_refused")),
        trace(&d.trace()) {}

  PeerMonitor* monitor;
  Rng rng;  // jitter source; guarded by `mutex`
  // Per-initiator (not process-global) so session ids are reproducible run
  // to run; the initiator's name + node id keep them unique on the wire.
  std::atomic<std::uint64_t> sessionCounter{0};

  // Setup-phase latencies, per session: INVITE and WIRE from the first send
  // to the last reply; START the flush left after the WIRE round.
  obs::Histogram* mInviteRoundUs;
  obs::Histogram* mWireRoundUs;
  obs::Histogram* mStartRoundUs;
  obs::Counter* mRejoinHandled;  ///< REJOINs accepted (DESIGN.md §12)
  obs::Counter* mRejoinRefused;  ///< REJOINs rejected
  obs::TraceRing* trace;

  /// failMember() incarnation sentinel: "evict regardless of restarts".
  static constexpr std::uint64_t kAnyIncarnation = ~std::uint64_t{0};

  /// Session timeouts and backoff all pace on the dapplet's clock.
  TimePoint now() const { return d.clockSource().now(); }

  std::uint64_t microsSince(TimePoint start) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now() - start)
            .count());
  }

  /// waitFor() against an absolute deadline on the dapplet's clock.
  template <typename Pred>
  bool waitUntil(std::unique_lock<std::mutex>& lock, TimePoint deadline,
                 Pred pred) {
    const TimePoint t = now();
    return waitFor(lock, deadline > t ? deadline - t : Duration::zero(), pred);
  }

  struct SessRec {
    std::string app;
    std::vector<MemberPlan> members;
    std::vector<Edge> edges;
    Value params;

    /// Each member's control channel (see channel()).
    std::map<std::string, Outbox*> memberOutbox;
    std::map<std::string, std::map<std::string, InboxRef>> memberRefs;
    std::map<std::string, InboxRef> memberLiveness;
    std::map<std::string, NodeAddress> memberNodes;
    /// Setup refusals: a rejected INVITE or a failed WIRE (member -> reason).
    std::map<std::string, std::string> rejections;
    /// Members whose WIRE reply came back ok.
    std::set<std::string> wired;
    /// Restart counter per member (DESIGN.md §12): set by REJOIN, consulted
    /// by failMember() so eviction verdicts aimed at an earlier process of
    /// the same member are recognized as stale and dropped.
    std::map<std::string, std::uint64_t> memberIncarnation;
    /// Exact liveness-watch key per member ("sid/name" at establish,
    /// "sid/name#inc" after a rejoin); unwatch must use the watched key.
    std::map<std::string, std::string> watchKeys;
    std::map<std::string, Value> doneResults;
    std::map<std::string, std::string> down;  // evicted member -> reason
    /// Set once every member has its START; until then failure hooks and
    /// REJOINs leave the record to establish().
    bool established = false;

    bool inviteAnswered(const std::string& member) const {
      return memberRefs.count(member) != 0 || rejections.count(member) != 0;
    }
  };
  std::map<std::string, std::shared_ptr<SessRec>> sessions;

  /// One control outbox per member control inbox, kept for the initiator's
  /// life, and the highest incarnation (DESIGN.md §12) seen on it.
  struct Channel {
    Outbox* box = nullptr;
    std::uint64_t incarnation = 0;
  };
  std::unordered_map<InboxRef, Channel> channels;

  /// The channel to `control`, created on first use.  A process restarted at
  /// the same address (a higher `incarnation`) must not inherit the old
  /// one's sequence numbers, so the channel is reset.  Caller holds `mutex`.
  Outbox& channel(const InboxRef& control, std::uint64_t incarnation = 0) {
    Channel& ch = channels[control];
    if (ch.box == nullptr) {
      ch.box = &d.createOutbox();
      ch.box->add(control);
    } else if (incarnation > ch.incarnation) {
      ch.box->reset();
    }
    ch.incarnation = std::max(ch.incarnation, incarnation);
    return *ch.box;
  }

  /// The record of `sessionId`, or null.  The caller holds `mutex`.
  std::shared_ptr<SessRec> lookup(const std::string& sessionId) const {
    const auto it = sessions.find(sessionId);
    return it == sessions.end() ? nullptr : it->second;
  }

  /// lookup() that throws SessionError for an unknown session.
  std::shared_ptr<SessRec> find(const std::string& sessionId) const {
    auto rec = lookup(sessionId);
    if (!rec) throw SessionError("unknown session '" + sessionId + "'");
    return rec;
  }

  /// The reply inbox's handler, on the reactor: files a reply into its
  /// session record and wakes the blocked calls.  Never blocks.
  void dispatch(const Delivery& del) {
    const Message& m = *del.message;
    if (const auto* rejoin = dynamic_cast<const RejoinMsg*>(&m)) {
      onRejoin(*rejoin);
      return;
    }
    std::scoped_lock lock(mutex);
    if (const auto* reply = dynamic_cast<const InviteReplyMsg*>(&m)) {
      const auto rec = lookup(reply->sessionId);
      // A member's first answer wins, so a late duplicate cannot overwrite
      // the refs a REJOIN installed.
      if (!rec || rec->inviteAnswered(reply->memberName)) return;
      if (reply->accepted) {
        rec->memberRefs[reply->memberName] = reply->inboxRefs;
        if (reply->livenessRef.valid()) {
          rec->memberLiveness[reply->memberName] = reply->livenessRef;
        }
      } else {
        rec->rejections[reply->memberName] = reply->reason;
      }
    } else if (const auto* reply = dynamic_cast<const WireReplyMsg*>(&m)) {
      const auto rec = lookup(reply->sessionId);
      if (!rec) return;
      if (reply->ok) {
        rec->wired.insert(reply->memberName);
      } else {
        rec->rejections[reply->memberName] = reply->reason;
      }
    } else if (const auto* done = dynamic_cast<const DoneMsg*>(&m)) {
      const auto rec = lookup(done->sessionId);
      if (!rec) return;
      rec->doneResults[done->memberName] = done->result;
    } else {
      return;
    }
    notifyAll();
  }

  /// Jittered exponential backoff: base * 2^attempt, scaled by a uniform
  /// factor in [0.75, 1.25) so retrying initiators do not synchronize.  The
  /// caller holds `mutex`.
  Duration backoff(const Plan& plan, std::size_t attempt) {
    const double factor = 0.75 + rng.uniform01() * 0.5;
    const auto base = std::chrono::duration_cast<std::chrono::nanoseconds>(
        plan.retryBase);
    const double ns =
        static_cast<double>(base.count()) *
        static_cast<double>(std::uint64_t{1} << std::min<std::size_t>(attempt, 16)) *
        factor;
    return std::chrono::duration_cast<Duration>(
        std::chrono::nanoseconds(static_cast<std::int64_t>(ns)));
  }

  /// Sends `msg` on `box`, resetting a failed stream once and retrying; the
  /// reliable layer's retransmission handles packet loss below this.  A
  /// failed stream has already dropped its frames, so the reset loses no
  /// other session's.
  bool sendOn(Outbox& box, const Message& msg) {
    try {
      box.send(msg);
      return true;
    } catch (const DeliveryError&) {
      box.reset();
    } catch (const Error&) {
      return false;
    }
    try {
      box.send(msg);
      return true;
    } catch (const Error&) {
      return false;
    }
  }

  /// One setup phase of establish() (INVITE or WIRE): each attempt calls
  /// `send(channel, member)` for every member that has neither `answered`
  /// nor been refused, then waits a jittered backoff for the rest; all
  /// attempts share one `phaseTimeout`.  The caller holds `lock` on `mutex`.
  template <typename Answered, typename Send>
  void setupPhase(std::unique_lock<std::mutex>& lock, SessRec& rec,
                  const Plan& plan, const char* phase, obs::Histogram* round,
                  Answered answered, Send send) {
    const auto settled = [&](const MemberPlan& m) {
      return answered(m) || rec.rejections.count(m.name) != 0;
    };
    const auto allSettled = [&] {
      return std::all_of(plan.members.begin(), plan.members.end(), settled);
    };
    const std::size_t attempts = std::max<std::size_t>(1, plan.setupAttempts);
    const TimePoint start = now();
    const TimePoint deadline = start + plan.phaseTimeout;
    for (std::size_t attempt = 0; attempt < attempts && !allSettled();
         ++attempt) {
      for (const MemberPlan& member : plan.members) {
        if (!settled(member)) send(*rec.memberOutbox.at(member.name), member);
      }
      const TimePoint attemptDeadline =
          attempt + 1 == attempts
              ? deadline
              : std::min(deadline, now() + backoff(plan, attempt));
      if (waitUntil(lock, attemptDeadline, allSettled) || now() >= deadline) {
        break;
      }
      DAPPLE_LOG(kDebug, kLog)
          << d.name() << ": " << phase << " attempt " << (attempt + 1) << "/"
          << attempts << " incomplete, retrying";
    }
    round->record(microsSince(start));
  }

  InviteMsg makeInvite(const std::string& sessionId, const std::string& app,
                       const MemberPlan& member) {
    InviteMsg invite;
    invite.sessionId = sessionId;
    invite.app = app;
    invite.initiatorName = d.name();
    invite.memberName = member.name;
    invite.replyTo = inbox->ref();
    invite.inboxesToCreate = member.inboxes;
    invite.readKeys = member.readKeys;
    invite.writeKeys = member.writeKeys;
    invite.params = member.params;
    if (monitor != nullptr) invite.livenessRef = monitor->ref();
    return invite;
  }

  /// Throws SessionError unless every edge runs from one of `members` to an
  /// inbox its target declared.  Called before anything is sent, so a
  /// malformed plan links no member.
  static void checkEdges(const std::vector<MemberPlan>& members,
                         const std::vector<Edge>& edges) {
    const auto find = [&](const std::string& name) {
      return std::find_if(members.begin(), members.end(),
                          [&](const MemberPlan& m) { return m.name == name; });
    };
    for (const Edge& edge : edges) {
      const auto to = find(edge.toMember);
      if (find(edge.fromMember) == members.end() || to == members.end() ||
          std::count(to->inboxes.begin(), to->inboxes.end(), edge.toInbox) ==
              0) {
        throw SessionError("edge " + edge.fromMember + "." + edge.fromOutbox +
                           " -> " + edge.toMember + "." + edge.toInbox +
                           " names a non-member or an undeclared inbox");
      }
    }
  }

  /// Groups `edges` into per-member WireMsg bindings using collected refs.
  std::map<std::string, std::vector<Binding>> planBindings(
      const SessRec& rec, const std::vector<Edge>& edges) const {
    std::map<std::string, std::vector<Binding>> out;
    for (const Edge& edge : edges) {
      const auto refsIt = rec.memberRefs.find(edge.toMember);
      if (refsIt == rec.memberRefs.end()) {
        throw SessionError("edge targets unknown member '" + edge.toMember +
                           "'");
      }
      const auto inboxIt = refsIt->second.find(edge.toInbox);
      if (inboxIt == refsIt->second.end()) {
        throw SessionError("member '" + edge.toMember + "' has no inbox '" +
                           edge.toInbox + "'");
      }
      std::vector<Binding>& bindings = out[edge.fromMember];
      auto found = std::find_if(
          bindings.begin(), bindings.end(),
          [&](const Binding& b) { return b.outboxName == edge.fromOutbox; });
      if (found == bindings.end()) {
        bindings.push_back(Binding{edge.fromOutbox, {}});
        found = bindings.end() - 1;
      }
      found->targets.push_back(inboxIt->second);
    }
    return out;
  }

  /// True when `edge`'s target inbox is known (its member answered and
  /// still has that inbox).
  static bool resolves(const SessRec& rec, const Edge& edge) {
    const auto refs = rec.memberRefs.find(edge.toMember);
    return refs != rec.memberRefs.end() &&
           refs->second.count(edge.toInbox) != 0;
  }

  static UnlinkMsg unlinkMsg(const std::string& sessionId,
                             std::string reason) {
    UnlinkMsg unlink;
    unlink.sessionId = sessionId;
    unlink.reason = std::move(reason);
    return unlink;
  }

  /// Takes `member` out of `rec`: unbinds those of `edges` that feed its
  /// inboxes, sends it UNLINK with `reason`, forgets it, and wakes
  /// awaitCompletion, which no longer waits for it.  Returns its
  /// liveness-watch key ("" = none) for the caller to unwatch once it
  /// releases `mutex`, which it holds.
  std::string dropMember(SessRec& rec, const std::string& sessionId,
                         const std::string& member,
                         const std::vector<Edge>& edges,
                         const std::string& reason) {
    std::vector<Edge> inbound;
    for (const Edge& e : edges) {
      if (e.toMember == member && e.fromMember != member &&
          resolves(rec, e)) {
        inbound.push_back(e);
      }
    }
    for (const auto& [from, bindings] : planBindings(rec, inbound)) {
      const auto boxIt = rec.memberOutbox.find(from);
      if (boxIt == rec.memberOutbox.end()) continue;
      UnbindMsg unbind;
      unbind.sessionId = sessionId;
      unbind.bindings = bindings;
      sendOn(*boxIt->second, unbind);
    }
    if (const auto boxIt = rec.memberOutbox.find(member);
        boxIt != rec.memberOutbox.end()) {
      sendOn(*boxIt->second, unlinkMsg(sessionId, reason));
      rec.memberOutbox.erase(boxIt);
    }
    std::string watchKey;
    if (const auto it = rec.watchKeys.find(member); it != rec.watchKeys.end()) {
      watchKey = it->second;
      rec.watchKeys.erase(it);
    }
    rec.memberNodes.erase(member);
    rec.memberLiveness.erase(member);
    rec.memberIncarnation.erase(member);
    rec.memberRefs.erase(member);
    rec.wired.erase(member);
    std::erase_if(rec.members,
                  [&](const MemberPlan& m) { return m.name == member; });
    std::erase_if(rec.edges, [&](const Edge& e) {
      return e.fromMember == member || e.toMember == member;
    });
    notifyAll();
    return watchKey;
  }

  void failMember(const std::string& sessionId, const std::string& member,
                  const std::string& reason,
                  std::uint64_t incarnation = kAnyIncarnation) {
    MemberDownMsg notice;
    notice.sessionId = sessionId;
    notice.memberName = member;
    notice.reason = reason;
    std::string watchKey;
    {
      std::scoped_lock lock(mutex);
      const auto rec = lookup(sessionId);
      // Mid-setup failures are owned by the phase retry/timeout logic; a
      // hook firing then must not mutate maps establish() is iterating.
      if (!rec || !rec->established) return;
      // A verdict carrying an incarnation older than the member's current
      // one condemns a process that already died and was replaced by a
      // rejoin; evicting the replacement for its predecessor's death would
      // double-punish the restart (DESIGN.md §12).
      const auto incIt = rec->memberIncarnation.find(member);
      if (incarnation != kAnyIncarnation &&
          incIt != rec->memberIncarnation.end() &&
          incIt->second > incarnation) {
        return;
      }
      if (rec->down.count(member) != 0) return;
      // A member whose result is already in has completed its role; it
      // stops heartbeating afterwards, so late suspicion is expected and
      // must not evict it.
      if (rec->doneResults.count(member) != 0) return;
      const bool known =
          std::any_of(rec->members.begin(), rec->members.end(),
                      [&](const MemberPlan& m) { return m.name == member; });
      if (!known) return;
      rec->down[member] = reason;
      const auto nodeIt = rec->memberNodes.find(member);
      if (nodeIt != rec->memberNodes.end()) {
        notice.node = nodeIt->second.packed();
      }
      rec->memberOutbox.erase(member);
      if (const auto wkIt = rec->watchKeys.find(member);
          wkIt != rec->watchKeys.end()) {
        watchKey = wkIt->second;
        rec->watchKeys.erase(wkIt);
      }
      DAPPLE_LOG(kInfo, kLog) << d.name() << ": session " << sessionId
                              << ": member '" << member << "' declared down ("
                              << reason << ")";
      // Broadcast MEMBER_DOWN to the survivors.
      for (const auto& [name, box] : rec->memberOutbox) {
        if (!sendOn(*box, notice)) {
          DAPPLE_LOG(kDebug, kLog)
              << d.name() << ": MEMBER_DOWN to '" << name << "' failed";
        }
      }
      notifyAll();  // awaitCompletion counts the evicted member as settled
    }
    if (monitor != nullptr && !watchKey.empty()) monitor->unwatch(watchKey);
  }

  /// REJOIN handshake (DESIGN.md §12): a restarted member asks to be
  /// re-admitted at its new address.  Accept = re-point the member's
  /// channel/refs/node/liveness at the new process, replay WIRE + START to
  /// it, re-wire the survivors' edges into its re-created inboxes, and
  /// broadcast MEMBER_UP.  Idempotent per incarnation: duplicate requests
  /// converge, and requests racing a not-yet-processed eviction of the old
  /// process win (the eviction becomes stale via `memberIncarnation`).
  /// Handled on arrival, whether or not anyone awaits the session.
  void onRejoin(const RejoinMsg& m) {
    RejoinAckMsg ack;
    ack.sessionId = m.sessionId;
    ack.memberName = m.memberName;
    ack.incarnation = m.incarnation;

    std::string oldWatchKey;
    std::string newWatchKey;
    InboxRef liveRef;
    {
      std::scoped_lock lock(mutex);
      const auto rec = lookup(m.sessionId);
      // Unknown session: the requester times out and unjournals.  Mid-setup
      // the record belongs to establish(); the requester's retry comes back.
      if (!rec || !rec->established) return;
      const bool known = std::any_of(
          rec->members.begin(), rec->members.end(),
          [&](const MemberPlan& mp) { return mp.name == m.memberName; });
      const auto incIt = rec->memberIncarnation.find(m.memberName);
      const std::uint64_t cur =
          incIt == rec->memberIncarnation.end() ? 0 : incIt->second;
      if (!known) {
        ack.reason = "unknown member";
      } else if (rec->doneResults.count(m.memberName) != 0) {
        ack.reason = "member already completed";
      } else if (m.incarnation < cur) {
        ack.reason = "stale incarnation (current " + std::to_string(cur) + ")";
      }
      if (ack.reason.empty()) {
        const bool wasDown = rec->down.erase(m.memberName) != 0;
        const auto oldNodeIt = rec->memberNodes.find(m.memberName);
        const bool nodeChanged =
            oldNodeIt == rec->memberNodes.end() ||
            oldNodeIt->second.packed() != m.control.node.packed();
        // Satellite race: the restart beat the eviction.  Survivors never
        // saw MEMBER_DOWN for the dead process, so their outboxes still
        // target its address — tell them to drop it before re-wiring.
        if (!wasDown && nodeChanged && oldNodeIt != rec->memberNodes.end()) {
          MemberDownMsg stale;
          stale.sessionId = m.sessionId;
          stale.memberName = m.memberName;
          stale.node = oldNodeIt->second.packed();
          stale.reason = "superseded by rejoin (incarnation " +
                         std::to_string(m.incarnation) + ")";
          for (const auto& [name, box] : rec->memberOutbox) {
            if (name != m.memberName) sendOn(*box, stale);
          }
        }
        // Re-register under the same member name, so the member list gains
        // no duplicate entry however the race resolved.
        Outbox& box = channel(m.control, m.incarnation);
        rec->memberOutbox[m.memberName] = &box;
        rec->memberRefs[m.memberName] = m.inboxRefs;
        rec->memberNodes[m.memberName] = m.control.node;
        rec->memberIncarnation[m.memberName] = m.incarnation;
        if (m.livenessRef.valid()) {
          rec->memberLiveness[m.memberName] = m.livenessRef;
          liveRef = m.livenessRef;
        } else {
          rec->memberLiveness.erase(m.memberName);
        }
        // Swap the liveness watch to an incarnation-scoped key so verdicts
        // already in flight against the old process miss the new one.
        if (const auto wkIt = rec->watchKeys.find(m.memberName);
            wkIt != rec->watchKeys.end()) {
          oldWatchKey = wkIt->second;
        }
        if (liveRef.valid()) {
          newWatchKey = m.sessionId + "/" + m.memberName + "#" +
                        std::to_string(m.incarnation);
          rec->watchKeys[m.memberName] = newWatchKey;
        } else {
          rec->watchKeys.erase(m.memberName);
        }

        // Edges touching the rejoiner, restricted to endpoints that still
        // resolve (a co-member may have died or left meanwhile).
        std::vector<Edge> touched;
        for (const Edge& e : rec->edges) {
          if ((e.fromMember == m.memberName || e.toMember == m.memberName) &&
              resolves(*rec, e)) {
            touched.push_back(e);
          }
        }
        const auto rewire = planBindings(*rec, touched);

        ack.accepted = true;
        sendOn(box, ack);
        // WIRE precedes START so the role never runs un-wired; the agent's
        // `started` latch makes the replayed START idempotent.
        WireMsg wire;
        wire.sessionId = m.sessionId;
        if (const auto it = rewire.find(m.memberName); it != rewire.end()) {
          wire.bindings = it->second;
        }
        sendOn(box, wire);
        StartMsg start;
        start.sessionId = m.sessionId;
        for (const MemberPlan& mp : rec->members) start.peers.push_back(mp.name);
        start.params = rec->params;
        sendOn(box, start);

        MemberUpMsg up;
        up.sessionId = m.sessionId;
        up.memberName = m.memberName;
        up.node = m.control.node.packed();
        up.incarnation = m.incarnation;
        for (const auto& [name, peerBox] : rec->memberOutbox) {
          if (name == m.memberName) continue;
          if (const auto it = rewire.find(name); it != rewire.end()) {
            WireMsg peerWire;
            peerWire.sessionId = m.sessionId;
            peerWire.bindings = it->second;
            sendOn(*peerBox, peerWire);
          }
          sendOn(*peerBox, up);
        }
        DAPPLE_LOG(kInfo, kLog)
            << d.name() << ": session " << m.sessionId << ": member '"
            << m.memberName << "' rejoined (incarnation " << m.incarnation
            << ")";
      } else {
        // NACK so the requester stops retrying and discards its journal.
        sendOn(channel(m.control, m.incarnation), ack);
      }
    }
    if (!ack.accepted) {
      mRejoinRefused->inc();
      trace->emit("recovery", "rejoin.refused",
                  m.sessionId + "/" + m.memberName + ": " + ack.reason);
      return;
    }
    if (monitor != nullptr) {
      if (!oldWatchKey.empty() && oldWatchKey != newWatchKey) {
        monitor->unwatch(oldWatchKey);
      }
      if (!newWatchKey.empty()) monitor->watch(newWatchKey, liveRef);
    }
    mRejoinHandled->inc();
    trace->emit("recovery", "member.rejoin",
                m.sessionId + "/" + m.memberName +
                    " inc=" + std::to_string(m.incarnation));
  }

  /// Forgets `sessionId` and wakes its waiters.
  void destroy(const std::string& sessionId) {
    std::vector<std::string> keys;
    {
      std::scoped_lock lock(mutex);
      const auto rec = lookup(sessionId);
      if (!rec) return;
      sessions.erase(sessionId);
      for (const auto& [name, key] : rec->watchKeys) keys.push_back(key);
      rec->watchKeys.clear();
      notifyAll();
    }
    if (monitor != nullptr) {
      for (const std::string& key : keys) monitor->unwatch(key);
    }
  }
};

Initiator::Initiator(Dapplet& dapplet, PeerMonitor* monitor)
    : impl_(std::make_shared<Impl>(dapplet, monitor)) {
  // Failure hooks use weak references: the dapplet and monitor may outlive
  // this initiator and offer no callback removal.
  std::weak_ptr<Impl> weak = impl_;
  dapplet.addPeerFailureListener(
      [weak](const NodeAddress& dst, std::uint64_t outboxId,
             const std::string& reason) {
        auto impl = weak.lock();
        if (!impl) return;
        (void)dst;
        // The channel is every session's: fail its member in each of them.
        std::vector<std::tuple<std::string, std::string, std::uint64_t>>
            verdicts;
        {
          std::scoped_lock lock(impl->mutex);
          for (const auto& [id, rec] : impl->sessions) {
            for (const auto& [name, box] : rec->memberOutbox) {
              if (box->id() != outboxId) continue;
              // Pin the verdict to the incarnation the stream belonged to:
              // if the member rejoins before failMember runs, the verdict
              // is stale and must not evict the new process.
              const auto it = rec->memberIncarnation.find(name);
              verdicts.emplace_back(
                  id, name,
                  it == rec->memberIncarnation.end() ? 0 : it->second);
            }
          }
        }
        for (const auto& [id, name, inc] : verdicts) {
          impl->failMember(id, name, "stream failure: " + reason, inc);
        }
      });
  if (monitor != nullptr) {
    monitor->onSuspect([weak](const std::string& key, const InboxRef&) {
      auto impl = weak.lock();
      if (!impl) return;
      // Initiator watch keys are "<sessionId>/<memberName>" or, after a
      // rejoin, "<sessionId>/<memberName>#<incarnation>" — the suffix pins
      // the verdict to the process generation it condemns.
      const auto slash = key.find('/');
      if (slash == std::string::npos) return;
      std::string member = key.substr(slash + 1);
      std::uint64_t inc = 0;
      if (const auto hash = member.rfind('#'); hash != std::string::npos) {
        inc = std::strtoull(member.c_str() + hash + 1, nullptr, 10);
        member.resize(hash);
      }
      impl->failMember(key.substr(0, slash), member,
                       "liveness: peer suspected dead", inc);
    });
  }
  impl_->serve(
      [impl = impl_.get()](const Delivery& del) { impl->dispatch(del); });
}

Initiator::~Initiator() { impl_->shutdown(); }

Initiator::MemberPlan Initiator::member(const Directory& directory,
                                        const std::string& name,
                                        std::vector<std::string> inboxes,
                                        Value params) {
  MemberPlan plan;
  plan.name = name;
  plan.control = directory.lookup(name);
  plan.inboxes = std::move(inboxes);
  plan.params = std::move(params);
  return plan;
}

Initiator::Result Initiator::establish(const Plan& plan) {
  Impl& im = *impl_;
  Dapplet& d = im.d;
  Impl::checkEdges(plan.members, plan.edges);
  Result result;
  result.sessionId =
      d.name() + "-" + std::to_string(im.sessionCounter.fetch_add(1)) + "-" +
      std::to_string(d.id() & 0xffff);

  auto rec = std::make_shared<Impl::SessRec>();
  rec->app = plan.app;
  rec->members = plan.members;
  rec->edges = plan.edges;
  rec->params = plan.params;
  std::unique_lock lock(im.mutex);
  for (const MemberPlan& member : plan.members) {
    rec->memberOutbox[member.name] = &im.channel(member.control);
  }
  im.sessions[result.sessionId] = rec;
  // Paper §3.1 leaves the initiator's reaction to a refusal open; we roll
  // back.  Every invited member gets the UNLINK, not only those that
  // answered: one whose answer was lost has linked the session all the same.
  const auto rollBack = [&](const char* reason) {
    for (auto& [name, box] : rec->memberOutbox) {
      im.sendOn(*box, Impl::unlinkMsg(result.sessionId, reason));
    }
    lock.unlock();
    im.destroy(result.sessionId);
    result.ok = false;
    return result;
  };

  // ---- Phase 1: INVITE --------------------------------------------------
  // Retry loop: each attempt (re)sends INVITE to every member that has not
  // answered yet, then waits out a jittered exponential backoff for the
  // replies.  Duplicate invites are idempotent at the agent, and answers
  // dedup naturally through the per-member maps.
  im.setupPhase(
      lock, *rec, plan, "INVITE", im.mInviteRoundUs,
      [&](const MemberPlan& m) { return rec->memberRefs.count(m.name) != 0; },
      [&](Outbox& box, const MemberPlan& m) {
        im.sendOn(box, im.makeInvite(result.sessionId, plan.app, m));
      });
  for (const MemberPlan& member : plan.members) {
    if (!rec->inviteAnswered(member.name)) {
      rec->rejections[member.name] = "no reply (timeout)";
    }
  }
  result.rejections = rec->rejections;
  if (!result.rejections.empty()) {
    return rollBack("session aborted during setup");
  }

  // ---- Phase 2: WIRE + START ----------------------------------------------
  // START rides each member's FIFO channel right behind its WIRE, so the
  // agent wires the role's outboxes before it runs the role, and roles start
  // without waiting for the WIRE round.  A retry re-sends both: the agent's
  // `started` latch drops a second START and re-adding a target is a no-op.
  // The WIRE replies are still awaited, so a refused or unanswered WIRE
  // rolls the session back, and the rollback's UNLINK stops started roles.
  const auto bindingPlan = im.planBindings(*rec, plan.edges);
  StartMsg start;
  start.sessionId = result.sessionId;
  for (const MemberPlan& member : plan.members) {
    start.peers.push_back(member.name);
  }
  start.params = plan.params;
  im.setupPhase(
      lock, *rec, plan, "WIRE", im.mWireRoundUs,
      [&](const MemberPlan& m) { return rec->wired.count(m.name) != 0; },
      [&](Outbox& box, const MemberPlan& m) {
        WireMsg wire;
        wire.sessionId = result.sessionId;
        const auto it = bindingPlan.find(m.name);
        if (it != bindingPlan.end()) wire.bindings = it->second;
        if (im.sendOn(box, wire)) im.sendOn(box, start);
      });
  result.rejections = rec->rejections;
  if (rec->wired.size() < plan.members.size() && result.rejections.empty()) {
    result.rejections["(wire)"] = "wiring timed out";
  }
  if (!result.rejections.empty()) {
    return rollBack("session aborted during wiring");
  }

  // START has no reply; confirmation is transport-level.  The flush holds
  // the liveness watch back until every member has it; the roles are
  // already running meanwhile.
  const TimePoint startStart = im.now();
  lock.unlock();
  d.flush(plan.phaseTimeout);
  lock.lock();
  im.mStartRoundUs->record(im.microsSince(startStart));
  im.trace->emit("session", "session.established", result.sessionId,
                 static_cast<std::int64_t>(plan.members.size()));

  // The session is live: start watching member liveness.
  for (const MemberPlan& member : plan.members) {
    rec->memberNodes[member.name] = member.control.node;
  }
  rec->established = true;
  std::vector<std::pair<std::string, InboxRef>> watches;
  if (im.monitor != nullptr) {
    for (const auto& [name, ref] : rec->memberLiveness) {
      rec->watchKeys[name] = result.sessionId + "/" + name;
      watches.emplace_back(rec->watchKeys[name], ref);
    }
  }
  lock.unlock();
  for (const auto& [key, ref] : watches) im.monitor->watch(key, ref);

  result.ok = true;
  return result;
}

std::map<std::string, Value> Initiator::awaitCompletion(
    const std::string& sessionId, Duration timeout) {
  std::unique_lock lock(impl_->mutex);
  const auto rec = impl_->find(sessionId);
  // Settled: every member has delivered a result or been evicted.  DONEs and
  // evictions are filed as they happen; terminate() also ends the wait.
  const auto settled = [&] {
    return std::all_of(
        rec->members.begin(), rec->members.end(), [&](const MemberPlan& m) {
          return rec->doneResults.count(m.name) != 0 ||
                 rec->down.count(m.name) != 0;
        });
  };
  if (!impl_->waitFor(lock, timeout,
                      [&] { return settled() || !impl_->lookup(sessionId); })) {
    throw TimeoutError("session '" + sessionId +
                       "' did not complete in time");
  }
  if (!settled()) {
    throw SessionError("session '" + sessionId + "' ended while awaited");
  }
  std::map<std::string, Value> out = rec->doneResults;
  for (const auto& [name, reason] : rec->down) {
    if (out.count(name) != 0) continue;  // finished before the verdict
    ValueMap ann;
    ann["peerDown"] = Value(true);
    ann["member"] = Value(name);
    ann["reason"] = Value(reason);
    out[name] = Value(std::move(ann));
  }
  return out;
}

void Initiator::failMember(const std::string& sessionId,
                           const std::string& member,
                           const std::string& reason) {
  impl_->failMember(sessionId, member, reason);
}

std::map<std::string, std::string> Initiator::downMembers(
    const std::string& sessionId) const {
  std::scoped_lock lock(impl_->mutex);
  const auto rec = impl_->lookup(sessionId);
  return rec ? rec->down : std::map<std::string, std::string>{};
}

void Initiator::terminate(const std::string& sessionId,
                          const std::string& reason) {
  {
    std::scoped_lock lock(impl_->mutex);
    const auto rec = impl_->lookup(sessionId);
    if (!rec) return;  // idempotent
    for (auto& [name, box] : rec->memberOutbox) {
      impl_->sendOn(*box, Impl::unlinkMsg(sessionId, reason));
    }
  }
  impl_->destroy(sessionId);
}

bool Initiator::addMember(const std::string& sessionId,
                          const MemberPlan& member,
                          const std::vector<Edge>& newEdges,
                          Duration timeout) {
  Impl& im = *impl_;
  const TimePoint deadline = im.now() + timeout;
  std::unique_lock lock(im.mutex);
  const auto rec = im.find(sessionId);
  auto grown = rec->members;
  grown.push_back(member);
  Impl::checkEdges(grown, newEdges);

  Outbox& box = im.channel(member.control);
  rec->rejections.erase(member.name);  // a refusal from an earlier attempt
  im.sendOn(box, im.makeInvite(sessionId, rec->app, member));
  if (!im.waitUntil(lock, deadline,
                    [&] { return rec->inviteAnswered(member.name); }) ||
      rec->memberRefs.count(member.name) == 0) {
    // An answer still on its way means the member linked the session: the
    // UNLINK behind the INVITE undoes that (and is ignored otherwise).
    im.sendOn(box, Impl::unlinkMsg(sessionId, "session growth aborted"));
    return false;
  }
  rec->memberOutbox[member.name] = &box;
  rec->members.push_back(member);
  rec->memberNodes[member.name] = member.control.node;

  // Wire the new edges (existing members get incremental WireMsgs).  The
  // new member must always be wired (possibly with zero bindings) before
  // START so the session protocol stays uniform.
  auto bindingPlan = im.planBindings(*rec, newEdges);
  bindingPlan.try_emplace(member.name);
  for (const auto& [target, bindings] : bindingPlan) {
    WireMsg wire;
    wire.sessionId = sessionId;
    wire.bindings = bindings;
    rec->wired.erase(target);
    rec->rejections.erase(target);
    im.sendOn(*rec->memberOutbox.at(target), wire);
  }
  // A refused WIRE settles the wait as an ok one does, and fails it.
  const auto refused = [&](const auto& b) {
    return rec->rejections.count(b.first) != 0;
  };
  const auto allAnswered = [&] {
    return std::all_of(bindingPlan.begin(), bindingPlan.end(),
                       [&](const auto& b) {
                         return rec->wired.count(b.first) != 0 || refused(b);
                       });
  };
  if (!im.waitUntil(lock, deadline, allAnswered) ||
      std::any_of(bindingPlan.begin(), bindingPlan.end(), refused)) {
    im.dropMember(*rec, sessionId, member.name, newEdges,
                  "session growth aborted");
    return false;
  }
  rec->edges.insert(rec->edges.end(), newEdges.begin(), newEdges.end());

  // Unlike establish(), START waits for every WIRE reply: the session is
  // live, and its members must never get traffic from a newcomer whose
  // growth may still be rolled back.
  StartMsg start;
  start.sessionId = sessionId;
  for (const MemberPlan& m : rec->members) start.peers.push_back(m.name);
  start.params = rec->params;
  im.sendOn(box, start);
  const std::string watchKey = sessionId + "/" + member.name;
  InboxRef liveRef;
  if (const auto it = rec->memberLiveness.find(member.name);
      im.monitor != nullptr && it != rec->memberLiveness.end()) {
    liveRef = it->second;
    rec->watchKeys[member.name] = watchKey;
  }
  lock.unlock();
  if (liveRef.valid()) im.monitor->watch(watchKey, liveRef);
  return true;
}

void Initiator::removeMember(const std::string& sessionId,
                             const std::string& member) {
  Impl& im = *impl_;
  std::string watchKey;
  {
    std::scoped_lock lock(im.mutex);
    const auto rec = im.find(sessionId);
    watchKey = im.dropMember(*rec, sessionId, member, rec->edges,
                             "removed from session");
  }
  if (im.monitor != nullptr && !watchKey.empty()) im.monitor->unwatch(watchKey);
}

}  // namespace dapple
