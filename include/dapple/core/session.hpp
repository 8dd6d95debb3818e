#pragma once
/// \file session.hpp
/// \brief Sessions: temporary networks of dapplets (paper §1, §3.1).
///
/// A `SessionAgent` makes a dapplet able to *participate* in sessions: it
/// owns the control inbox ("session.ctl") and handles it on the dapplet's
/// reactor, enforces the access-control list and the interference guard,
/// creates/destroys the session's ports, and runs the application role on a
/// dedicated thread.
///
/// An `Initiator` *establishes* sessions: given a plan (members from an
/// address `Directory`, a port topology, per-member state access sets and
/// parameters) it runs the INVITE/WIRE/START protocol, can grow or shrink a
/// live session, gathers the members' DONE results, and finally UNLINKs
/// everyone.

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dapple/core/dapplet.hpp"
#include "dapple/core/directory.hpp"
#include "dapple/core/peer_monitor.hpp"
#include "dapple/core/session_msgs.hpp"
#include "dapple/core/state.hpp"
#include "dapple/serial/value.hpp"

namespace dapple {

/// Name of the control inbox every session-capable dapplet exposes.
inline constexpr const char* kSessionControlInbox = "session.ctl";

class SessionAgent;

/// The environment a role function runs in: the session's ports, peers,
/// parameters, scoped state view, and a stop token that fires on unlink.
class SessionContext {
 public:
  const std::string& sessionId() const { return sessionId_; }
  const std::string& app() const { return app_; }
  /// This member's name within the session.
  const std::string& self() const { return self_; }
  /// All member names (initiator order).
  const std::vector<std::string>& peers() const { return peers_; }
  /// Member-specific parameters (from the invite).
  const Value& params() const { return params_; }
  /// Session-wide parameters (from START).
  const Value& sessionParams() const;

  /// Session-local inbox, by the name given in the invite.
  Inbox& inbox(const std::string& name) const;
  /// Session-local outbox, by the name used in the wiring plan.
  Outbox& outbox(const std::string& name) const;
  bool hasInbox(const std::string& name) const;
  bool hasOutbox(const std::string& name) const;

  /// The session's window onto the dapplet's persistent state.  Throws
  /// StateError when the agent was built without a StateStore.
  StateView& state() const;

  /// The hosting dapplet (for clocks, spawning helpers, etc.).
  Dapplet& dapplet() const { return dapplet_; }

  /// Fires when the initiator unlinks or aborts the session.
  std::stop_token stopToken() const;

  /// Sets the value reported to the initiator in this member's DONE.
  void setResult(Value result);

 private:
  friend class SessionAgent;
  struct Record;
  SessionContext(Dapplet& dapplet, std::shared_ptr<Record> record);

  Dapplet& dapplet_;
  std::shared_ptr<Record> record_;
  std::string sessionId_;
  std::string app_;
  std::string self_;
  std::vector<std::string> peers_;
  Value params_;
};

/// Makes a dapplet able to accept session invitations and run roles.
class SessionAgent {
 public:
  /// The code a member runs once the session starts.
  using RoleFn = std::function<void(SessionContext&)>;

  struct Config {
    /// Initiator names allowed to link this dapplet into sessions; empty
    /// means "allow everyone".  Paper §3.1: a dapplet "may reject the
    /// request because the requesting dapplet was not on its access control
    /// list".
    std::set<std::string> acl;
    /// Persistent state shared across sessions (may be null).
    StateStore* store = nullptr;
    /// Optional failure detector (typically a LivenessMonitor).  When set,
    /// the agent advertises its heartbeat inbox in INVITE replies, watches
    /// each session's initiator, and unlinks sessions whose initiator is
    /// suspected dead.  Must outlive the agent.
    PeerMonitor* monitor = nullptr;
    /// Crash recovery (DESIGN.md §12): when true (requires `store`, which
    /// should be a `recovery::DurableState`'s journaled store) the agent
    /// journals each linked session's metadata under reserved
    /// "dapple.sess/<id>" keys so that after a kill, `rejoinPersisted()`
    /// can re-enter those sessions via the REJOIN handshake.
    bool durableSessions = false;
    /// This process's restart counter (`DurableState::incarnation()`).
    /// Carried in REJOIN so the initiator can order a restart against
    /// stale eviction events.
    std::uint64_t incarnation = 0;
  };

  explicit SessionAgent(Dapplet& dapplet) : SessionAgent(dapplet, Config{}) {}
  SessionAgent(Dapplet& dapplet, Config config);
  ~SessionAgent();

  SessionAgent(const SessionAgent&) = delete;
  SessionAgent& operator=(const SessionAgent&) = delete;

  /// Registers the role to run for sessions of application `app`.
  void registerApp(const std::string& app, RoleFn role);

  /// The control inbox other dapplets put in their directories.
  InboxRef controlRef() const;

  /// The interference guard (exposed for tests and diagnostics).
  InterferenceGuard& guard();

  /// Ids of currently linked sessions.
  std::vector<std::string> activeSessions() const;

  /// Crash-recovery re-entry (Config::durableSessions): for every session
  /// journaled in the store by a previous incarnation, re-creates the
  /// session's inboxes and role record, then sends REJOIN to its initiator
  /// (retrying with backoff until acked, rejected, or attempts exhaust —
  /// the initiator replies with WIRE + START, after which the role re-runs
  /// from the recovered state).  Call after registering the apps.  Returns
  /// the session ids for which a rejoin was initiated.
  std::vector<std::string> rejoinPersisted();

  struct Stats {
    std::uint64_t invitesAccepted = 0;
    std::uint64_t invitesRejectedAcl = 0;
    std::uint64_t invitesRejectedInterference = 0;
    std::uint64_t invitesRejectedUnknownApp = 0;
    std::uint64_t sessionsCompleted = 0;
    std::uint64_t sessionsUnlinked = 0;
    std::uint64_t peersEvicted = 0;       ///< MEMBER_DOWN notices processed
    std::uint64_t initiatorsLost = 0;     ///< sessions dropped: initiator died
    std::uint64_t rejoinsSent = 0;        ///< REJOIN requests initiated
    std::uint64_t peersRejoined = 0;      ///< MEMBER_UP notices processed
  };
  Stats stats() const;

 private:
  friend class SessionContext;
  struct Impl;
  // Shared because role threads outlive dispatch and must keep Impl alive.
  std::shared_ptr<Impl> impl_;
};

/// Establishes, grows, shrinks, and terminates sessions from any dapplet.
///
/// Its replies (INVITE and WIRE answers, DONEs, REJOINs) arrive in one
/// reply inbox handled on the dapplet's reactor.  `establish`,
/// `awaitCompletion`, `addMember`, `removeMember` and `terminate` block
/// their caller, so they must not run in a handler or timer on that
/// dapplet's reactor: the reply they wait for is handled there.
class Initiator {
 public:
  /// `monitor` (optional, typically a LivenessMonitor) lets the initiator
  /// watch member liveness: a suspected member is evicted via failMember().
  /// Must outlive the initiator.
  explicit Initiator(Dapplet& dapplet, PeerMonitor* monitor = nullptr);
  ~Initiator();

  Initiator(const Initiator&) = delete;
  Initiator& operator=(const Initiator&) = delete;

  /// One member of a session plan.
  struct MemberPlan {
    std::string name;             ///< member name within the session
    InboxRef control;             ///< the member's session-control inbox
    std::vector<std::string> inboxes;   ///< session inboxes to create
    std::vector<std::string> readKeys;  ///< declared state reads
    std::vector<std::string> writeKeys; ///< declared state writes
    Value params;                 ///< member-specific parameters
  };

  /// A directed port edge: `fromMember`'s outbox -> `toMember`'s inbox.
  struct Edge {
    std::string fromMember;
    std::string fromOutbox;
    std::string toMember;
    std::string toInbox;
  };

  /// A whole session plan.
  struct Plan {
    std::string app;
    std::vector<MemberPlan> members;
    std::vector<Edge> edges;
    Value params;                 ///< session-wide parameters
    Duration phaseTimeout = seconds(10);
    /// Setup retry policy: INVITE/WIRE/START are re-sent to unresponsive
    /// members up to `setupAttempts` times, waiting a jittered exponential
    /// backoff (`retryBase`, `2*retryBase`, ...) between attempts, all
    /// bounded by `phaseTimeout`.  One attempt = no retries.
    std::size_t setupAttempts = 4;
    Duration retryBase = milliseconds(200);
  };

  /// Outcome of establish().
  struct Result {
    bool ok = false;
    std::string sessionId;
    /// member name -> rejection reason (empty map on success).
    std::map<std::string, std::string> rejections;
  };

  /// Convenience: builds MemberPlan control refs by looking names up in an
  /// address directory (Figure 2's "invokes and sends address directory").
  static MemberPlan member(const Directory& directory,
                           const std::string& name,
                           std::vector<std::string> inboxes,
                           Value params = Value(ValueMap{}));

  /// Runs INVITE -> WIRE -> START.  Blocking; on any rejection or timeout
  /// the accepted members are sent ABORT-style unlinks and `ok` is false.
  Result establish(const Plan& plan);

  /// Waits until every member of `sessionId` reported DONE — or was evicted
  /// as crashed — then returns member -> result values.  An evicted member's
  /// entry is a map `{peerDown: true, member: <name>, reason: <verdict>}`,
  /// so callers get partial results naming the failed member instead of a
  /// timeout.  Throws TimeoutError when survivors are still running at the
  /// deadline and SessionError for unknown sessions, or for one terminated
  /// while awaited.
  std::map<std::string, Value> awaitCompletion(const std::string& sessionId,
                                               Duration timeout);

  /// Declares `member` of `sessionId` crashed: evicts it, broadcasts
  /// MEMBER_DOWN to the survivors (whose blocked receives fail fast with
  /// PeerDownError), and annotates awaitCompletion's result.  Invoked
  /// automatically by the liveness monitor and by reliable-stream failures;
  /// public so applications and tests can evict explicitly.  Idempotent;
  /// unknown sessions/members are ignored.
  void failMember(const std::string& sessionId, const std::string& member,
                  const std::string& reason);

  /// Members of `sessionId` evicted so far (name -> reason).
  std::map<std::string, std::string> downMembers(
      const std::string& sessionId) const;

  /// Broadcasts UNLINK, ending the session.  Idempotent.
  void terminate(const std::string& sessionId, const std::string& reason = "");

  /// Grows a live session: invites `member`, wires `newEdges` (which may
  /// reference existing members on either end), and sends the newcomer
  /// START.  Returns false with no change on rejection.
  bool addMember(const std::string& sessionId, const MemberPlan& member,
                 const std::vector<Edge>& newEdges, Duration timeout);

  /// Shrinks a live session: unlinks `member` and drops every binding that
  /// targets its inboxes.
  void removeMember(const std::string& sessionId, const std::string& member);

 private:
  struct Impl;
  // Shared because failure hooks (liveness monitor, dapplet stream-failure
  // listeners) hold weak references that may fire after destruction.
  std::shared_ptr<Impl> impl_;
};

}  // namespace dapple
