#pragma once
/// \file token_manager.hpp
/// \brief Tokens and capabilities (paper §4.1), with hierarchical credit
/// caching under leases.
///
/// *"We treat each resource as a token.  Tokens are objects that are
/// neither created nor destroyed: a fixed number of them are communicated
/// and shared among the processes of a system.  Tokens have colors ...  A
/// network of token-manager objects manages tokens shared by all the
/// dapplets in a session.  A token is either held by a dapplet or by the
/// network of token managers."*
///
/// Design.  Every member dapplet runs a `TokenManager`.  Each colour has a
/// *home* manager (chosen by hashing the colour over the member list) that
/// owns the colour's free pool and serializes grants.  Requests are
/// timestamped with the member's Lamport clock and served earliest-first
/// (ties to the lower member index) — the conflict-resolution policy of
/// §4.2.  A member blocked past `probeDelay` launches Chandy–Misra–Haas
/// edge-chasing probes through the homes of the colours it awaits; a probe
/// that returns to its origin proves a hold-and-wait cycle, and the origin's
/// `request()` throws DeadlockError after returning its partial grants —
/// *"If the token managers detect a deadlock an exception is raised."*
///
/// One ledger (DESIGN.md §14).  Every token outside a home's free pool is on
/// loan to one member, which returns it with `tok.lease.ret`; the paper's
/// round-trip grant is a loan of exactly the requested count.  A single home
/// per colour makes every such grant a remote round trip, which caps a hot
/// colour's throughput at the network RTT.  With `TokenConfig::creditBatch`
/// above 0 a request *asks* for spare credits alongside the grant, and the
/// member sub-lets them locally: later `request()`s of that colour are served
/// from the cache with no network hop at all.  Only an ask gives its loan a
/// Gray & Cheriton lease (`leaseDuration`, renewed from the reactor's
/// `every()` wheel while any of its tokens is held, reclaimed by the home on
/// expiry), and only asked-for tokens return to the cache on release; the
/// rest go home.  A home with blocked waiters *recalls* leased loans, and
/// `memberDown()` reclaims every loan of a crashed member.  A restarted
/// borrower re-leases its journaled holdings under the next incarnation,
/// counted in its own journal; the home retires the old loan first, so a
/// recovered process can never double-spend and a zombie's renewals are
/// refused.
///
/// The conservation invariant (fixed token count per colour) is checkable
/// at any quiescent point via `totalTokens()` and is exercised by the
/// property tests and the scenario fuzzer; `cachedCredits()` and
/// `lentCredits()` expose both ends of every loan for the oracle.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dapple/core/dapplet.hpp"
#include "dapple/serial/value.hpp"

namespace dapple {

/// A colour is a resource type; a bag counts tokens per colour.
using TokenColor = std::string;
using TokenBag = std::map<TokenColor, std::int64_t>;

/// One item of a request: `count` tokens of `color`.  `kAllTokens` requests
/// every token of the colour (paper: "or the request can ask for all tokens
/// of a given color").
struct TokenRequest {
  TokenColor color;
  std::int64_t count = 1;
  static constexpr std::int64_t kAllTokens = -1;
};
using TokenList = std::vector<TokenRequest>;

class StateStore;

/// Tuning for the token-manager network.
struct TokenConfig {
  /// How long a request may remain unsatisfied before deadlock probes are
  /// launched.
  Duration probeDelay = milliseconds(100);
  /// Re-probe period while still blocked.
  Duration probeInterval = milliseconds(100);
  /// Optional crash-recovery journal (DESIGN.md §12), typically a
  /// `recovery::DurableState`'s store.  When set, the manager persists its
  /// home pools, both sides of every loan and its boot count under
  /// reserved "dapple.tok/*" keys at every mutation, and attach() restores
  /// them — ignoring `initial` seeds for restored colours — so a restarted
  /// member neither mints nor loses tokens.  Must outlive the manager.
  StateStore* journal = nullptr;

  // --- credit caching / leases (DESIGN.md §14) ----------------------------

  /// Spare credits a request asks for alongside each remote grant, cached
  /// for local sub-letting.  0 (the paper's round trip per grant) never
  /// asks, so its loans carry no lease.
  std::int64_t creditBatch = 0;
  /// Lease lifetime of a loan opened by an ask.  The home reclaims it this
  /// long after the last grant/renewal; the borrower renews from the
  /// maintenance timer (every `leaseDuration / 4`) well before expiry, so
  /// an unbroken member keeps its credit indefinitely.
  Duration leaseDuration = milliseconds(2000);

  /// Copy with nonsense knobs clamped to safe values (mirrors
  /// `ReliableConfig::normalized`): non-positive probe/lease durations and
  /// negative credit batches would wedge the renewal wheel or spin it hot.
  /// Each adjustment appends one human-readable note to `notes`; the
  /// TokenManager constructor normalizes its config and emits every note as
  /// a `tokens/config.clamp` trace event.
  TokenConfig normalized(std::vector<std::string>* notes = nullptr) const;
};

/// One member's token manager.  Construct one per member; call `attach`
/// with the full, identically-ordered list of manager inbox refs.  The
/// member at index i seeds the free pools of the colours homed at i via
/// `initial` (colour -> count); colours homed elsewhere must be seeded by
/// their own home member.
class TokenManager {
 public:
  TokenManager(Dapplet& dapplet, TokenConfig config = TokenConfig{});
  ~TokenManager();

  TokenManager(const TokenManager&) = delete;
  TokenManager& operator=(const TokenManager&) = delete;

  /// This manager's inbox (share with the other members).
  InboxRef ref() const;

  /// Wires the manager network.  `initial` seeds colours whose home is
  /// `selfIndex` (seeding a colour homed elsewhere throws TokenError).
  /// With a journal, restored member-side loans are re-leased from their
  /// homes under this boot's incarnation (asynchronously; quiesce the
  /// network before asserting on `cachedCredits()`).
  void attach(const std::vector<InboxRef>& managers, std::size_t selfIndex,
              const TokenBag& initial);

  /// Crash recovery: re-points the peer slot `index` at a restarted
  /// member's manager inbox (the replacement process listens at a new
  /// address).  Call on every survivor after the restarted member's
  /// manager ref is re-advertised.  Throws TokenError before attach().
  void rewire(std::size_t index, const InboxRef& ref);

  /// MEMBER_DOWN: reclaims every loan lent to member `index` by the
  /// colours homed here, leased or not, returning the tokens to their
  /// pools.  Exactly once per loan — a reclaim that already happened (lease
  /// expiry, an earlier call) is a no-op, so a failure detector and the
  /// expiry sweep may race freely.
  void memberDown(std::size_t index);

  /// Home member index of a colour (hash over the member count).
  std::size_t homeOf(const TokenColor& color) const;

  /// Same mapping, computable before attach() (e.g. to build the initial
  /// seed bag for a known member count).
  static std::size_t homeOfColor(const TokenColor& color,
                                 std::size_t memberCount);

  // --- the paper's API ---------------------------------------------------

  /// Suspends until every requested token is granted, then transfers them
  /// to this dapplet (`holdsTokens`).  With cached credit covering the
  /// whole request this is a local operation (no messages).  Throws
  /// DeadlockError when the managers detect a hold-and-wait cycle
  /// involving this request, and TimeoutError after `timeout`; in both
  /// cases partial grants are returned to their homes and holdings are
  /// unchanged.
  void request(const TokenList& wants, Duration timeout = seconds(30));

  /// Returns the listed tokens to the manager network.  Tokens granted in
  /// reply to an ask return to the cache (again no messages, unless a
  /// recall is in force); the rest go home.  Throws TokenError when the
  /// dapplet does not hold them.
  void release(const TokenList& gives);

  /// Queries every home and returns the total number of tokens of each
  /// colour in the system (free + on loan).
  TokenBag totalTokens(Duration timeout = seconds(5));

  /// Tokens currently held by this dapplet (the paper's `holdsTokens`).
  TokenBag holdsTokens() const;

  // --- loan introspection (oracles, tests) -------------------------------

  /// Member side: free cached credits per colour (borrowed, not yet
  /// sub-let to the application).
  TokenBag cachedCredits() const;

  /// Home side: tokens currently on loan per colour homed here, held or
  /// cached (summed over borrowers).
  TokenBag lentCredits() const;

  /// Returns every free cached credit to its home (the loans stay live
  /// for the application-held portion).  Makes a quiescent system's
  /// accounting exact for conservation oracles.
  void returnCachedCredits();

  /// Home-side ledger audit (oracles): for every colour homed here,
  /// `free + Σlent` must equal the minted total — the paper's "neither
  /// created nor destroyed", with loans on the books.  Returns
  /// one description per violated colour; empty means the ledger balances.
  std::vector<std::string> auditHomeLedger() const;

  struct Stats {
    std::uint64_t requestsGranted = 0;
    std::uint64_t requestsDeadlocked = 0;
    std::uint64_t requestsTimedOut = 0;
    std::uint64_t probesSent = 0;
    std::uint64_t probesForwarded = 0;
    std::uint64_t grantsIssued = 0;   ///< as a home
    std::uint64_t releasesServed = 0; ///< as a home: returns applied
    // --- credit caching ---------------------------------------------------
    std::uint64_t cacheHits = 0;       ///< request() served from cache
    std::uint64_t cacheMisses = 0;     ///< caching on, but went remote
    std::uint64_t leasesGranted = 0;   ///< as a home: asks served
    std::uint64_t leaseRenewals = 0;   ///< as a borrower: renewals acked
    std::uint64_t leaseExpiries = 0;   ///< as a home: loans reclaimed by expiry
    std::uint64_t leasesReclaimed = 0; ///< as a home: every reclaim (expiry,
                                       ///< memberDown, re-lease retirement)
  };
  Stats stats() const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace dapple
