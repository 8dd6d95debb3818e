#include "dapple/services/tokens/token_manager.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <set>
#include <utility>

#include "dapple/core/service.hpp"
#include "dapple/core/state.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/util/log.hpp"

namespace dapple {

namespace {

constexpr const char* kLog = "tokens";

// Message kinds.
constexpr const char* kReq = "tok.req";
constexpr const char* kGrant = "tok.grant";
constexpr const char* kErr = "tok.err";
constexpr const char* kCancel = "tok.cancel";
constexpr const char* kProbe = "tok.probe";        // member -> home
constexpr const char* kProbeFwd = "tok.probe.fwd"; // home -> holder
constexpr const char* kTotalQ = "tok.total.q";
constexpr const char* kTotalA = "tok.total.a";
// Credit/lease protocol (DESIGN.md §14).
constexpr const char* kLeaseRenew = "tok.lease.renew";    // borrower -> home
constexpr const char* kLeaseRenewA = "tok.lease.renew.a"; // home -> borrower
constexpr const char* kLeaseRet = "tok.lease.ret";        // borrower -> home
constexpr const char* kLeaseRecall = "tok.lease.recall";  // home -> borrower
constexpr const char* kLeaseReq = "tok.lease.req";        // restart re-lease
constexpr const char* kLeaseGrant = "tok.lease.grant";    // home -> borrower

// Reserved journal keys (TokenConfig::journal, DESIGN.md §12/§14).
constexpr const char* kJournalHomePrefix = "dapple.tok/home/";
constexpr const char* kJournalLeases = "dapple.tok/leases";
constexpr const char* kJournalIncarnation = "dapple.tok/incarnation";

std::uint64_t colorHash(const TokenColor& color) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (unsigned char c : color) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

long long toMs(Duration d) {
  return std::chrono::duration_cast<milliseconds>(d).count();
}

}  // namespace

TokenConfig TokenConfig::normalized(std::vector<std::string>* notes) const {
  TokenConfig out = *this;
  const auto note = [notes](std::string n) {
    if (notes != nullptr) notes->push_back(std::move(n));
  };
  if (out.probeDelay <= Duration::zero()) {
    out.probeDelay = milliseconds(1);
    note("probeDelay <= 0 would probe every wakeup; clamped to 1ms");
  }
  if (out.probeInterval <= Duration::zero()) {
    out.probeInterval = milliseconds(1);
    note("probeInterval <= 0 would spin the prober; clamped to 1ms");
  }
  if (out.creditBatch < 0) {
    out.creditBatch = 0;
    note("creditBatch < 0 is meaningless; credit caching disabled");
  }
  if (out.leaseDuration <= Duration::zero()) {
    out.leaseDuration = milliseconds(20);
    note("leaseDuration <= 0 would expire loans before the first renewal; "
         "clamped to 20ms");
  }
  return out;
}

struct TokenManager::Impl : ServiceCore {
  Impl(Dapplet& dapplet, TokenConfig config)
      : ServiceCore(dapplet, "tokens.mgr"),
        cfg(config),
        mGrants(&d.metricsRegistry().counter("tokens.grants_issued")),
        mDenied(&d.metricsRegistry().counter("tokens.requests_denied")),
        mProbes(&d.metricsRegistry().counter("tokens.probes_sent")),
        mCacheHits(&d.metricsRegistry().counter("tokens.cache_hits")),
        mCacheMisses(&d.metricsRegistry().counter("tokens.cache_misses")),
        mRenewals(&d.metricsRegistry().counter("tokens.lease_renewals")),
        mExpiries(&d.metricsRegistry().counter("tokens.lease_expiries")),
        gCreditOut(&d.metricsRegistry().gauge("tokens.credit_outstanding")),
        trace(&d.trace()) {}

  const TokenConfig cfg;
  /// This process's boot count: one past the journal's last (1 without a
  /// journal).  Stamped on requests and lease traffic so a home can tell a
  /// recovered borrower (higher: retire the old loan, lend afresh) from a
  /// zombie (lower: refuse renewal).
  std::uint64_t incarnation = 1;
  /// Request deadlines, probe pacing, lease expiry, and every cv
  /// wait/notify run on the dapplet's clock so virtual-time tests advance
  /// through them.
  TimePoint now() const { return clock().now(); }
  // `requests_denied` counts deadlock verdicts and timeouts together — the
  // two ways a request() fails without a grant.
  obs::Counter* mGrants;
  obs::Counter* mDenied;
  obs::Counter* mProbes;
  obs::Counter* mCacheHits;
  obs::Counter* mCacheMisses;
  obs::Counter* mRenewals;
  obs::Counter* mExpiries;
  obs::Gauge* gCreditOut;
  obs::TraceRing* trace;
  std::weak_ptr<Impl> weakSelf;  // for timer callbacks

  bool attached = false;
  std::size_t selfIndex = 0;
  std::vector<Outbox*> peers;  // index-aligned; self slot used too (loop-back)

  // ---- home-side state (for colours homed at this member) ---------------
  /// Every token outside a home's free pool is on loan to one member.
  struct Loan {
    std::int64_t credits = 0;      ///< lent and not yet returned
    std::uint64_t id = 0;
    std::uint64_t incarnation = 1; ///< borrower's boot count
    bool leased = false;           ///< has a deadline: an ask opened it
    TimePoint expiresAt{};
  };
  struct HomeColor {
    std::int64_t total = 0;  ///< conservation constant
    std::int64_t free = 0;
    std::map<std::size_t, Loan> loans;  ///< member -> open loan
    struct Waiter {
      std::uint64_t ts;
      std::size_t from;
      std::int64_t count;
      std::string reqId;
      std::int64_t ask = 0;  ///< spare credits to lend alongside
      std::uint64_t incarnation = 1;
      friend bool operator<(const Waiter& a, const Waiter& b) {
        // Earlier timestamp first; ties to the lower member id (§4.2).
        return std::tie(a.ts, a.from) < std::tie(b.ts, b.from);
      }
    };
    std::vector<Waiter> waitQ;  // kept sorted
  };
  std::map<TokenColor, HomeColor> homed;
  std::uint64_t nextLeaseId = 1;
  std::int64_t lentTotal = 0;  ///< Σ loan credits across homed colours

  // ---- member-side state --------------------------------------------------
  /// This member's loan of one colour.
  struct Borrowing {
    std::int64_t credit = 0;     ///< cached, free to sub-let locally
    std::int64_t held = 0;       ///< sub-let to the app
    std::int64_t homebound = 0;  ///< of `held`, granted without an ask
    std::uint64_t leaseId = 0;   ///< 0 = no live loan (or re-lease pending)
    bool leased = false;         ///< the loan has a deadline
    TimePoint expiresAt{};
    TimePoint renewSentAt{};
    bool renewInFlight = false;
    TimePoint recallUntil{};     ///< fast path disabled until then
  };
  std::map<TokenColor, Borrowing> borrowed;
  /// App-held tokens whose lease died under us (the home reclaimed the
  /// loan).  The app still sees them in holdsTokens(); release() retires
  /// them silently — the home's pool already counts them.
  TokenBag orphaned;

  // Maintenance timer (renewals, expiry sweeps, recalls); armed lazily the
  // first time a leased loan exists on either side.
  Reactor::TimerHandle maintTimer;
  bool maintArmed = false;

  // ---- crash-recovery journal (cfg.journal) -------------------------------
  // Persisted under the store lock of the *caller's* mutex — every call
  // site already holds `mutex`, so journal writes are ordered like the
  // in-memory mutations they mirror.  The wait queue is deliberately not
  // journaled: a home that dies loses its waiters, whose request() calls
  // time out and retry against the restarted home.

  void journalHomeLocked(const TokenColor& color) {
    if (cfg.journal == nullptr) return;
    const auto it = homed.find(color);
    if (it == homed.end()) return;
    ValueMap entry;
    entry["total"] = Value(static_cast<long long>(it->second.total));
    entry["free"] = Value(static_cast<long long>(it->second.free));
    ValueMap lent;
    for (const auto& [member, loan] : it->second.loans) {
      ValueMap l;
      l["credits"] = Value(static_cast<long long>(loan.credits));
      l["id"] = Value(static_cast<long long>(loan.id));
      l["inc"] = Value(static_cast<long long>(loan.incarnation));
      l["leased"] = Value(loan.leased);
      lent[std::to_string(member)] = Value(std::move(l));
    }
    entry["lent"] = Value(std::move(lent));
    entry["nextLease"] = Value(static_cast<long long>(nextLeaseId));
    cfg.journal->put(kJournalHomePrefix + color, Value(std::move(entry)));
  }

  void journalLeasesLocked() {
    if (cfg.journal == nullptr) return;
    ValueMap bag;
    for (const auto& [color, e] : borrowed) {
      if (e.credit == 0 && e.held == 0) continue;
      ValueMap l;
      l["credit"] = Value(static_cast<long long>(e.credit));
      l["held"] = Value(static_cast<long long>(e.held));
      bag[color] = Value(std::move(l));
    }
    cfg.journal->put(kJournalLeases, Value(std::move(bag)));
  }

  /// attach()-time restore: counts this boot, and returns the colours
  /// whose home pool came back from the journal (their `initial` seeds must
  /// be skipped, or a restart would mint a second batch of every token).
  std::set<TokenColor> restoreJournalLocked() {
    std::set<TokenColor> restored;
    if (cfg.journal == nullptr) return restored;
    const Value last = cfg.journal->getOr(kJournalIncarnation, Value(0));
    incarnation = static_cast<std::uint64_t>(last.asInt()) + 1;
    cfg.journal->put(kJournalIncarnation,
                     Value(static_cast<long long>(incarnation)));
    for (const std::string& key : cfg.journal->keys()) {
      if (key.rfind(kJournalHomePrefix, 0) != 0) continue;
      const TokenColor color = key.substr(std::strlen(kJournalHomePrefix));
      const Value entry = cfg.journal->get(key);
      HomeColor& home = homed[color];
      home.total = entry.at("total").asInt();
      home.free = entry.at("free").asInt();
      // Outstanding loans survive the home's own restart; a leased one gets
      // a fresh grace period: live borrowers renew within it, dead ones
      // lapse and the sweep returns their credits.
      if (entry.asMap().count("lent") != 0) {
        for (const auto& [member, lv] : entry.at("lent").asMap()) {
          Loan loan;
          loan.credits = lv.at("credits").asInt();
          loan.id = static_cast<std::uint64_t>(lv.at("id").asInt());
          loan.incarnation = static_cast<std::uint64_t>(lv.at("inc").asInt());
          loan.leased = lv.at("leased").asBool();
          loan.expiresAt = now() + cfg.leaseDuration;
          if (loan.credits > 0) {
            home.loans[std::strtoull(member.c_str(), nullptr, 10)] = loan;
            lentTotal += loan.credits;
            if (loan.leased) armMaintenanceLocked();
          }
        }
      }
      if (entry.asMap().count("nextLease") != 0) {
        nextLeaseId = std::max<std::uint64_t>(
            nextLeaseId,
            static_cast<std::uint64_t>(entry.at("nextLease").asInt()));
      }
      restored.insert(color);
    }
    gCreditOut->set(lentTotal);
    return restored;
  }

  /// attach()-time restore of the member side of loans.  The journaled
  /// holdings become a provisional claim (leaseId 0, fast path off);
  /// attach() then asks each home to re-lease them under this boot's
  /// incarnation.  Journaled *free* credit is abandoned — the home retires
  /// the whole old loan when the re-lease arrives (or by expiry).
  std::vector<std::pair<TokenColor, std::int64_t>> restoreLeasesLocked() {
    std::vector<std::pair<TokenColor, std::int64_t>> claims;
    if (cfg.journal == nullptr) return claims;
    const Value img = cfg.journal->getOr(kJournalLeases, Value(ValueMap{}));
    for (const auto& [color, e] : img.asMap()) {
      const std::int64_t claim = e.at("held").asInt();
      if (claim > 0) {
        borrowed[color].held = claim;
        claims.emplace_back(color, claim);
      } else if (e.at("credit").asInt() > 0) {
        claims.emplace_back(color, 0);  // prompt retirement of the old loan
      }
    }
    return claims;
  }

  struct PendingRequest {
    std::string reqId;
    std::uint64_t ts = 0;
    // colour -> requested count (kAllTokens allowed)
    std::map<TokenColor, std::int64_t> wants;
    // colour -> grant (present once granted)
    struct Grant {
      std::int64_t count = 0;
      bool asked = false;  ///< answered an ask: may be cached on release
    };
    std::map<TokenColor, Grant> granted;
    bool deadlocked = false;
    std::string error;
    TimePoint startedAt;
    TimePoint nextProbe;
    // Edge-chasing round counter: bumped on every re-probe, carried by the
    // probe messages, and part of the intermediate dedup key — so a retry
    // round traverses members that already forwarded an earlier round.
    // Without it, a first round that races a not-yet-blocked (or
    // just-aborted) member dies, and every retry is dropped at the first
    // intermediate: the cycle is never detected again.
    std::uint64_t probeRound = 0;
  };
  std::optional<PendingRequest> pending;
  std::uint64_t nextReqSerial = 1;

  // Probe dedup: (origin, "reqId#round") pairs already forwarded.
  std::set<std::pair<std::size_t, std::string>> probesSeen;

  // totalTokens() bookkeeping.
  std::uint64_t nextQuerySerial = 1;
  struct TotalQuery {
    std::size_t repliesPending = 0;
    TokenBag totals;
  };
  std::map<std::uint64_t, TotalQuery> totalQueries;

  Stats stats;

  // -----------------------------------------------------------------------

  void sendTo(std::size_t index, const DataMessage& msg) {
    peers.at(index)->send(msg);
  }

  std::size_t homeOf(const TokenColor& color) const {
    return static_cast<std::size_t>(colorHash(color) % peers.size());
  }

  void rewireSlotLocked(std::size_t index, const InboxRef& ref) {
    peers.at(index) = &channel(ref);
  }

  // ---- maintenance (renewals, expiry, recall) -----------------------------

  Duration renewLead() const { return cfg.leaseDuration / 2; }

  void armMaintenanceLocked() {
    if (maintArmed || stopped) return;
    maintArmed = true;
    std::weak_ptr<Impl> weak = weakSelf;
    const Duration period =
        std::max<Duration>(milliseconds(1), cfg.leaseDuration / 4);
    maintTimer = d.every(period, [weak] {
      if (auto impl = weak.lock()) impl->maintenanceTick();
    });
  }

  void maintenanceTick() {
    std::scoped_lock lock(mutex);
    if (!attached || stopped) return;
    const TimePoint t = now();
    try {
      memberTickLocked(t);
      homeTickLocked(t);
    } catch (const Error& e) {
      // A renewal/recall can race the transport closing (the dapplet is
      // crashing or stopping); the lease machinery must not take the
      // reactor's timer wheel down with it.
      DAPPLE_LOG(kDebug, kLog) << "maintenance tick skipped: " << e.what();
    }
  }

  void memberTickLocked(TimePoint t) {
    bool dirty = false;
    for (auto& [color, e] : borrowed) {
      if (!e.leased) continue;
      if (t >= e.expiresAt) {
        // Our lease died (home reclaims on its side).
        loseLoanLocked(color, e);
        dirty = true;
        trace->emit("tokens", "lease.lost", color);
        continue;
      }
      // Rule 3: renew while any token of the loan is cached or held,
      // including the ones granted without an ask.
      if ((e.credit > 0 || e.held > 0) && !e.renewInFlight &&
          t + renewLead() >= e.expiresAt) {
        DataMessage renew(kLeaseRenew);
        renew.set("from", Value(static_cast<long long>(selfIndex)));
        renew.set("color", Value(color));
        renew.set("leaseId", Value(static_cast<long long>(e.leaseId)));
        renew.set("inc", Value(static_cast<long long>(incarnation)));
        sendTo(homeOf(color), renew);
        e.renewSentAt = t;
        e.renewInFlight = true;
      }
    }
    if (dirty) journalLeasesLocked();
  }

  /// The home no longer lends this member's loan (its lease lapsed or was
  /// refused, or a new loan replaced it): stop spending the credit and
  /// orphan every held token — restoring them too would double the colour.
  void loseLoanLocked(const TokenColor& color, Borrowing& e) {
    if (e.held > 0) orphaned[color] += e.held;
    e = Borrowing{.recallUntil = e.recallUntil};
  }

  void homeTickLocked(TimePoint t) {
    for (auto& [color, home] : homed) {
      std::vector<std::size_t> lapsed;
      for (const auto& [member, loan] : home.loans) {
        if (loan.leased && t >= loan.expiresAt) lapsed.push_back(member);
      }
      for (const std::size_t member : lapsed) {
        reclaimLoanLocked(color, home, member, /*expiry=*/true);
      }
      if (!home.waitQ.empty()) {
        // Demand outruns the pool: recall leased loans so borrowers return
        // unused credit and route releases home for a while.
        for (const auto& [member, loan] : home.loans) {
          if (!loan.leased || loan.credits <= 0) continue;
          DataMessage recall(kLeaseRecall);
          recall.set("color", Value(color));
          sendTo(member, recall);
        }
      }
    }
  }

  /// Exactly-once loan reclaim: the record's erasure is the once-guard, so
  /// lease expiry, memberDown(), and re-lease retirement can race freely.
  void reclaimLoanLocked(const TokenColor& color, HomeColor& home,
                         std::size_t member, bool expiry) {
    const auto it = home.loans.find(member);
    if (it == home.loans.end()) return;
    home.free += it->second.credits;
    lentTotal -= it->second.credits;
    home.loans.erase(it);
    ++stats.leasesReclaimed;
    if (expiry) {
      ++stats.leaseExpiries;
      mExpiries->inc();
      trace->emit("tokens", "lease.expire", color);
    } else {
      trace->emit("tokens", "lease.reclaim", color);
    }
    gCreditOut->set(lentTotal);
    journalHomeLocked(color);
    serveWaitQLocked(color, home);
  }

  void memberDownLocked(std::size_t index) {
    for (auto& [color, home] : homed) {
      reclaimLoanLocked(color, home, index, /*expiry=*/false);
    }
  }

  // ---- home logic ---------------------------------------------------------

  void grantLocked(HomeColor& home, const TokenColor& color,
                   const HomeColor::Waiter& waiter) {
    // Every grant goes out on the requester's loan.  Rule 1: only an ask
    // lends spare credit alongside and gives the loan a deadline; a grant
    // onto a leased loan shares that lease and refreshes it.
    const bool asked = waiter.ask > 0;
    const std::int64_t spare = std::max<std::int64_t>(
        0, std::min(waiter.ask, home.free - waiter.count));
    const std::int64_t lent = waiter.count + spare;
    home.free -= lent;
    Loan& loan = home.loans[waiter.from];
    if (loan.id == 0) loan.id = nextLeaseId++;
    loan.incarnation = std::max(loan.incarnation, waiter.incarnation);
    loan.credits += lent;
    loan.leased = loan.leased || asked;
    lentTotal += lent;
    gCreditOut->set(lentTotal);
    DataMessage grant(kGrant);
    grant.set("reqId", Value(waiter.reqId));
    grant.set("color", Value(color));
    grant.set("count", Value(static_cast<long long>(waiter.count)));
    grant.set("leaseId", Value(static_cast<long long>(loan.id)));
    if (asked) {
      grant.set("spare", Value(static_cast<long long>(spare)));
      ++stats.leasesGranted;
    }
    if (loan.leased) {
      loan.expiresAt = now() + cfg.leaseDuration;
      grant.set("durMs", Value(toMs(cfg.leaseDuration)));
      armMaintenanceLocked();
    }
    sendTo(waiter.from, grant);
    journalHomeLocked(color);
    ++stats.grantsIssued;
    mGrants->inc();
  }

  void serveWaitQLocked(const TokenColor& color, HomeColor& home) {
    // Strict earliest-first service: granting out of order would starve
    // earlier large requests behind later small ones.
    while (!home.waitQ.empty() && home.waitQ.front().count <= home.free) {
      grantLocked(home, color, home.waitQ.front());
      home.waitQ.erase(home.waitQ.begin());
    }
  }

  void onReq(const DataMessage& msg) {
    const std::string reqId = msg.get("reqId").asString();
    const auto from = static_cast<std::size_t>(msg.get("from").asInt());
    const auto ts = static_cast<std::uint64_t>(msg.get("ts").asInt());
    const TokenColor color = msg.get("color").asString();
    auto count = msg.get("count").asInt();

    std::scoped_lock lock(mutex);
    const auto it = homed.find(color);
    if (it == homed.end()) {
      DataMessage err(kErr);
      err.set("reqId", Value(reqId));
      err.set("color", Value(color));
      err.set("reason", Value("unknown token color '" + color + "'"));
      sendTo(from, err);
      return;
    }
    HomeColor& home = it->second;
    if (count == TokenRequest::kAllTokens) count = home.total;
    if (count < 0 || count > home.total) {
      DataMessage err(kErr);
      err.set("reqId", Value(reqId));
      err.set("color", Value(color));
      err.set("reason",
              Value("request for " + std::to_string(count) + " of '" + color +
                    "' exceeds the system total " +
                    std::to_string(home.total)));
      sendTo(from, err);
      return;
    }
    HomeColor::Waiter waiter{ts, from, count, reqId};
    if (msg.has("lease")) waiter.ask = msg.get("lease").asInt();
    waiter.incarnation = static_cast<std::uint64_t>(msg.get("inc").asInt());
    home.waitQ.insert(
        std::upper_bound(home.waitQ.begin(), home.waitQ.end(), waiter),
        waiter);
    serveWaitQLocked(color, home);
  }

  /// Home side of `tok.lease.ret`: `count` tokens of `from`'s loan come
  /// back to the pool.  A return racing a reclaim is dropped: the reclaim
  /// already restored the whole loan (in-flight returns included).
  void applyReturnLocked(std::size_t from, const TokenColor& color,
                         std::uint64_t id, std::int64_t count) {
    const auto hit = homed.find(color);
    if (hit == homed.end()) return;
    HomeColor& home = hit->second;
    const auto lit = home.loans.find(from);
    if (lit == home.loans.end() || lit->second.id != id) return;
    const std::int64_t n = std::min<std::int64_t>(count, lit->second.credits);
    lit->second.credits -= n;
    home.free += n;
    lentTotal -= n;
    gCreditOut->set(lentTotal);
    if (lit->second.credits <= 0) home.loans.erase(lit);
    journalHomeLocked(color);
    ++stats.releasesServed;
    serveWaitQLocked(color, home);
  }

  void onCancel(const DataMessage& msg) {
    const std::string reqId = msg.get("reqId").asString();
    const TokenColor color = msg.get("color").asString();
    std::scoped_lock lock(mutex);
    const auto it = homed.find(color);
    if (it == homed.end()) return;
    std::erase_if(it->second.waitQ, [&](const HomeColor::Waiter& w) {
      return w.reqId == reqId;
    });
  }

  void onProbe(const DataMessage& msg) {
    // Home side: fan the probe out to the colour's current borrowers —
    // any token on loan can be part of a hold-and-wait cycle.
    const auto origin = static_cast<std::size_t>(msg.get("origin").asInt());
    const std::string reqId = msg.get("reqId").asString();
    const long long round = msg.get("round").asInt();
    const TokenColor color = msg.get("color").asString();
    std::scoped_lock lock(mutex);
    const auto it = homed.find(color);
    if (it == homed.end()) return;
    for (const auto& [borrower, loan] : it->second.loans) {
      if (loan.credits <= 0) continue;
      DataMessage fwd(kProbeFwd);
      fwd.set("origin", Value(static_cast<long long>(origin)));
      fwd.set("reqId", Value(reqId));
      fwd.set("round", Value(round));
      sendTo(borrower, fwd);
      ++stats.probesForwarded;
    }
  }

  void onProbeFwd(const DataMessage& msg) {
    const auto origin = static_cast<std::size_t>(msg.get("origin").asInt());
    const std::string reqId = msg.get("reqId").asString();
    const long long round = msg.get("round").asInt();
    std::scoped_lock lock(mutex);
    if (origin == selfIndex) {
      // The probe came back: a hold-and-wait cycle through this member's
      // request exists.  Validate that the request is still blocked — a
      // stale probe may return after the final grant arrived but before
      // the requesting thread woke up, which is NOT a deadlock.
      if (pending && pending->reqId == reqId && !pending->deadlocked &&
          pending->granted.size() < pending->wants.size()) {
        pending->deadlocked = true;
        notifyAll();
      }
      return;
    }
    if (!pending) return;  // not blocked: the chain breaks here
    const std::string dedupKey = reqId + "#" + std::to_string(round);
    if (!probesSeen.emplace(origin, dedupKey).second) return;  // already sent
    if (probesSeen.size() > 4096) probesSeen.clear();          // bound memory
    for (const auto& [color, want] : pending->wants) {
      if (pending->granted.count(color) != 0) continue;  // satisfied colour
      DataMessage probe(kProbe);
      probe.set("origin", Value(static_cast<long long>(origin)));
      probe.set("reqId", Value(reqId));
      probe.set("round", Value(round));
      probe.set("color", Value(color));
      sendTo(homeOf(color), probe);
      ++stats.probesForwarded;
    }
  }

  // ---- member-side loan handling ------------------------------------------

  /// Sends `n` tokens of this member's loan `leaseId` home.  A self-homed
  /// colour applies in place: a loopback trip would leave the tokens
  /// neither held nor free, so stats (and grants) would lag the caller.
  void returnHomeLocked(const TokenColor& color, std::uint64_t leaseId,
                        std::int64_t n) {
    const std::size_t home = homeOf(color);
    if (home == selfIndex) {
      applyReturnLocked(selfIndex, color, leaseId, n);
      return;
    }
    DataMessage ret(kLeaseRet);
    ret.set("from", Value(static_cast<long long>(selfIndex)));
    ret.set("color", Value(color));
    ret.set("leaseId", Value(static_cast<long long>(leaseId)));
    ret.set("count", Value(static_cast<long long>(n)));
    sendTo(home, ret);
  }

  /// Gives `n` tokens back to their loan, `homebound` of them granted
  /// without an ask.  Rule 2: only tokens granted in reply to an ask return
  /// to the cache, and only while no recall is in force; the rest go home.
  void giveBackLocked(const TokenColor& color, Borrowing& e, std::int64_t n,
                      std::int64_t homebound) {
    // No live loan: a pending re-lease recomputes the credit from its
    // cover, and a lost loan was already reclaimed whole.
    if (e.leaseId == 0) return;
    const bool cache = e.leased && now() >= e.recallUntil;
    const std::int64_t home = cache ? homebound : n;
    e.credit += n - home;
    if (home > 0) returnHomeLocked(color, e.leaseId, home);
  }

  void onGrant(const DataMessage& msg) {
    const std::string reqId = msg.get("reqId").asString();
    const TokenColor color = msg.get("color").asString();
    const auto count = msg.get("count").asInt();
    const auto id = static_cast<std::uint64_t>(msg.get("leaseId").asInt());
    std::scoped_lock lock(mutex);
    Borrowing& e = borrowed[color];
    // A home keeps one loan per member and colour: a new id means the old
    // one is gone there, so whatever this member still books on it was
    // reclaimed.
    if (e.leaseId != 0 && e.leaseId != id) loseLoanLocked(color, e);
    e.leaseId = id;
    // Rule 1: the reply says whether the loan has a deadline.
    e.leased = msg.has("durMs");
    if (e.leased) {
      e.expiresAt = now() + milliseconds(msg.get("durMs").asInt());
      armMaintenanceLocked();
    }
    // An asked grant carries its spare credit, which lands in the cache now.
    const bool asked = msg.has("spare");
    if (asked) e.credit += msg.get("spare").asInt();
    if (!pending || pending->reqId != reqId) {
      // Grant for an aborted request: the tokens are ours on loan.
      giveBackLocked(color, e, count, asked ? 0 : count);
      journalLeasesLocked();
      return;
    }
    if (asked) journalLeasesLocked();
    pending->granted[color] = {count, asked};
    notifyAll();
  }

  void onErr(const DataMessage& msg) {
    const std::string reqId = msg.get("reqId").asString();
    std::scoped_lock lock(mutex);
    if (!pending || pending->reqId != reqId) return;
    pending->error = msg.get("reason").asString();
    notifyAll();
  }

  // ---- lease protocol handlers -------------------------------------------

  void onLeaseRenew(const DataMessage& msg) {
    const auto from = static_cast<std::size_t>(msg.get("from").asInt());
    const TokenColor color = msg.get("color").asString();
    const auto id = static_cast<std::uint64_t>(msg.get("leaseId").asInt());
    const auto inc = static_cast<std::uint64_t>(msg.get("inc").asInt());
    std::scoped_lock lock(mutex);
    bool ok = false;
    const auto hit = homed.find(color);
    if (hit != homed.end()) {
      const auto lit = hit->second.loans.find(from);
      if (lit != hit->second.loans.end() && lit->second.id == id &&
          inc >= lit->second.incarnation) {
        if (now() >= lit->second.expiresAt) {
          // The sweep's verdict stands even when the renewal races it in:
          // expiry already returned the credits to the pool.
          reclaimLoanLocked(color, hit->second, from, /*expiry=*/true);
        } else {
          lit->second.expiresAt = now() + cfg.leaseDuration;
          ok = true;
        }
      }
    }
    DataMessage reply(kLeaseRenewA);
    reply.set("color", Value(color));
    reply.set("leaseId", Value(static_cast<long long>(id)));
    reply.set("ok", Value(ok));
    reply.set("durMs", Value(toMs(cfg.leaseDuration)));
    sendTo(from, reply);
  }

  void onLeaseRenewA(const DataMessage& msg) {
    const TokenColor color = msg.get("color").asString();
    const auto id = static_cast<std::uint64_t>(msg.get("leaseId").asInt());
    std::scoped_lock lock(mutex);
    const auto it = borrowed.find(color);
    if (it == borrowed.end() || it->second.leaseId != id) return;
    Borrowing& e = it->second;
    e.renewInFlight = false;
    if (msg.get("ok").asBool()) {
      // Measured from when the renewal was *sent*, so the member's view of
      // the deadline is never later than the home's.
      e.expiresAt = e.renewSentAt + milliseconds(msg.get("durMs").asInt());
      ++stats.leaseRenewals;
      mRenewals->inc();
      return;
    }
    // Refused (reclaimed, or a newer incarnation took over): stop spending.
    loseLoanLocked(color, e);
    journalLeasesLocked();
    trace->emit("tokens", "lease.refused", color);
  }

  void onLeaseRet(const DataMessage& msg) {
    const auto from = static_cast<std::size_t>(msg.get("from").asInt());
    const TokenColor color = msg.get("color").asString();
    const auto id = static_cast<std::uint64_t>(msg.get("leaseId").asInt());
    const auto count = msg.get("count").asInt();
    std::scoped_lock lock(mutex);
    applyReturnLocked(from, color, id, count);
  }

  void onLeaseRecall(const DataMessage& msg) {
    const TokenColor color = msg.get("color").asString();
    std::scoped_lock lock(mutex);
    const auto it = borrowed.find(color);
    if (it == borrowed.end() || it->second.leaseId == 0) return;
    Borrowing& e = it->second;
    e.recallUntil = now() + cfg.leaseDuration;
    if (e.credit > 0) {
      const std::int64_t unused = e.credit;
      e.credit = 0;
      returnHomeLocked(color, e.leaseId, unused);
      journalLeasesLocked();
      trace->emit("tokens", "lease.recalled", color);
    }
  }

  void onLeaseReq(const DataMessage& msg) {
    const auto from = static_cast<std::size_t>(msg.get("from").asInt());
    const TokenColor color = msg.get("color").asString();
    const auto claim = msg.get("claim").asInt();
    const auto batch = msg.get("batch").asInt();
    const auto inc = static_cast<std::uint64_t>(msg.get("inc").asInt());
    std::scoped_lock lock(mutex);
    // The re-lease doubles as the restarted member's re-advertisement to
    // the token layer: replies (and future recalls) need its new address.
    rewireSlotLocked(from, inboxRefFromValue(msg.get("ref")));
    std::uint64_t leaseId = 0;
    bool leased = false;
    std::int64_t covered = 0, extra = 0;
    const auto hit = homed.find(color);
    if (hit != homed.end()) {
      HomeColor& home = hit->second;
      const auto lit = home.loans.find(from);
      const bool stale =
          lit != home.loans.end() && inc <= lit->second.incarnation;
      if (!stale) {
        if (lit != home.loans.end()) {
          // Retire the dead incarnation's loan first — inline, so its
          // credits cover the claim before any waiter can grab them.
          home.free += lit->second.credits;
          lentTotal -= lit->second.credits;
          home.loans.erase(lit);
          ++stats.leasesReclaimed;
        }
        covered = std::min<std::int64_t>(claim, home.free);
        home.free -= covered;
        extra = std::min<std::int64_t>(batch, home.free);
        home.free -= extra;
        if (covered + extra > 0) {
          // Rule 1 again: the re-lease asks for spare credit (and so gets a
          // deadline) exactly when the member caches.
          Loan loan;
          loan.credits = covered + extra;
          loan.id = nextLeaseId++;
          loan.incarnation = inc;
          loan.leased = batch > 0;
          loan.expiresAt = now() + cfg.leaseDuration;
          home.loans[from] = loan;
          lentTotal += loan.credits;
          leaseId = loan.id;
          leased = loan.leased;
          if (leased) {
            ++stats.leasesGranted;
            armMaintenanceLocked();
          }
        }
        gCreditOut->set(lentTotal);
        journalHomeLocked(color);
        serveWaitQLocked(color, home);
      }
    }
    DataMessage reply(kLeaseGrant);
    reply.set("color", Value(color));
    reply.set("leaseId", Value(static_cast<long long>(leaseId)));
    reply.set("covered", Value(static_cast<long long>(covered)));
    reply.set("extra", Value(static_cast<long long>(extra)));
    if (leased) reply.set("durMs", Value(toMs(cfg.leaseDuration)));
    sendTo(from, reply);
  }

  void onLeaseGrant(const DataMessage& msg) {
    const TokenColor color = msg.get("color").asString();
    const auto leaseId = static_cast<std::uint64_t>(
        msg.get("leaseId").asInt());
    const auto covered = msg.get("covered").asInt();
    const auto extra = msg.get("extra").asInt();
    std::scoped_lock lock(mutex);
    Borrowing& e = borrowed[color];
    if (e.held > covered) {
      // The home could not cover the journaled claim (its own state was
      // lost, or the pool was re-granted meanwhile): the shortfall is
      // forfeited — holding it would mint tokens.
      DAPPLE_LOG(kWarn, kLog)
          << d.name() << ": re-lease of '" << color << "' covered " << covered
          << "/" << e.held << "; forfeiting the difference";
      e.held = covered;
    }
    e.credit = covered + extra - e.held;
    e.leaseId = leaseId;
    e.leased = msg.has("durMs");
    // A leased re-lease answered an ask, so its tokens may be cached.
    e.homebound = e.leased ? 0 : e.held;
    if (e.leased) {
      e.expiresAt = now() + milliseconds(msg.get("durMs").asInt());
      armMaintenanceLocked();
    } else if (e.credit > 0) {
      // Released while the re-lease was pending, on a loan without a
      // deadline: rule 2 sends them home.
      returnHomeLocked(color, leaseId, e.credit);
      e.credit = 0;
    }
    journalLeasesLocked();
    trace->emit("tokens", "lease.restored", color);
    notifyAll();
  }

  void onTotalQ(const DataMessage& msg) {
    const auto qid = static_cast<std::uint64_t>(msg.get("qid").asInt());
    const auto from = static_cast<std::size_t>(msg.get("from").asInt());
    DataMessage reply(kTotalA);
    reply.set("qid", Value(static_cast<long long>(qid)));
    std::scoped_lock lock(mutex);
    ValueMap colors;
    for (const auto& [color, home] : homed) {
      std::int64_t lentSum = 0;
      for (const auto& [borrower, loan] : home.loans) {
        lentSum += loan.credits;
      }
      ValueMap entry;
      entry["total"] = Value(static_cast<long long>(home.total));
      entry["free"] = Value(static_cast<long long>(home.free));
      entry["lent"] = Value(static_cast<long long>(lentSum));
      colors[color] = Value(std::move(entry));
    }
    reply.set("colors", Value(std::move(colors)));
    sendTo(from, reply);
  }

  void onTotalA(const DataMessage& msg) {
    const auto qid = static_cast<std::uint64_t>(msg.get("qid").asInt());
    std::scoped_lock lock(mutex);
    const auto it = totalQueries.find(qid);
    if (it == totalQueries.end()) return;
    for (const auto& [color, entry] : msg.get("colors").asMap()) {
      it->second.totals[color] = entry.at("total").asInt();
    }
    if (--it->second.repliesPending == 0) notifyAll();
  }

  void dispatch(const Delivery& del) {
    const auto* msg = dynamic_cast<const DataMessage*>(del.message.get());
    if (msg == nullptr) return;
    const std::string& kind = msg->kind();
    if (kind == kReq) {
      onReq(*msg);
    } else if (kind == kGrant) {
      onGrant(*msg);
    } else if (kind == kErr) {
      onErr(*msg);
    } else if (kind == kCancel) {
      onCancel(*msg);
    } else if (kind == kProbe) {
      onProbe(*msg);
    } else if (kind == kProbeFwd) {
      onProbeFwd(*msg);
    } else if (kind == kTotalQ) {
      onTotalQ(*msg);
    } else if (kind == kTotalA) {
      onTotalA(*msg);
    } else if (kind == kLeaseRenew) {
      onLeaseRenew(*msg);
    } else if (kind == kLeaseRenewA) {
      onLeaseRenewA(*msg);
    } else if (kind == kLeaseRet) {
      onLeaseRet(*msg);
    } else if (kind == kLeaseRecall) {
      onLeaseRecall(*msg);
    } else if (kind == kLeaseReq) {
      onLeaseReq(*msg);
    } else if (kind == kLeaseGrant) {
      onLeaseGrant(*msg);
    }
  }

  // ---- requester-side helpers -------------------------------------------

  void sendProbesLocked() {
    ++pending->probeRound;
    for (const auto& [color, want] : pending->wants) {
      if (pending->granted.count(color) != 0) continue;
      DataMessage probe(kProbe);
      probe.set("origin", Value(static_cast<long long>(selfIndex)));
      probe.set("reqId", Value(pending->reqId));
      probe.set("round", Value(static_cast<long long>(pending->probeRound)));
      probe.set("color", Value(color));
      sendTo(homeOf(color), probe);
      ++stats.probesSent;
      mProbes->inc();
    }
  }

  /// Cancels outstanding colour requests and gives partial grants back to
  /// their loans.
  void abortPendingLocked() {
    for (const auto& [color, want] : pending->wants) {
      if (pending->granted.count(color) != 0) continue;
      DataMessage cancel(kCancel);
      cancel.set("reqId", Value(pending->reqId));
      cancel.set("color", Value(color));
      sendTo(homeOf(color), cancel);
    }
    for (const auto& [color, grant] : pending->granted) {
      giveBackLocked(color, borrowed[color], grant.count,
                     grant.asked ? 0 : grant.count);
    }
    if (!pending->granted.empty()) journalLeasesLocked();
    pending.reset();
  }
};

TokenManager::TokenManager(Dapplet& dapplet, TokenConfig config) {
  std::vector<std::string> notes;
  impl_ = std::make_shared<Impl>(dapplet, config.normalized(&notes));
  impl_->weakSelf = impl_;
  for (const std::string& n : notes) {
    impl_->trace->emit("tokens", "config.clamp", n);
    DAPPLE_LOG(kWarn, kLog) << dapplet.name() << ": " << n;
  }
}

TokenManager::~TokenManager() {
  // shutdown() marks the manager stopped first, so the maintenance timer
  // can no longer re-arm; cancel() then waits out an in-flight tick, so no
  // callback touches impl state after these lines.
  impl_->shutdown();
  impl_->maintTimer.cancel();
}

InboxRef TokenManager::ref() const { return impl_->inbox->ref(); }

void TokenManager::attach(const std::vector<InboxRef>& managers,
                          std::size_t selfIndex, const TokenBag& initial) {
  std::vector<std::pair<TokenColor, std::int64_t>> claims;
  {
    std::scoped_lock lock(impl_->mutex);
    if (impl_->attached) throw TokenError("token manager already attached");
    impl_->selfIndex = selfIndex;
    impl_->peers.resize(managers.size(), nullptr);
    for (std::size_t i = 0; i < managers.size(); ++i) {
      impl_->peers[i] = &impl_->channel(managers[i]);
    }
    // Crash recovery: journaled pools and holdings take precedence over the
    // `initial` seeds — re-seeding a restored colour would mint new tokens
    // and break conservation.
    const std::set<TokenColor> restored = impl_->restoreJournalLocked();
    claims = impl_->restoreLeasesLocked();
    for (const auto& [color, count] : initial) {
      if (impl_->homeOf(color) != selfIndex) {
        throw TokenError("colour '" + color + "' is homed at member " +
                         std::to_string(impl_->homeOf(color)) +
                         ", seed it there");
      }
      if (count < 0) throw TokenError("negative seed for '" + color + "'");
      if (restored.count(color) != 0) continue;
      auto& home = impl_->homed[color];
      home.total = count;
      home.free = count;
      impl_->journalHomeLocked(color);
    }
    impl_->attached = true;
    // Re-lease every journaled loan under this boot's incarnation: the home
    // retires the dead incarnation's loan and covers the claim from it.
    for (const auto& [color, claim] : claims) {
      DataMessage req(kLeaseReq);
      req.set("from", Value(static_cast<long long>(selfIndex)));
      req.set("color", Value(color));
      req.set("claim", Value(static_cast<long long>(claim)));
      req.set("batch",
              Value(static_cast<long long>(impl_->cfg.creditBatch)));
      req.set("inc", Value(static_cast<long long>(impl_->incarnation)));
      req.set("ref", inboxRefToValue(impl_->inbox->ref()));
      impl_->sendTo(impl_->homeOf(color), req);
    }
  }
  // Serve from here on: a peer can learn this manager's ref and send before
  // attach(), and those messages wait in the inbox until the handler is
  // installed, which delivers them in order.
  impl_->serve([impl = impl_.get()](const Delivery& del) {
    impl->dispatch(del);
  });
}

std::size_t TokenManager::homeOf(const TokenColor& color) const {
  std::scoped_lock lock(impl_->mutex);
  if (!impl_->attached) throw TokenError("token manager not attached");
  return impl_->homeOf(color);
}

std::size_t TokenManager::homeOfColor(const TokenColor& color,
                                      std::size_t memberCount) {
  if (memberCount == 0) throw TokenError("empty member list");
  return static_cast<std::size_t>(colorHash(color) % memberCount);
}

void TokenManager::memberDown(std::size_t index) {
  std::scoped_lock lock(impl_->mutex);
  if (!impl_->attached) throw TokenError("token manager not attached");
  impl_->memberDownLocked(index);
}

void TokenManager::request(const TokenList& wants, Duration timeout) {
  std::unique_lock lock(impl_->mutex);
  if (!impl_->attached) throw TokenError("token manager not attached");
  if (impl_->pending) {
    throw TokenError("a request is already outstanding on this manager");
  }
  if (wants.empty()) return;

  std::map<TokenColor, std::int64_t> folded;
  for (const TokenRequest& want : wants) {
    if (want.count == 0) continue;
    if (want.count < 0 && want.count != TokenRequest::kAllTokens) {
      throw TokenError("invalid token count");
    }
    folded[want.color] += 0;  // ensure entry
    auto& entry = folded[want.color];
    if (want.count == TokenRequest::kAllTokens ||
        entry == TokenRequest::kAllTokens) {
      entry = TokenRequest::kAllTokens;
    } else {
      entry += want.count;
    }
  }
  if (folded.empty()) return;

  const TimePoint tnow = impl_->now();
  if (impl_->cfg.creditBatch > 0) {
    // Fast path: the whole request covered by live cached credit means a
    // grant with zero network hops.
    bool allCached = true;
    for (const auto& [color, count] : folded) {
      if (count == TokenRequest::kAllTokens) {
        allCached = false;
        break;
      }
      const auto it = impl_->borrowed.find(color);
      if (it == impl_->borrowed.end() || it->second.leaseId == 0 ||
          tnow >= it->second.expiresAt || tnow < it->second.recallUntil ||
          it->second.credit < count) {
        allCached = false;
        break;
      }
    }
    if (allCached) {
      for (const auto& [color, count] : folded) {
        auto& e = impl_->borrowed.at(color);
        e.credit -= count;
        e.held += count;
      }
      impl_->journalLeasesLocked();
      ++impl_->stats.cacheHits;
      impl_->mCacheHits->inc();
      ++impl_->stats.requestsGranted;
      return;
    }
    ++impl_->stats.cacheMisses;
    impl_->mCacheMisses->inc();
  }

  Impl::PendingRequest req;
  req.reqId = impl_->d.name() + "#" +
              std::to_string(impl_->nextReqSerial++);
  req.ts = impl_->d.clock().tick();
  req.wants = std::move(folded);
  req.startedAt = tnow;
  req.nextProbe = req.startedAt + impl_->cfg.probeDelay;
  impl_->pending = std::move(req);

  for (const auto& [color, count] : impl_->pending->wants) {
    DataMessage msg(kReq);
    msg.set("reqId", Value(impl_->pending->reqId));
    msg.set("from", Value(static_cast<long long>(impl_->selfIndex)));
    msg.set("ts", Value(static_cast<long long>(impl_->pending->ts)));
    msg.set("color", Value(color));
    msg.set("count", Value(static_cast<long long>(count)));
    msg.set("inc", Value(static_cast<long long>(impl_->incarnation)));
    if (impl_->cfg.creditBatch > 0 && count != TokenRequest::kAllTokens) {
      const auto bit = impl_->borrowed.find(color);
      const bool recalled =
          bit != impl_->borrowed.end() && tnow < bit->second.recallUntil;
      if (!recalled) {
        // Ask the home to lend a batch of spare credits with the grant.
        msg.set("lease",
                Value(static_cast<long long>(impl_->cfg.creditBatch)));
      }
    }
    impl_->sendTo(impl_->homeOf(color), msg);
  }

  const TimePoint deadline = impl_->now() + timeout;
  while (true) {
    if (impl_->stopped) {
      impl_->abortPendingLocked();
      throw ShutdownError("token manager stopped");
    }
    auto& p = *impl_->pending;
    // Full grant wins over any concurrently-arrived verdict: if the
    // tokens are all here, the request succeeded.
    if (p.granted.size() == p.wants.size()) break;
    if (!p.error.empty()) {
      const std::string error = p.error;
      impl_->abortPendingLocked();
      throw TokenError(error);
    }
    if (p.deadlocked) {
      ++impl_->stats.requestsDeadlocked;
      impl_->mDenied->inc();
      impl_->trace->emit("tokens", "request.deadlock");
      impl_->abortPendingLocked();
      throw DeadlockError(
          "token managers detected a deadlock involving this request");
    }
    const TimePoint now = impl_->now();
    if (now >= deadline) {
      ++impl_->stats.requestsTimedOut;
      impl_->mDenied->inc();
      impl_->trace->emit("tokens", "request.timeout");
      impl_->abortPendingLocked();
      throw TimeoutError("token request timed out");
    }
    if (now >= p.nextProbe) {
      impl_->sendProbesLocked();
      p.nextProbe = now + impl_->cfg.probeInterval;
    }
    impl_->clock().parkUntil(lock, impl_->cv, std::min(deadline, p.nextProbe));
  }
  for (const auto& [color, grant] : impl_->pending->granted) {
    auto& e = impl_->borrowed[color];
    if (e.leaseId == 0) {
      // The loan died while other colours were pending: the home already
      // counts these tokens.
      impl_->orphaned[color] += grant.count;
      continue;
    }
    e.held += grant.count;
    if (!grant.asked) e.homebound += grant.count;
  }
  impl_->journalLeasesLocked();
  ++impl_->stats.requestsGranted;
  impl_->pending.reset();
}

void TokenManager::release(const TokenList& gives) {
  std::scoped_lock lock(impl_->mutex);
  if (!impl_->attached) throw TokenError("token manager not attached");
  const auto availableOf = [&](const TokenColor& color) {
    std::int64_t have = 0;
    const auto bit = impl_->borrowed.find(color);
    if (bit != impl_->borrowed.end()) have += bit->second.held;
    const auto oit = impl_->orphaned.find(color);
    if (oit != impl_->orphaned.end()) have += oit->second;
    return have;
  };
  // Validate first so the operation is all-or-nothing (paper: "if the
  // tokens specified in tokenList are not in holdsTokens an exception is
  // raised").
  TokenBag toGive;
  for (const TokenRequest& give : gives) {
    if (give.count == TokenRequest::kAllTokens) {
      toGive[give.color] += availableOf(give.color) - toGive[give.color];
    } else if (give.count < 0) {
      throw TokenError("invalid release count");
    } else {
      toGive[give.color] += give.count;
    }
  }
  for (const auto& [color, count] : toGive) {
    const std::int64_t have = availableOf(color);
    if (count > have) {
      throw TokenError("release of " + std::to_string(count) + " '" + color +
                       "' tokens but only " + std::to_string(have) +
                       " are held");
    }
  }
  bool dirty = false;
  for (const auto& [color, count] : toGive) {
    if (count == 0) continue;
    std::int64_t remaining = count;
    // 1. Orphaned tokens retire silently: their lease died, so the home's
    //    pool already counts them.
    const auto oit = impl_->orphaned.find(color);
    if (oit != impl_->orphaned.end() && remaining > 0) {
      const std::int64_t n = std::min(remaining, oit->second);
      oit->second -= n;
      remaining -= n;
      if (oit->second == 0) impl_->orphaned.erase(oit);
    }
    // 2. The rest go back to their loan: to the cache (no messages) or
    //    home, tokens granted without an ask first.
    if (remaining > 0) {
      Impl::Borrowing& e = impl_->borrowed.at(color);
      const std::int64_t homebound = std::min(remaining, e.homebound);
      e.held -= remaining;
      e.homebound -= homebound;
      impl_->giveBackLocked(color, e, remaining, homebound);
      dirty = true;
    }
  }
  if (dirty) impl_->journalLeasesLocked();
}

void TokenManager::rewire(std::size_t index, const InboxRef& ref) {
  std::scoped_lock lock(impl_->mutex);
  if (!impl_->attached) throw TokenError("token manager not attached");
  if (index >= impl_->peers.size()) {
    throw TokenError("rewire index " + std::to_string(index) +
                     " out of range");
  }
  impl_->rewireSlotLocked(index, ref);
}

TokenBag TokenManager::totalTokens(Duration timeout) {
  std::unique_lock lock(impl_->mutex);
  if (!impl_->attached) throw TokenError("token manager not attached");
  const std::uint64_t qid = impl_->nextQuerySerial++;
  auto& query = impl_->totalQueries[qid];
  query.repliesPending = impl_->peers.size();
  DataMessage msg(kTotalQ);
  msg.set("qid", Value(static_cast<long long>(qid)));
  msg.set("from", Value(static_cast<long long>(impl_->selfIndex)));
  for (std::size_t i = 0; i < impl_->peers.size(); ++i) {
    impl_->sendTo(i, msg);
  }
  const bool done = impl_->waitFor(lock, timeout, [&] {
    return impl_->totalQueries.at(qid).repliesPending == 0;
  });
  TokenBag totals = std::move(impl_->totalQueries.at(qid).totals);
  impl_->totalQueries.erase(qid);
  if (!done) throw TimeoutError("totalTokens query timed out");
  return totals;
}

TokenBag TokenManager::holdsTokens() const {
  std::scoped_lock lock(impl_->mutex);
  TokenBag out;
  for (const auto& [color, e] : impl_->borrowed) {
    if (e.held != 0) out[color] += e.held;
  }
  for (const auto& [color, count] : impl_->orphaned) {
    if (count != 0) out[color] += count;
  }
  return out;
}

TokenBag TokenManager::cachedCredits() const {
  std::scoped_lock lock(impl_->mutex);
  TokenBag out;
  for (const auto& [color, e] : impl_->borrowed) {
    if (e.credit != 0) out[color] = e.credit;
  }
  return out;
}

TokenBag TokenManager::lentCredits() const {
  std::scoped_lock lock(impl_->mutex);
  TokenBag out;
  for (const auto& [color, home] : impl_->homed) {
    std::int64_t sum = 0;
    for (const auto& [borrower, loan] : home.loans) sum += loan.credits;
    if (sum != 0) out[color] = sum;
  }
  return out;
}

std::vector<std::string> TokenManager::auditHomeLedger() const {
  std::scoped_lock lock(impl_->mutex);
  std::vector<std::string> violations;
  for (const auto& [color, home] : impl_->homed) {
    std::int64_t lent = 0;
    for (const auto& [borrower, loan] : home.loans) lent += loan.credits;
    if (home.free + lent != home.total) {
      violations.push_back(color + ": free=" + std::to_string(home.free) +
                           " lent=" + std::to_string(lent) +
                           " != total=" + std::to_string(home.total));
    }
  }
  return violations;
}

void TokenManager::returnCachedCredits() {
  std::scoped_lock lock(impl_->mutex);
  if (!impl_->attached) throw TokenError("token manager not attached");
  bool dirty = false;
  for (auto& [color, e] : impl_->borrowed) {
    if (e.credit <= 0 || e.leaseId == 0) continue;
    const std::int64_t unused = e.credit;
    e.credit = 0;
    impl_->returnHomeLocked(color, e.leaseId, unused);
    dirty = true;
  }
  if (dirty) impl_->journalLeasesLocked();
}

TokenManager::Stats TokenManager::stats() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->stats;
}

}  // namespace dapple
