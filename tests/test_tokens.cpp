// Tests for the token service (§4.1): request/release semantics, the
// conservation invariant, reader/writer exclusion, and deadlock detection.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "dapple/net/sim.hpp"
#include "dapple/services/directory/directory_service.hpp"
#include "dapple/services/recovery/recovery.hpp"
#include "dapple/services/sync/distributed.hpp"
#include "dapple/services/tokens/token_manager.hpp"
#include "dapple/testkit/virtual_clock.hpp"
#include "dapple/util/rng.hpp"

namespace dapple {
namespace {

TokenConfig fastProbes() {
  TokenConfig cfg;
  cfg.probeDelay = milliseconds(50);
  cfg.probeInterval = milliseconds(50);
  return cfg;
}

/// N dapplets, each with an attached token manager.  `seed[color]` tokens
/// are injected at each colour's home member.
struct TokenRig {
  explicit TokenRig(std::size_t n, const TokenBag& seed,
                    TokenConfig cfg = fastProbes())
      : net(55) {
    for (std::size_t i = 0; i < n; ++i) {
      dapplets.push_back(
          std::make_unique<Dapplet>(net, "t" + std::to_string(i)));
      managers.push_back(
          std::make_unique<TokenManager>(*dapplets.back(), cfg));
    }
    std::vector<InboxRef> refs;
    for (auto& m : managers) refs.push_back(m->ref());
    for (std::size_t i = 0; i < n; ++i) {
      TokenBag mine;
      for (const auto& [color, count] : seed) {
        if (TokenManager::homeOfColor(color, n) == i) mine[color] = count;
      }
      managers[i]->attach(refs, i, mine);
    }
  }

  ~TokenRig() {
    managers.clear();
    for (auto& d : dapplets) d->stop();
  }

  SimNetwork net;
  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<TokenManager>> managers;
};

TEST(Tokens, RequestGrantsAndHoldsTokens) {
  TokenRig rig(3, {{"red", 5}});
  rig.managers[0]->request({{"red", 2}});
  EXPECT_EQ(rig.managers[0]->holdsTokens().at("red"), 2);
  rig.managers[1]->request({{"red", 3}});
  EXPECT_EQ(rig.managers[1]->holdsTokens().at("red"), 3);
  rig.managers[0]->release({{"red", 2}});
  EXPECT_TRUE(rig.managers[0]->holdsTokens().empty());
}

TEST(Tokens, BlocksUntilTokensAreReleased) {
  TokenRig rig(2, {{"lock", 1}});
  rig.managers[0]->request({{"lock", 1}});
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    rig.managers[1]->request({{"lock", 1}}, seconds(10));
    granted = true;
  });
  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_FALSE(granted) << "granted while the token was held elsewhere";
  rig.managers[0]->release({{"lock", 1}});
  waiter.join();
  EXPECT_TRUE(granted);
  EXPECT_EQ(rig.managers[1]->holdsTokens().at("lock"), 1);
}

TEST(Tokens, RequestAllTokensOfAColor) {
  TokenRig rig(3, {{"rw", 4}});
  rig.managers[2]->request({{"rw", TokenRequest::kAllTokens}});
  EXPECT_EQ(rig.managers[2]->holdsTokens().at("rw"), 4);
  rig.managers[2]->release({{"rw", TokenRequest::kAllTokens}});
  EXPECT_TRUE(rig.managers[2]->holdsTokens().empty());
  rig.managers[0]->request({{"rw", 4}});  // all free again
}

TEST(Tokens, ReleaseUnheldThrows) {
  // Paper: "if the tokens specified in tokenList are not in holdsTokens an
  // exception is raised".
  TokenRig rig(2, {{"red", 3}});
  EXPECT_THROW(rig.managers[0]->release({{"red", 1}}), TokenError);
  rig.managers[0]->request({{"red", 2}});
  EXPECT_THROW(rig.managers[0]->release({{"red", 3}}), TokenError);
  rig.managers[0]->release({{"red", 2}});  // exact holdings fine
}

TEST(Tokens, UnknownColorFailsRequest) {
  TokenRig rig(2, {{"known", 1}});
  EXPECT_THROW(rig.managers[0]->request({{"imaginary", 1}}), TokenError);
}

TEST(Tokens, OverTotalRequestFails) {
  TokenRig rig(2, {{"red", 3}});
  EXPECT_THROW(rig.managers[0]->request({{"red", 7}}), TokenError);
}

TEST(Tokens, TotalTokensReportsSystemTotals) {
  // Paper: "totalTokens() returns ... the total number of tokens of all
  // colors in the system" — unchanged no matter who holds what.
  TokenRig rig(3, {{"red", 5}, {"blue", 2}});
  auto before = rig.managers[1]->totalTokens();
  EXPECT_EQ(before.at("red"), 5);
  EXPECT_EQ(before.at("blue"), 2);
  rig.managers[0]->request({{"red", 4}, {"blue", 1}});
  auto after = rig.managers[2]->totalTokens();
  EXPECT_EQ(after, before) << "conservation invariant violated";
}

TEST(Tokens, ConservationUnderConcurrentChurn) {
  TokenRig rig(4, {{"a", 6}, {"b", 3}});
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 4; ++i) {
    threads.emplace_back([&rig, i] {
      Rng rng(i + 1);
      for (int op = 0; op < 25; ++op) {
        const TokenColor color = rng.chance(0.5) ? "a" : "b";
        const std::int64_t n = 1 + static_cast<std::int64_t>(rng.below(2));
        rig.managers[i]->request({{color, n}}, seconds(20));
        std::this_thread::sleep_for(microseconds(rng.below(500)));
        rig.managers[i]->release({{color, n}});
      }
    });
  }
  for (auto& t : threads) t.join();
  auto totals = rig.managers[0]->totalTokens();
  EXPECT_EQ(totals.at("a"), 6);
  EXPECT_EQ(totals.at("b"), 3);
  // Everything was released: all requests must be grantable again.
  rig.managers[1]->request({{"a", 6}, {"b", 3}}, seconds(10));
}

TEST(Tokens, ReaderWriterProtocol) {
  // Paper §4.1: readers hold >= 1 token, writers hold all tokens.
  constexpr std::int64_t kReaders = 3;
  TokenRig rig(3, {{"doc", kReaders}});
  std::atomic<int> readers{0};
  std::atomic<int> writers{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      Rng rng(7 * i + 1);
      for (int op = 0; op < 20; ++op) {
        if (rng.chance(0.3)) {
          rig.managers[i]->request({{"doc", TokenRequest::kAllTokens}},
                                   seconds(20));
          if (++writers != 1 || readers != 0) violated = true;
          std::this_thread::sleep_for(microseconds(200));
          --writers;
          rig.managers[i]->release({{"doc", TokenRequest::kAllTokens}});
        } else {
          rig.managers[i]->request({{"doc", 1}}, seconds(20));
          ++readers;
          if (writers != 0) violated = true;
          std::this_thread::sleep_for(microseconds(100));
          --readers;
          rig.managers[i]->release({{"doc", 1}});
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violated) << "read/write exclusion violated";
}

TEST(Tokens, DeadlockDetectedOnTwoCycle) {
  // Paper: "If the token managers detect a deadlock an exception is
  // raised" — the hold-and-wait two-cycle: 0 holds A wants B, 1 holds B
  // wants A.  A deadlock victim releases its held colour, so one abort
  // unwinds the whole cycle and the survivor's request completes.
  TokenRig rig(2, {{"A", 1}, {"B", 1}});
  rig.managers[0]->request({{"A", 1}});
  rig.managers[1]->request({{"B", 1}});
  std::atomic<int> deadlocks{0};
  const auto chase = [&](std::size_t self, const char* held, const char* want) {
    try {
      rig.managers[self]->request({{want, 1}}, seconds(30));
      rig.managers[self]->release({{want, 1}});
      rig.managers[self]->release({{held, 1}});
    } catch (const DeadlockError&) {
      ++deadlocks;
      rig.managers[self]->release({{held, 1}});
    } catch (const Error& e) {
      ADD_FAILURE() << "member " << self << " raised " << e.what();
    }
  };
  std::thread t0(chase, 0, "A", "B");
  std::thread t1(chase, 1, "B", "A");
  t0.join();
  t1.join();
  EXPECT_GE(deadlocks.load(), 1) << "no deadlock detected";
  // Every colour is back at its home: the system recovers.
  rig.managers[0]->request({{"A", 1}, {"B", 1}}, seconds(30));
  rig.managers[0]->release({{"A", 1}, {"B", 1}});
}

TEST(Tokens, DeadlockDetectedOnThreeCycle) {
  TokenRig rig(3, {{"A", 1}, {"B", 1}, {"C", 1}});
  rig.managers[0]->request({{"A", 1}});
  rig.managers[1]->request({{"B", 1}});
  rig.managers[2]->request({{"C", 1}});
  std::atomic<int> deadlocks{0};
  const auto chase = [&](std::size_t self, const char* held, const char* want) {
    try {
      rig.managers[self]->request({{want, 1}}, seconds(30));
      rig.managers[self]->release({{want, 1}});
      rig.managers[self]->release({{held, 1}});
    } catch (const DeadlockError&) {
      // Aborting releases nothing by itself — drop the held colour too so
      // the ring unwinds and the remaining chasers finish cleanly.
      ++deadlocks;
      rig.managers[self]->release({{held, 1}});
    } catch (const Error& e) {
      ADD_FAILURE() << "member " << self << " raised " << e.what();
    }
  };
  std::thread t0(chase, 0, "A", "B");
  std::thread t1(chase, 1, "B", "C");
  std::thread t2(chase, 2, "C", "A");
  t0.join();
  t1.join();
  t2.join();
  EXPECT_GE(deadlocks.load(), 1);
}

TEST(Tokens, NoFalseDeadlockUnderContention) {
  // Heavy contention on one colour with release-before-request discipline
  // must never report deadlock (paper: avoided "if dapplets release all
  // resources before next requesting resources").
  TokenRig rig(3, {{"hot", 1}});
  std::atomic<int> deadlocks{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      for (int op = 0; op < 15; ++op) {
        try {
          rig.managers[i]->request({{"hot", 1}}, seconds(30));
          std::this_thread::sleep_for(milliseconds(20));  // probes fire
          rig.managers[i]->release({{"hot", 1}});
        } catch (const DeadlockError&) {
          ++deadlocks;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(deadlocks.load(), 0) << "false positive deadlock";
}

TEST(Tokens, TimestampFairnessEarlierRequestWinsTheQueue) {
  TokenRig rig(3, {{"fair", 1}});
  rig.managers[0]->request({{"fair", 1}});
  // Queue two waiters in timestamp order: manager 1 requests first.
  std::atomic<int> order{0};
  std::atomic<int> firstServed{-1};
  std::thread w1([&] {
    rig.managers[1]->request({{"fair", 1}}, seconds(10));
    int expected = -1;
    firstServed.compare_exchange_strong(expected, 1);
    rig.managers[1]->release({{"fair", 1}});
  });
  std::this_thread::sleep_for(milliseconds(100));  // ensure ts(1) < ts(2)
  std::thread w2([&] {
    rig.managers[2]->request({{"fair", 1}}, seconds(10));
    int expected = -1;
    firstServed.compare_exchange_strong(expected, 2);
    rig.managers[2]->release({{"fair", 1}});
  });
  std::this_thread::sleep_for(milliseconds(100));
  rig.managers[0]->release({{"fair", 1}});
  w1.join();
  w2.join();
  EXPECT_EQ(firstServed.load(), 1)
      << "later-timestamped request served first";
  (void)order;
}

TEST(Tokens, MultiColorRequestIsAtomicOnFailure) {
  TokenRig rig(2, {{"x", 2}, {"y", 2}});
  // A request with an unknown colour must not leave x tokens held.
  EXPECT_THROW(rig.managers[0]->request({{"x", 1}, {"ghost", 1}}),
               TokenError);
  std::this_thread::sleep_for(milliseconds(100));  // returns drain
  auto totals = rig.managers[1]->totalTokens();
  EXPECT_EQ(totals.at("x"), 2);
  rig.managers[1]->request({{"x", 2}}, seconds(5));  // all free
}

TEST(DistributedSemaphore, MutualExclusionAcrossDapplets) {
  TokenRig rig(3, {{"sem", 1}});
  DistributedSemaphore sem0(*rig.managers[0], "sem");
  DistributedSemaphore sem1(*rig.managers[1], "sem");
  DistributedSemaphore sem2(*rig.managers[2], "sem");
  DistributedSemaphore* sems[] = {&sem0, &sem1, &sem2};
  std::atomic<int> inside{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      for (int op = 0; op < 10; ++op) {
        sems[i]->acquire(1, seconds(20));
        if (++inside != 1) violated = true;
        std::this_thread::sleep_for(microseconds(300));
        --inside;
        sems[i]->release();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violated);
}

TEST(Tokens, StatsAreMaintained) {
  TokenRig rig(2, {{"s", 2}});
  rig.managers[0]->request({{"s", 1}});
  rig.managers[0]->release({{"s", 1}});
  const auto stats0 = rig.managers[0]->stats();
  EXPECT_EQ(stats0.requestsGranted, 1u);
  // The home of "s" (whichever member) issued a grant and served a release.
  const auto home = TokenManager::homeOfColor("s", 2);
  const auto homeStats = rig.managers[home]->stats();
  EXPECT_GE(homeStats.grantsIssued, 1u);
  EXPECT_GE(homeStats.releasesServed, 1u);
}

// ---------------------------------------------------------------------------
// Credit caching under leases (DESIGN.md §14), on the virtual clock so lease
// lifetimes cost milliseconds of wall time and expiry races are repeatable.
// ---------------------------------------------------------------------------

SimNetwork::Options simOpts(testkit::VirtualClock& clock) {
  SimNetwork::Options opts;
  opts.clock = &clock;
  return opts;
}

/// Lease knobs: short leases, quiet deadlock prober (a borrower that holds
/// tokens while waiting would otherwise trip edge-chasing probes).
TokenConfig leaseCfg() {
  TokenConfig cfg;
  cfg.probeDelay = seconds(60);
  cfg.probeInterval = seconds(60);
  cfg.creditBatch = 3;
  cfg.leaseDuration = milliseconds(400);
  return cfg;
}

/// First colour (by enumeration) whose home is member `home` of `n`.
TokenColor colorHomedAt(std::size_t home, std::size_t n) {
  for (int i = 0;; ++i) {
    TokenColor c = "col" + std::to_string(i);
    if (TokenManager::homeOfColor(c, n) == home) return c;
  }
}

std::string leaseTempDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const auto path = std::filesystem::temp_directory_path() /
                    ("dapple_tokens_" + std::to_string(::getpid()) + "_" +
                     tag + "_" + std::to_string(counter.fetch_add(1)));
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path.string();
}

/// N managers on the virtual clock.  Declaration order makes the clock
/// outlive the network and dapplets.  With `mainIsWorker` the test thread
/// becomes a clock worker before anything starts, so virtual time stands
/// still whenever it is not parked on the clock.
struct LeaseRig {
  LeaseRig(std::size_t n, const TokenBag& seed, TokenConfig cfg = leaseCfg(),
           bool mainIsWorker = false)
      : mainWorker(mainIsWorker
                       ? (clock.announceWorker(),
                          std::make_optional<ClockSource::WorkerScope>(clock))
                       : std::nullopt),
        net(91, simOpts(clock)) {
    for (std::size_t i = 0; i < n; ++i) {
      DappletConfig dc;
      dc.clock = &clock;
      dc.host = static_cast<std::uint32_t>(i + 1);
      dapplets.push_back(
          std::make_unique<Dapplet>(net, "L" + std::to_string(i), dc));
      managers.push_back(
          std::make_unique<TokenManager>(*dapplets.back(), cfg));
    }
    for (auto& m : managers) refs.push_back(m->ref());
    for (std::size_t i = 0; i < n; ++i) {
      TokenBag mine;
      for (const auto& [color, count] : seed) {
        if (TokenManager::homeOfColor(color, n) == i) mine[color] = count;
      }
      managers[i]->attach(refs, i, mine);
    }
  }

  ~LeaseRig() {
    managers.clear();
    for (auto& d : dapplets) {
      if (d) d->stop();
    }
  }

  /// Abrupt death: the member's manager vanishes without returning its
  /// loan — only lease expiry (or memberDown) can recover the credits.
  void crashMember(std::size_t i) {
    dapplets[i]->crash();
    managers[i].reset();
    dapplets[i].reset();
  }

  testkit::VirtualClock clock;
  std::optional<ClockSource::WorkerScope> mainWorker;
  SimNetwork net;
  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<TokenManager>> managers;
  std::vector<InboxRef> refs;
};

TEST(TokenLeases, CachedCreditServesLocalGrants) {
  const TokenColor color = colorHomedAt(0, 2);
  LeaseRig rig(2, {{color, 6}});
  auto& borrower = *rig.managers[1];

  borrower.request({{color, 1}});  // remote: grant + a borrowed batch
  EXPECT_EQ(borrower.stats().cacheMisses, 1u);
  EXPECT_EQ(borrower.cachedCredits().at(color), 3);

  borrower.request({{color, 2}});  // sub-let from the cache, no round trip
  EXPECT_EQ(borrower.stats().cacheHits, 1u);
  EXPECT_EQ(borrower.holdsTokens().at(color), 3);
  EXPECT_EQ(borrower.cachedCredits().at(color), 1);

  borrower.release({{color, 3}});  // leased grants return to the cache
  EXPECT_TRUE(borrower.holdsTokens().empty());
  EXPECT_EQ(borrower.cachedCredits().at(color), 4);

  // Home accounting: the whole loan (grant + batch) is on the books, and
  // the colour's system total is untouched by any of it.
  EXPECT_EQ(rig.managers[0]->lentCredits().at(color), 4);
  EXPECT_EQ(rig.managers[0]->totalTokens().at(color), 6);
}

TEST(TokenLeases, RenewalExtendsLeaseWithoutAGrantGap) {
  const TokenConfig cfg = leaseCfg();
  const TokenColor color = colorHomedAt(0, 2);
  LeaseRig rig(2, {{color, 6}}, cfg);
  auto& borrower = *rig.managers[1];

  borrower.request({{color, 2}});
  const auto lentBefore = rig.managers[0]->lentCredits().at(color);

  // Many lease lifetimes pass; the maintenance wheel renews in time, so
  // the home never reclaims and the cached credit never lapses.
  rig.clock.sleepFor(cfg.leaseDuration * 6);

  const auto home = rig.managers[0]->stats();
  EXPECT_EQ(home.leaseExpiries, 0u) << "renewal arrived late";
  EXPECT_EQ(home.leasesReclaimed, 0u);
  EXPECT_EQ(rig.managers[0]->lentCredits().at(color), lentBefore);
  EXPECT_GE(borrower.stats().leaseRenewals, 2u);

  borrower.request({{color, 1}});  // still served locally: no grant gap
  EXPECT_EQ(borrower.stats().cacheHits, 1u);
}

TEST(TokenLeases, ExpiryReclaimsACrashedBorrowersCredit) {
  const TokenConfig cfg = leaseCfg();
  const TokenColor color = colorHomedAt(0, 2);
  LeaseRig rig(2, {{color, 4}}, cfg);

  rig.managers[1]->request({{color, 2}});
  EXPECT_EQ(rig.managers[0]->lentCredits().at(color), 4);  // 2 held + batch

  rig.crashMember(1);
  rig.clock.sleepFor(cfg.leaseDuration * 4);  // renewals stopped with it

  const auto home = rig.managers[0]->stats();
  EXPECT_GE(home.leaseExpiries, 1u);
  EXPECT_GE(home.leasesReclaimed, 1u);
  EXPECT_TRUE(rig.managers[0]->lentCredits().empty());

  // Every token is back in the pool: the full colour is grantable again.
  rig.managers[0]->request({{color, 4}}, seconds(10));
  EXPECT_EQ(rig.managers[0]->holdsTokens().at(color), 4);
}

TEST(TokenLeases, ExpiryAndMemberDownReclaimExactlyOnce) {
  const TokenConfig cfg = leaseCfg();
  const TokenColor color = colorHomedAt(0, 3);
  LeaseRig rig(3, {{color, 9}}, cfg);

  rig.managers[1]->request({{color, 2}});  // loan of 5 (2 held + batch 3)
  rig.managers[2]->request({{color, 1}});  // loan of 4

  // Order one: failure detector first, expiry sweep later.
  rig.crashMember(1);
  rig.managers[0]->memberDown(1);
  EXPECT_EQ(rig.managers[0]->stats().leasesReclaimed, 1u);
  rig.clock.sleepFor(cfg.leaseDuration * 4);
  // The sweep found no record left for member 1, and member 2 kept
  // renewing: still exactly one reclaim.
  EXPECT_EQ(rig.managers[0]->stats().leasesReclaimed, 1u);

  // Order two: expiry first, a (late) MEMBER_DOWN verdict after.
  rig.crashMember(2);
  rig.clock.sleepFor(cfg.leaseDuration * 4);
  EXPECT_EQ(rig.managers[0]->stats().leasesReclaimed, 2u);
  EXPECT_GE(rig.managers[0]->stats().leaseExpiries, 1u);
  rig.managers[0]->memberDown(2);
  EXPECT_EQ(rig.managers[0]->stats().leasesReclaimed, 2u)
      << "MEMBER_DOWN after expiry double-freed the loan";

  // Exactly-once accounting: the pool holds exactly the seeded 9 — all
  // nine grantable, a tenth is not.
  EXPECT_TRUE(rig.managers[0]->lentCredits().empty());
  rig.managers[0]->request({{color, 9}}, seconds(10));
  EXPECT_THROW(rig.managers[0]->request({{color, 1}}, milliseconds(500)),
               TimeoutError);
}

TEST(TokenLeases, RoundTripHoldingOutlivesAPartitionLongerThanTheLease) {
  // A round-trip grant (creditBatch 0) asks for no spare credit, so its
  // loan has no lease: however long the holder is cut off, the home must
  // not hand its token to anyone else.
  TokenConfig cfg = leaseCfg();
  cfg.creditBatch = 0;
  const TokenColor color = colorHomedAt(0, 3);
  LeaseRig rig(3, {{color, 1}}, cfg);
  auto& holder = *rig.managers[1];
  auto& other = *rig.managers[2];

  holder.request({{color, 1}});
  rig.clock.sleepFor(milliseconds(50));  // the grant's ack lands
  rig.net.setPartition(1, 2, true);      // home (host 1) | holder (host 2)
  EXPECT_THROW(other.request({{color, 1}}, cfg.leaseDuration * 4),
               TimeoutError);
  rig.net.setPartition(1, 2, false);
  EXPECT_EQ(rig.managers[0]->stats().leasesReclaimed, 0u);

  holder.release({{color, 1}});
  other.request({{color, 1}}, seconds(10));
  EXPECT_EQ(other.holdsTokens().at(color), 1);
}

TEST(TokenLeases, GrantInsideARecallWindowGoesHomeOnRelease) {
  // A request inside a recall window asks for no spare credit: its grant
  // carries no lease of its own, is never reclaimed while held, and goes
  // home on release instead of into the cache.
  const TokenConfig cfg = leaseCfg();
  const TokenColor color = colorHomedAt(0, 3);
  LeaseRig rig(3, {{color, 4}}, cfg, /*mainIsWorker=*/true);
  auto& home = *rig.managers[0];
  auto& a = *rig.managers[1];
  auto& b = *rig.managers[2];

  a.request({{color, 4}});  // the whole pool, on a leased loan
  std::thread bWaits([&] { b.request({{color, 1}}, seconds(10)); });
  // Time stands still until b's request is on its way.
  while (b.stats().cacheMisses == 0) std::this_thread::yield();
  rig.clock.sleepFor(milliseconds(150));  // the home recalls a's loan
  a.release({{color, 4}});  // inside a's recall window: all of it goes home
  rig.clock.sleepFor(milliseconds(50));
  bWaits.join();  // b holds 1 and caches the other 3

  // Still inside its recall window, a asks for nothing; the home recalls
  // b's credit to serve it.
  a.request({{color, 2}}, seconds(10));
  EXPECT_THROW(home.request({{color, 3}}, cfg.leaseDuration * 2),
               TimeoutError);
  EXPECT_EQ(home.stats().leasesReclaimed, 0u);
  rig.clock.sleepFor(milliseconds(50));  // the home's cancel lands

  a.release({{color, 2}});
  EXPECT_TRUE(a.holdsTokens().empty());
  EXPECT_TRUE(a.cachedCredits().empty());
  b.release({{color, 1}});
  b.returnCachedCredits();
  rig.clock.sleepFor(milliseconds(100));
  EXPECT_TRUE(home.lentCredits().empty());
}

TEST(TokenLeases, GrantWithoutAnAskOnALeasedLoanStillGoesHome) {
  // The recall-window grant here lands on a's live leased loan and shares
  // its lease, yet only the token a asked for returns to the cache.
  const TokenConfig cfg = leaseCfg();
  const TokenColor color = colorHomedAt(0, 3);
  LeaseRig rig(3, {{color, 4}}, cfg, /*mainIsWorker=*/true);
  auto& a = *rig.managers[1];
  auto& b = *rig.managers[2];

  a.request({{color, 1}});  // asked: a caches the other 3
  std::thread bWaits([&] { b.request({{color, 1}}, seconds(10)); });
  while (b.stats().cacheMisses == 0) std::this_thread::yield();
  rig.clock.sleepFor(milliseconds(150));  // a's credit is recalled for b
  bWaits.join();
  a.request({{color, 1}}, seconds(10));  // inside a's recall window
  EXPECT_EQ(a.holdsTokens().at(color), 2);

  rig.clock.sleepFor(cfg.leaseDuration * 2);  // the recall window passes
  a.release({{color, 2}});
  EXPECT_EQ(a.cachedCredits().at(color), 1);
  EXPECT_EQ(rig.managers[0]->stats().leasesReclaimed, 0u);
}

TEST(TokenLeases, RestartReLeasesJournaledHoldingsUnderIncarnationGuard) {
  const std::uint64_t seed = 923;
  testkit::VirtualClock clock;
  // Time stands still while this thread crashes and rebuilds b.  A clock
  // running meanwhile could pass the 400 ms lease, and the home would
  // reclaim the loan before the re-lease claims it.
  clock.announceWorker();
  const ClockSource::WorkerScope mainIsWorker(clock);
  SimNetwork net(seed, simOpts(clock));
  const std::string dir = leaseTempDir("relet");
  const TokenColor color = colorHomedAt(0, 2);  // homed at the survivor

  DappletConfig ac;
  ac.clock = &clock;
  ac.host = 1;
  Dapplet a(net, "a", ac);
  TokenManager ma(a, leaseCfg());

  DappletConfig bc;
  bc.clock = &clock;
  bc.host = 2;
  auto b = std::make_unique<Dapplet>(net, "b", bc);
  auto bds = std::make_unique<recovery::DurableState>(*b, dir);
  TokenConfig bCfg = leaseCfg();
  bCfg.journal = &bds->store();
  auto mb = std::make_unique<TokenManager>(*b, bCfg);

  ma.attach({ma.ref(), mb->ref()}, 0, {{color, 6}});
  mb->attach({ma.ref(), mb->ref()}, 1, {});

  mb->request({{color, 2}});  // loan of 5: 2 held + batch 3 cached
  EXPECT_EQ(ma.lentCredits().at(color), 5);

  b->crash();
  mb.reset();
  bds.reset();
  b.reset();

  DappletConfig b2c;
  b2c.clock = &clock;
  b2c.host = 3;
  auto b2 = std::make_unique<Dapplet>(net, "b", b2c);
  auto bds2 = std::make_unique<recovery::DurableState>(*b2, dir);
  EXPECT_TRUE(bds2->info().recovered);
  EXPECT_EQ(bds2->incarnation(), 2u);
  TokenConfig b2Cfg = leaseCfg();
  b2Cfg.journal = &bds2->store();
  auto mb2 = std::make_unique<TokenManager>(*b2, b2Cfg);
  mb2->attach({ma.ref(), mb2->ref()}, 1, {});
  // The journaled holdings survive the reboot immediately (provisionally,
  // pending the re-lease).
  EXPECT_EQ(mb2->holdsTokens().at(color), 2);
  ma.rewire(1, mb2->ref());

  clock.sleepFor(milliseconds(300));  // the re-lease round trip completes

  // The home retired the first incarnation's loan before covering the
  // claim: one loan on the books, not two — a recovered borrower cannot
  // double-spend.
  EXPECT_EQ(ma.lentCredits().at(color), 5);
  EXPECT_EQ(mb2->holdsTokens().at(color), 2);
  EXPECT_EQ(mb2->cachedCredits().at(color), 3);
  EXPECT_EQ(ma.totalTokens().at(color), 6);

  // Wind the loan down: everything must land back in the home pool.
  mb2->release({{color, 2}});
  mb2->returnCachedCredits();
  clock.sleepFor(milliseconds(300));
  EXPECT_TRUE(ma.lentCredits().empty());
  ma.request({{color, 6}}, seconds(10));
  EXPECT_THROW(ma.request({{color, 1}}, milliseconds(500)), TimeoutError);

  mb2.reset();
  bds2.reset();
  b2->stop();
  a.stop();
  std::filesystem::remove_all(dir);
}

TEST(TokenLeases, ConfigNormalizedClampsNonsense) {
  TokenConfig cfg;
  cfg.probeDelay = milliseconds(0);
  cfg.probeInterval = milliseconds(-5);
  cfg.creditBatch = -3;
  cfg.leaseDuration = milliseconds(0);
  std::vector<std::string> notes;
  const TokenConfig n = cfg.normalized(&notes);
  EXPECT_GT(n.probeDelay, Duration::zero());
  EXPECT_GT(n.probeInterval, Duration::zero());
  EXPECT_EQ(n.creditBatch, 0);  // nonsense batch falls back to no caching
  EXPECT_GT(n.leaseDuration, Duration::zero());
  EXPECT_FALSE(notes.empty());

  // A sane config normalizes silently.
  std::vector<std::string> clean;
  leaseCfg().normalized(&clean);
  EXPECT_TRUE(clean.empty());
}

TEST(TokenLeases, WedgedLeaseKnobsStillGrantAfterClamping) {
  // Zero lease duration + caching on used to arm a zero-period renewal
  // wheel; the clamp must leave a functioning (if short-leased) manager.
  TokenConfig cfg = leaseCfg();
  cfg.leaseDuration = Duration::zero();
  const TokenColor color = colorHomedAt(0, 2);
  LeaseRig rig(2, {{color, 3}}, cfg);
  rig.managers[1]->request({{color, 1}});
  EXPECT_EQ(rig.managers[1]->holdsTokens().at(color), 1);
  rig.managers[1]->release({{color, 1}});
  EXPECT_EQ(rig.managers[0]->totalTokens().at(color), 3);
}

// ---------------------------------------------------------------------------
// Sharded directory with lease-cached lookups (DESIGN.md §14.4)
// ---------------------------------------------------------------------------

TEST(TokenLeases, ShardedDirectoryRoutesLooksUpAndExpiresCacheByLease) {
  testkit::VirtualClock clock;
  SimNetwork net(73, simOpts(clock));
  DappletConfig sc;
  sc.clock = &clock;
  sc.host = 1;
  Dapplet serverD(net, "registry", sc);
  DappletConfig cc;
  cc.clock = &clock;
  cc.host = 2;
  Dapplet clientD(net, "reader", cc);

  DirectoryConfig dirCfg;
  dirCfg.shards = 4;
  DirectoryServer server(serverD, dirCfg);
  EXPECT_EQ(server.shardCount(), 4u);
  // Key-range routing: first byte scaled over the shard count.
  EXPECT_EQ(DirectoryServer::shardOf("0numeric", 4), 0u);
  EXPECT_EQ(DirectoryServer::shardOf("alpha", 4), 1u);
  EXPECT_EQ(DirectoryServer::shardOf("\xE0high", 4), 3u);

  DirectoryClient registrar(serverD, server.refs(), dirCfg);
  DirectoryClient reader(clientD, server.refs(), dirCfg);
  const auto hits = [&] {
    return clientD.metricsRegistry().counter("directory.cache_hits").value();
  };
  const auto misses = [&] {
    return clientD.metricsRegistry()
        .counter("directory.cache_misses")
        .value();
  };

  // TTLs are minutes, not milliseconds: the test driver is a clock *guest*,
  // so virtual time may gallop through idle 5ms transport ticks while the
  // driver is between calls.  Minutes-scale leases make that drift
  // harmless; expiry is still exercised via an explicit sleepFor below.
  const InboxRef refA{NodeAddress{42, 1}, 0, "a"};
  const InboxRef refB{NodeAddress{42, 2}, 0, "b"};
  const InboxRef refN{NodeAddress{42, 3}, 0, "n"};
  registrar.registerName("alpha", refA, seconds(120));
  registrar.registerName("0numeric", refN, seconds(3600));

  // Miss, then hit: the second lookup is served from the lease cache.
  EXPECT_EQ(reader.lookup("alpha"), refA);
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(reader.lookup("alpha"), refA);
  EXPECT_EQ(hits(), 1u);
  EXPECT_EQ(reader.lookup("0numeric"), refN);  // a different shard serves it
  EXPECT_EQ(misses(), 2u);

  // The full namespace spans shards; a nonempty prefix is one shard's.
  EXPECT_EQ(reader.list("").size(), 2u);
  EXPECT_EQ(reader.list("al").size(), 1u);

  // Replace the registration: the reader's cache is NOT broadcast-
  // invalidated — it keeps the old ref until the lease runs out...
  registrar.registerName("alpha", refB, seconds(3600));
  EXPECT_EQ(reader.lookup("alpha"), refA);
  EXPECT_EQ(hits(), 2u);

  // ...and expiry is the invalidation: past the lease, the next lookup
  // goes remote and sees the new ref.
  clock.sleepFor(seconds(121));
  EXPECT_EQ(reader.lookup("alpha"), refB);
  EXPECT_EQ(misses(), 3u);

  serverD.stop();
  clientD.stop();
}

}  // namespace
}  // namespace dapple
