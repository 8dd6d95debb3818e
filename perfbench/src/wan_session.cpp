// wan-session: the paper's world-wide session (§3.1, Figure 2) in virtual
// time.  An initiator and 8 members sit on distinct simulated hosts joined
// by 20 ms + U[0,10) ms links with 1% loss; hashed link randomness makes
// every loss draw independent of thread interleaving.  Sessions run back
// to back: establish a ring, every member streams 256 B messages to its
// successor every 5 virtual ms (open loop), then a token phase on two
// token networks (§4.1), then awaitCompletion and terminate.  Every figure
// except the wall-clock ones is virtual time, so machine load cannot move
// it.
#include <algorithm>
#include <array>
#include <memory>
#include <mutex>

#include "dapple/core/session.hpp"
#include "dapple/services/tokens/token_manager.hpp"
#include "dapple/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dapple::TimePoint;

/// One ring message: its number on the member's stream, the payload's pool
/// index, the virtual instant it was due to be sent, and the payload.
struct Ring : dapple::MessageBase<Ring> {
  static constexpr std::string_view kTypeName = "perfbench.Ring";
  std::uint64_t seq = 0;
  std::uint64_t index = 0;
  std::int64_t dueNs = 0;
  std::string bytes;
  void encodeFields(dapple::WireWriter& w) const override {
    w.writeU64(seq);
    w.writeU64(index);
    w.writeI64(dueNs);
    w.writeString(bytes);
  }
  void decodeFields(dapple::WireReader& r) override {
    seq = r.readU64();
    index = r.readU64();
    dueNs = r.readI64();
    bytes = r.readString();
  }
};
DAPPLE_REGISTER_MESSAGE(Ring);

constexpr int kMembers = 8;
constexpr int kTokenGroup = 4;  ///< members 0-3 round trip, 4-7 leased
constexpr int kRingMessages = 40;
constexpr auto kRingPeriod = std::chrono::milliseconds(5);
constexpr std::size_t kRingBytes = 256;
constexpr std::size_t kPoolSize = 16;
constexpr int kGrantsPerMember = 3;
constexpr auto kHold = std::chrono::milliseconds(1);
constexpr std::int64_t kRoundTripPool = 2;  ///< per colour; one requester each
constexpr std::int64_t kLeasePool = 18;     ///< < 3 borrowers x (1 + batch)
constexpr std::int64_t kCreditBatch = 8;
double toMs(dapple::Duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// The op id of member `i`'s part of a session, apart from the session's
/// own op (whose id is the session number), so that each member's token
/// requests stitch to that member's member.tokens span.
std::uint64_t memberOp(std::int64_t session, int i) {
  return (std::uint64_t{1} << 32) +
         static_cast<std::uint64_t>(session) * kMembers +
         static_cast<std::uint64_t>(i);
}

/// A colour of `members` token managers homed at `home`.
std::string colorHomedAt(const std::string& prefix, std::size_t home,
                         std::size_t members) {
  for (int salt = 0;; ++salt) {
    const std::string color = prefix + std::to_string(salt);
    if (dapple::TokenManager::homeOfColor(color, members) == home) return color;
  }
}

struct SpanNames {
  std::uint32_t session = spans().intern("session");
  std::uint32_t establish = spans().intern("session.establish");
  std::uint32_t await = spans().intern("session.await_completion");
  std::uint32_t terminate = spans().intern("session.terminate");
  std::uint32_t stream = spans().intern("member.stream");
  std::uint32_t tokens = spans().intern("member.tokens");
  std::uint32_t request = spans().intern("tokens.request");
};

/// What one member's role observed across the run.  Written by the role
/// thread of the current session only; read after the sessions end.
struct MemberLog {
  std::mutex mutex;
  std::vector<double> hopUs;          ///< due -> successor receives
  std::vector<double> grantMs;        ///< TokenManager::request
  std::vector<double> releaseMs;      ///< TokenManager::release
  std::vector<double> sendUs;         ///< wall time in Outbox::send
  double maxLateUs = 0, sumLateUs = 0;  ///< pacer lateness vs due time
  std::uint64_t sent = 0;
  std::uint64_t missing = 0, outOfOrder = 0, wrongBytes = 0;
  std::uint64_t tokenFailures = 0;
  std::string firstError;
};

struct Rig {
  Rig(std::uint64_t seed, const std::vector<std::string>& pool)
      : seed(seed), pool(pool), net(seed, wanOptions(clock)) {
    net.setDefaultLink(kWanLink);
    dapple::DappletConfig cfg;
    cfg.clock = &clock;
    cfg.host = 1;
    initiatorD = std::make_unique<dapple::Dapplet>(net, "initiator", cfg);
    initiator = std::make_unique<dapple::Initiator>(*initiatorD);
    for (int i = 0; i < kMembers; ++i) {
      cfg.host = static_cast<std::uint32_t>(i + 2);
      const std::string name = "m" + std::to_string(i);
      members.push_back(std::make_unique<dapple::Dapplet>(net, name, cfg));
      agents.push_back(std::make_unique<dapple::SessionAgent>(*members.back()));
      agents.back()->registerApp(
          "ring", [this, i](dapple::SessionContext& ctx) { role(i, ctx); });
      directory.put(name, agents.back()->controlRef());
    }
    // Token networks: members 0-3 grant by round trip (creditBatch 0) from
    // pools that cover every request; members 4-7 cache leased credit with
    // loans that can exceed the pool, so homes recall.  The lease network's
    // deadlock prober stays quiet: probes fan out to live borrowers, so a
    // borrower waiting out a recall could meet its own probe.
    dapple::TokenConfig roundTrip;
    dapple::TokenConfig leased;
    leased.creditBatch = kCreditBatch;
    leased.probeDelay = std::chrono::seconds(60);
    leased.probeInterval = std::chrono::seconds(60);
    for (int i = 0; i < kMembers; ++i) {
      managers.push_back(std::make_unique<dapple::TokenManager>(
          *members[i], i < kTokenGroup ? roundTrip : leased));
    }
    for (int j = 0; j < kTokenGroup; ++j) {
      roundTripColors.push_back(colorHomedAt("rt", j, kTokenGroup));
    }
    for (int group = 0; group < 2; ++group) {
      std::vector<dapple::InboxRef> refs;
      for (int j = 0; j < kTokenGroup; ++j) {
        refs.push_back(managers[group * kTokenGroup + j]->ref());
      }
      for (int j = 0; j < kTokenGroup; ++j) {
        dapple::TokenBag seedBag;
        if (group == 0) {
          seedBag[roundTripColors[j]] = kRoundTripPool;
        } else if (dapple::TokenManager::homeOfColor(
                       kLeaseColor, kTokenGroup) ==
                   static_cast<std::size_t>(j)) {
          seedBag[kLeaseColor] = kLeasePool;
        }
        managers[group * kTokenGroup + j]->attach(refs, j, seedBag);
      }
    }
    // Warm-up: one whole session, unmeasured; its observations are dropped.
    resetLogs();
    if (!runSession(-1, {}, false).ok) {
      throw dapple::Error("wan-session warm-up session failed");
    }
    resetLogs();
  }

  ~Rig() {
    agents.clear();
    managers.clear();
    initiator.reset();
    initiatorD->stop();
    for (auto& d : members) d->stop();
  }

  void resetLogs() {
    for (auto& log : logs) log = std::make_unique<MemberLog>();
  }

  /// The colour member `i` requests in the token phase.
  std::string colorFor(int i) const {
    return i < kTokenGroup ? roundTripColors[(i + 1) % kTokenGroup]
                           : kLeaseColor;
  }

  /// Member i's part of a session: stream kRingMessages paced messages to
  /// the successor while receiving the predecessor's, then the token phase.
  void role(int i, dapple::SessionContext& ctx) {
    MemberLog& log = *logs[i];
    std::scoped_lock lock(log.mutex);
    dapple::ClockSource& clk = ctx.dapplet().clockSource();
    const std::int64_t session = ctx.sessionParams().at("session").asInt();
    const bool measured = session >= 0;
    const bool traced = ctx.sessionParams().at("traced").asBool();
    const auto phaseOffset =
        std::chrono::microseconds(ctx.params().at("phase_us").asInt());
    dapple::Outbox& next = ctx.outbox("next");
    dapple::Inbox& prev = ctx.inbox("prev");
    dapple::Rng rng(static_cast<std::uint64_t>(ctx.params().at("rng").asInt()));
    std::uint64_t expected = 0;
    bool ok = true;
    const auto receive = [&](dapple::Duration timeout) {
      const auto d = prev.receiveFor(timeout);
      if (!d) return;
      const Ring& m = d->as<Ring>();
      if (m.seq != expected) {
        ++log.outOfOrder;
        ok = false;
      }
      if (m.index >= pool.size() || m.bytes != pool[m.index]) {
        ++log.wrongBytes;
        ok = false;
      }
      expected = m.seq + 1;
      if (measured) {
        log.hopUs.push_back(
            static_cast<double>(virtualNs(clk.now()) - m.dueNs) * 1e-3);
      }
    };

    const TimePoint start = clk.now();
    Ring msg;
    for (int k = 0; k < kRingMessages; ++k) {
      const TimePoint due = start + phaseOffset + k * kRingPeriod;
      while (clk.now() < due) receive(due - clk.now());
      const double lateUs = toMs(clk.now() - due) * 1e3;
      log.maxLateUs = std::max(log.maxLateUs, lateUs);
      log.sumLateUs += lateUs;
      msg.seq = static_cast<std::uint64_t>(k);
      msg.index = rng.below(pool.size());
      msg.dueNs = virtualNs(due);
      msg.bytes = pool[msg.index];
      const std::int64_t w0 = nowNs();
      next.send(msg);
      if (measured) {
        log.sendUs.push_back(static_cast<double>(nowNs() - w0) * 1e-3);
      }
      ++log.sent;
    }
    const TimePoint deadline = clk.now() + std::chrono::seconds(10);
    while (expected < kRingMessages && clk.now() < deadline) {
      receive(deadline - clk.now());
    }
    if (expected < kRingMessages) {
      log.missing += kRingMessages - expected;
      ok = false;
    }
    const TimePoint streamEnd = clk.now();

    dapple::TokenManager& tm = *managers[i];
    const dapple::TokenList want{{colorFor(i), 1}};
    for (int g = 0; g < kGrantsPerMember; ++g) {
      const TimePoint t0 = clk.now();
      try {
        tm.request(want, std::chrono::seconds(30));
      } catch (const dapple::Error& e) {
        ++log.tokenFailures;
        if (log.firstError.empty()) log.firstError = e.what();
        ok = false;
        continue;
      }
      const TimePoint t1 = clk.now();
      clk.sleepFor(kHold);
      const TimePoint t2 = clk.now();
      tm.release(want);
      if (measured) {
        log.grantMs.push_back(toMs(t1 - t0));
        log.releaseMs.push_back(toMs(clk.now() - t2));
        if (traced) {
          spans().record(memberOp(session, i), names.request, names.tokens,
                         virtualNs(t0), virtualNs(t1));
        }
      }
    }
    if (traced && measured) {
      const std::uint64_t op = memberOp(session, i);
      spans().record(op, names.stream, SpanLog::kRoot, virtualNs(start),
                     virtualNs(streamEnd));
      spans().record(op, names.tokens, SpanLog::kRoot, virtualNs(streamEnd),
                     virtualNs(clk.now()));
    }
    dapple::ValueMap result;
    result["ok"] = dapple::Value(ok);
    ctx.setResult(dapple::Value(std::move(result)));
  }

  struct SessionTimes {
    bool ok = false;
    bool established = false;
    double establishMs = 0;
    double completionMs = 0;
    double totalMs = 0;  ///< establish through terminate
    std::string error;
  };

  /// One whole session; `session` < 0 is the unmeasured warm-up.
  SessionTimes runSession(std::int64_t session,
                          const std::vector<std::int64_t>& phasesUs,
                          bool traced) {
    dapple::Initiator::Plan plan;
    plan.app = "ring";
    dapple::ValueMap sessionParams;
    sessionParams["session"] = dapple::Value(static_cast<long long>(session));
    sessionParams["traced"] = dapple::Value(traced);
    plan.params = dapple::Value(std::move(sessionParams));
    for (int i = 0; i < kMembers; ++i) {
      dapple::ValueMap p;
      p["phase_us"] = dapple::Value(
          static_cast<long long>(phasesUs.empty() ? 0 : phasesUs[i]));
      // The payload order of member i in this session, from the run seed.
      p["rng"] = dapple::Value(static_cast<long long>(
          (seed * 1000003u + static_cast<std::uint64_t>(session + 2) * 16u +
           static_cast<std::uint64_t>(i)) &
          0x7fffffffffffull));
      plan.members.push_back(dapple::Initiator::member(
          directory, "m" + std::to_string(i), {"prev"},
          dapple::Value(std::move(p))));
      plan.edges.push_back({"m" + std::to_string(i), "next",
                            "m" + std::to_string((i + 1) % kMembers), "prev"});
    }
    SessionTimes times;
    const TimePoint t0 = clock.now();
    const dapple::Initiator::Result r = initiator->establish(plan);
    const TimePoint t1 = clock.now();
    times.establishMs = toMs(t1 - t0);
    times.established = r.ok;
    if (!r.ok) {
      times.error = "establish failed";
      return times;
    }
    bool allOk = true;
    try {
      const auto results =
          initiator->awaitCompletion(r.sessionId, std::chrono::seconds(60));
      for (const auto& [member, value] : results) {
        if (!value.isMap() || !value.contains("ok") ||
            !value.at("ok").asBool()) {
          allOk = false;
          times.error = "member " + member + " reported failure";
        }
      }
      allOk = allOk && results.size() == kMembers;
    } catch (const dapple::Error& e) {
      allOk = false;
      times.error = e.what();
    }
    const TimePoint t2 = clock.now();
    times.completionMs = toMs(t2 - t1);
    initiator->terminate(r.sessionId);
    const TimePoint t3 = clock.now();
    times.totalMs = toMs(t3 - t0);
    if (traced && session >= 0) {
      const auto seq = static_cast<std::uint64_t>(session);
      spans().record(seq, names.session, SpanLog::kRoot, virtualNs(t0),
                     virtualNs(t3));
      spans().record(seq, names.establish, names.session, virtualNs(t0),
                     virtualNs(t1));
      spans().record(seq, names.await, names.session, virtualNs(t1),
                     virtualNs(t2));
      spans().record(seq, names.terminate, names.session, virtualNs(t2),
                     virtualNs(t3));
    }
    times.ok = allOk;
    return times;
  }

  std::vector<dapple::Dapplet*> dapplets() const {
    std::vector<dapple::Dapplet*> all{initiatorD.get()};
    for (const auto& d : members) all.push_back(d.get());
    return all;
  }

  /// Token statistics summed over one token network (0 round trip,
  /// 1 leased).
  dapple::TokenManager::Stats tokenStats(int group) const {
    dapple::TokenManager::Stats sum;
    for (int j = 0; j < kTokenGroup; ++j) {
      const auto s = managers[group * kTokenGroup + j]->stats();
      sum.probesSent += s.probesSent;
      sum.grantsIssued += s.grantsIssued;
      sum.cacheHits += s.cacheHits;
      sum.cacheMisses += s.cacheMisses;
      sum.leaseRenewals += s.leaseRenewals;
    }
    return sum;
  }

  /// Conservation on both networks once every cached credit went home:
  /// totalTokens() equals the minted count and every home ledger balances.
  /// Returns the violations (empty when conserved).
  std::string conservationViolations() {
    for (auto& m : managers) m->returnCachedCredits();
    clock.sleepFor(std::chrono::seconds(2));
    std::string violations;
    for (int group = 0; group < 2; ++group) {
      dapple::TokenBag minted;
      if (group == 0) {
        for (const auto& c : roundTripColors) minted[c] = kRoundTripPool;
      } else {
        minted[kLeaseColor] = kLeasePool;
      }
      try {
        const dapple::TokenBag total =
            managers[group * kTokenGroup]->totalTokens(
                std::chrono::seconds(10));
        for (const auto& [color, count] : minted) {
          const auto it = total.find(color);
          const std::int64_t seen = it == total.end() ? 0 : it->second;
          if (seen != count) {
            violations += color + " totals " + std::to_string(seen) + " of " +
                          std::to_string(count) + "; ";
          }
        }
      } catch (const dapple::Error& e) {
        violations += std::string("totalTokens threw: ") + e.what() + "; ";
      }
      for (int j = 0; j < kTokenGroup; ++j) {
        for (const std::string& v :
             managers[group * kTokenGroup + j]->auditHomeLedger()) {
          violations += v + "; ";
        }
      }
    }
    return violations;
  }

  static constexpr const char* kLeaseColor = "lease";

  const std::uint64_t seed;
  const std::vector<std::string>& pool;
  // Declared before everything that runs on it, so it is destroyed last.
  dapple::testkit::VirtualClock clock;
  dapple::SimNetwork net;
  std::unique_ptr<dapple::Dapplet> initiatorD;
  std::unique_ptr<dapple::Initiator> initiator;
  std::vector<std::unique_ptr<dapple::Dapplet>> members;
  std::vector<std::unique_ptr<dapple::SessionAgent>> agents;
  std::vector<std::unique_ptr<dapple::TokenManager>> managers;
  dapple::Directory directory;
  std::vector<std::string> roundTripColors;
  std::array<std::unique_ptr<MemberLog>, kMembers> logs;
  SpanNames names;
};

}  // namespace

Report runWanSession(const Options& options) {
  Report report;
  reportContext(report, options, "text", "simulated-wan");
  const std::vector<std::string> pool =
      payloadPool(options.seed, kPoolSize, kRingBytes);

  std::unique_ptr<Rig> rig;
  const double setupSeconds = medianSetupSeconds(
      [&] { rig = std::make_unique<Rig>(options.seed, pool); },
      [&] { rig.reset(); });

  const Counters before =
      snapshotCounters(rig->dapplets(), rig->net.metrics(), nullptr);
  const auto roundTripBefore = rig->tokenStats(0);
  const auto leasedBefore = rig->tokenStats(1);

  struct SessionRecord {
    Rig::SessionTimes times;
    bool traced;
  };
  std::vector<SessionRecord> sessions;
  dapple::Rng rng(options.seed * 2654435761u + 5);
  TimePoint virtualStart, virtualEnd;
  std::uint64_t threads = 0;
  const Phase phase(options.seconds, options.trace);
  {
    // The driving thread is a clock worker while sessions run, so virtual
    // time stands still while it computes between clocked waits.  Announce
    // first: announce/begin pair up as a counter, and an unannounced begin
    // would consume a spawning thread's pending announce.
    rig->clock.announceWorker();
    const dapple::ClockSource::WorkerScope mainIsWorker(rig->clock);
    virtualStart = rig->clock.now();
    while (!phase.over()) {
      const bool traced = phase.tracedAt(phase.elapsed());
      // Each member's pacing phase within the 5 ms period.
      std::vector<std::int64_t> phasesUs;
      for (int i = 0; i < kMembers; ++i) {
        phasesUs.push_back(static_cast<std::int64_t>(rng.below(5000)));
      }
      const auto index = static_cast<std::int64_t>(sessions.size());
      sessions.push_back({rig->runSession(index, phasesUs, traced), traced});
      if (index == 0) threads = threadCount();
    }
    virtualEnd = rig->clock.now();
  }
  const double wallSeconds = phase.elapsed();
  const Counters after =
      snapshotCounters(rig->dapplets(), rig->net.metrics(), nullptr);
  const auto roundTripAfter = rig->tokenStats(0);
  const auto leasedAfter = rig->tokenStats(1);

  // ---- oracles -----------------------------------------------------------
  const std::string violations = rig->conservationViolations();
  report.oracle("token-conservation", violations.empty(),
                violations.empty()
                    ? "totalTokens equals the minted count on both networks "
                      "and every home ledger balances"
                    : violations);
  std::uint64_t establishFailed = 0, completionFailed = 0;
  std::string firstSessionError;
  std::vector<double> establishMs, completionMs, sessionMs;
  std::size_t tracedSessions = 0;
  for (const SessionRecord& s : sessions) {
    if (!s.times.established) ++establishFailed;
    if (s.times.established && !s.times.ok) ++completionFailed;
    if (!s.times.ok && firstSessionError.empty()) {
      firstSessionError = s.times.error;
    }
    if (s.times.established) establishMs.push_back(s.times.establishMs);
    if (s.times.ok) {
      completionMs.push_back(s.times.completionMs);
      sessionMs.push_back(s.times.totalMs);
    }
    if (s.traced) ++tracedSessions;
  }
  report.oracle("sessions-established", establishFailed == 0,
                std::to_string(sessions.size() - establishFailed) + " of " +
                    std::to_string(sessions.size()) + " established");
  report.oracle("sessions-completed", completionFailed == 0,
                std::to_string(completionFailed) + " failed to complete" +
                    (firstSessionError.empty()
                         ? ""
                         : " (first: " + firstSessionError + ")"));
  std::vector<double> hopUs, grantMs, leasedGrantMs, releaseMs, sendUs;
  std::uint64_t missing = 0, outOfOrder = 0, wrongBytes = 0, tokenFailures = 0,
                sent = 0;
  double maxLateUs = 0, sumLateUs = 0;
  std::string tokenError;
  for (int i = 0; i < kMembers; ++i) {
    MemberLog& log = *rig->logs[i];
    std::scoped_lock lock(log.mutex);
    hopUs.insert(hopUs.end(), log.hopUs.begin(), log.hopUs.end());
    auto& grants = i < kTokenGroup ? grantMs : leasedGrantMs;
    grants.insert(grants.end(), log.grantMs.begin(), log.grantMs.end());
    if (i < kTokenGroup) {
      releaseMs.insert(releaseMs.end(), log.releaseMs.begin(),
                       log.releaseMs.end());
    }
    sendUs.insert(sendUs.end(), log.sendUs.begin(), log.sendUs.end());
    missing += log.missing;
    outOfOrder += log.outOfOrder;
    wrongBytes += log.wrongBytes;
    tokenFailures += log.tokenFailures;
    sent += log.sent;
    maxLateUs = std::max(maxLateUs, log.maxLateUs);
    sumLateUs += log.sumLateUs;
    if (tokenError.empty()) tokenError = log.firstError;
  }
  report.oracle("ring-fifo-no-loss",
                missing == 0 && outOfOrder == 0 && wrongBytes == 0,
                std::to_string(hopUs.size()) + " ring messages in order; " +
                    std::to_string(missing) + " missing, " +
                    std::to_string(outOfOrder) + " out of order, " +
                    std::to_string(wrongBytes) + " with other bytes");
  report.oracle("token-requests", tokenFailures == 0,
                std::to_string(tokenFailures) + " requests threw" +
                    (tokenError.empty() ? "" : " (first: " + tokenError + ")"));
  const std::uint64_t perSession =
      kMembers * (kRingMessages + kGrantsPerMember);
  report.operations(sessions.size() * (1 + perSession),
                    establishFailed + completionFailed + missing + outOfOrder +
                        wrongBytes + tokenFailures);

  // ---- end-to-end --------------------------------------------------------
  const double virtualSeconds =
      std::chrono::duration<double>(virtualEnd - virtualStart).count();
  std::vector<double> hop = hopUs;
  const double p50 = percentile(hop, 0.5);
  const double p99 = percentile(hop, 0.99);
  // The stream every completed session carried over their whole virtual
  // length, so a session slowed in any round lowers it.
  double sessionMsTotal = 0;
  for (const double ms : sessionMs) sessionMsTotal += ms;
  const double ringPerVirtualSecond =
      ratio(static_cast<double>(sessionMs.size()) * kMembers * kRingMessages *
                1e3,
            sessionMsTotal);
  reportEndToEnd(report, setupSeconds, p50, p99, ringPerVirtualSecond);
  report.info("sessions", std::to_string(sessions.size()));
  report.info("virtual_seconds", virtualSeconds);
  report.info("wall_seconds_of_virtual_run", wallSeconds);
  report.info("ring_generator_late_us_max", maxLateUs);
  report.info("ring_generator_late_us_mean",
              ratio(sumLateUs, static_cast<double>(sent)));
  report.extra("wan_delivery_p50_ms", p50 * 1e-3, "ms",
               "op_p50_us on this workload");
  report.extra("wan_delivery_p99_ms", p99 * 1e-3, "ms",
               "op_p99_us on this workload");
  const std::string establishBase =
      std::to_string(establishMs.size()) + " Initiator::establish calls";
  report.extra("session_setup_p50_ms", percentile(establishMs, 0.5), "ms",
               establishBase);
  report.extra("session_setup_p90_ms", percentile(establishMs, 0.9), "ms",
               establishBase);
  const std::string grantBase =
      std::to_string(grantMs.size()) + " round-trip requests";
  report.extra("grant_p50_ms", percentile(grantMs, 0.5), "ms", grantBase);
  report.extra("grant_p99_ms", percentile(grantMs, 0.99), "ms", grantBase);
  report.extra("ring_messages_per_virtual_s", ringPerVirtualSecond, "1/s",
               "ops_per_s on this workload");

  if (options.trace) {
    LayerInputs in;
    const auto untracedSessions =
        static_cast<double>(sessions.size() - tracedSessions);
    in.traceOverheadPct = reportTraceOverhead(
        report, "sessions_per_wall_s",
        untracedSessions / phase.secondsIn(false),
        static_cast<double>(tracedSessions) / phase.secondsIn(true));
    in.before = before;
    in.after = after;
    in.wallSeconds = wallSeconds;
    in.ops = hopUs.size();
    in.opName = "ring messages";
    in.threads = threads;
    std::vector<Ring> rings;
    for (std::size_t i = 0; i < 64; ++i) {
      Ring r;
      r.seq = i;
      r.index = i % pool.size();
      r.dueNs = static_cast<std::int64_t>(i) * 5000000;
      r.bytes = pool[r.index];
      rings.push_back(std::move(r));
    }
    std::vector<const dapple::Message*> sample;
    for (const Ring& r : rings) sample.push_back(&r);
    const SerialCost cost = serialCost(sample, dapple::WireCodec::kText);
    in.encodeNs = cost.encodeNs;
    in.decodeNs = cost.decodeNs;
    in.hopUs = hopUs;
    reportLayers(report, in);

    const std::string sendBase =
        std::to_string(sendUs.size()) + " ring Outbox::send calls, wall";
    report.extra("core.send_us_p50", percentile(sendUs, 0.5), "us", sendBase);
    report.extra("core.send_us_p99", percentile(sendUs, 0.99), "us", sendBase);
    for (const char* round : {"invite", "wire", "start"}) {
      const std::string key = std::string("session.") + round + "_round_us";
      const auto get = [&](const Counters& c) {
        const auto it = c.metrics.histograms.find(key);
        return it == c.metrics.histograms.end()
                   ? dapple::obs::HistogramSnapshot{}
                   : it->second;
      };
      const auto h = histogramDelta(get(after), get(before));
      report.extra(std::string("session.") + round + "_round_ms_p50",
                   histogramQuantile(h, 0.5) * 1e-3, "ms",
                   std::to_string(h.count) + " rounds, log2 histogram; mean " +
                       formatNumber(h.mean() * 1e-3) + " ms");
    }
    report.extra("session.completion_ms_p50", percentile(completionMs, 0.5),
                 "ms",
                 std::to_string(completionMs.size()) +
                     " awaitCompletion calls");
    const auto requests = static_cast<double>(grantMs.size());
    const auto grantsIssued = static_cast<double>(roundTripAfter.grantsIssued -
                                                  roundTripBefore.grantsIssued);
    report.extra("tokens.grants_per_request", ratio(grantsIssued, requests),
                 "ratio",
                 base("grantsIssued", grantsIssued, "round-trip requests",
                      requests));
    const auto probes = static_cast<double>(
        roundTripAfter.probesSent - roundTripBefore.probesSent +
        leasedAfter.probesSent - leasedBefore.probesSent);
    const double allRequests =
        requests + static_cast<double>(leasedGrantMs.size());
    report.extra("tokens.probes_per_request", ratio(probes, allRequests),
                 "ratio", base("probesSent", probes, "requests", allRequests));
    report.extra("tokens.release_ms_p99", percentile(releaseMs, 0.99), "ms",
                 std::to_string(releaseMs.size()) + " round-trip releases");
    const std::string leasedBase =
        std::to_string(leasedGrantMs.size()) + " leased requests";
    report.extra("tokens.leased_grant_ms_p50", percentile(leasedGrantMs, 0.5),
                 "ms", leasedBase);
    report.extra("tokens.leased_grant_ms_p99", percentile(leasedGrantMs, 0.99),
                 "ms", leasedBase);
    const auto hits =
        static_cast<double>(leasedAfter.cacheHits - leasedBefore.cacheHits);
    const auto misses =
        static_cast<double>(leasedAfter.cacheMisses - leasedBefore.cacheMisses);
    report.extra("tokens.cache_hit_ratio", ratio(hits, hits + misses), "ratio",
                 base("cacheHits", hits, "cacheHits+cacheMisses",
                      hits + misses));
    const auto renewals = static_cast<double>(leasedAfter.leaseRenewals -
                                              leasedBefore.leaseRenewals);
    report.extra("tokens.lease_renewals_per_s",
                 ratio(renewals, virtualSeconds), "1/s",
                 base("leaseRenewals", renewals, "virtual s", virtualSeconds));
    finishSpans(report, options, spans().drain(), "virtual");
  }
  return report;
}

}  // namespace perfbench
