// wan-rpc: closed-loop synchronous RPC (paper §3.2: a synchronous RPC is a
// pair of asynchronous messages) across the lossy simulated WAN, in virtual
// time.  Three caller threads, each with its own client dapplet and
// RpcClient on its own host, call `echo` with 64 B arguments on one
// RpcServer.  Default DappletConfig apart from the clock: the threaded
// runtime and the text codec.  The callers are clock workers, so virtual
// time stands still while they compute and every latency is protocol time.
#include <array>
#include <atomic>
#include <memory>
#include <thread>

#include "dapple/core/rpc.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kCallers = 3;
constexpr std::size_t kArgBytes = 64;
constexpr std::size_t kPoolSize = 64;
constexpr int kWarmupCalls = 20;
constexpr auto kCallTimeout = std::chrono::seconds(30);

/// What a traced call leaves for the server method, which runs on the
/// server's dispatch thread: the caller's send stamp (0 when the call is
/// untraced) and, back, the method's end stamp, both in virtual ns.
struct Stamp {
  std::atomic<std::int64_t> sentNs{0};
  std::atomic<std::int64_t> methodEndNs{0};
};

struct SpanNames {
  std::uint32_t call = spans().intern("rpc.call");
  std::uint32_t requestLeg = spans().intern("rpc.request_leg");
  std::uint32_t method = spans().intern("rpc.method");
  std::uint32_t replyLeg = spans().intern("rpc.reply_leg");
};

std::uint64_t opId(std::int64_t caller, std::int64_t seq) {
  return (static_cast<std::uint64_t>(caller + 1) << 40) |
         static_cast<std::uint64_t>(seq);
}

dapple::Value echoArgs(std::int64_t caller, std::int64_t seq,
                       const std::string& blob) {
  dapple::ValueMap m;
  m["c"] = dapple::Value(static_cast<long long>(caller));
  m["n"] = dapple::Value(static_cast<long long>(seq));
  m["b"] = dapple::Value(blob);
  return dapple::Value(std::move(m));
}

struct Rig {
  Rig(std::uint64_t seed, const std::vector<std::string>& pool)
      : net(seed, wanOptions(clock)) {
    net.setDefaultLink(kWanLink);
    dapple::DappletConfig cfg;
    cfg.clock = &clock;
    cfg.host = 1;
    serverD = std::make_unique<dapple::Dapplet>(net, "server", cfg);
    server = std::make_unique<dapple::RpcServer>(*serverD);
    server->bind("echo", [this](const dapple::Value& args) {
      return serve(args);
    });
    for (int c = 0; c < kCallers; ++c) {
      cfg.host = static_cast<std::uint32_t>(c + 2);
      clientDs.push_back(std::make_unique<dapple::Dapplet>(
          net, "client" + std::to_string(c), cfg));
      clients.push_back(
          std::make_unique<dapple::RpcClient>(*clientDs.back(), server->ref()));
    }
    // Warm-up: every caller's streams and RTT estimates are live before the
    // measured phase.
    for (int c = 0; c < kCallers; ++c) {
      for (int i = 0; i < kWarmupCalls; ++i) {
        const dapple::Value args = echoArgs(c, -1 - i, pool[i % pool.size()]);
        if (!(clients[c]->call("echo", args, kCallTimeout) == args)) {
          throw dapple::Error("warm-up echo returned other bytes");
        }
      }
    }
  }

  ~Rig() {
    clients.clear();
    server.reset();
    for (auto& d : clientDs) d->stop();
    serverD->stop();
  }

  dapple::Value serve(const dapple::Value& args) {
    const std::int64_t startNs = virtualNs(clock.now());
    const std::int64_t caller = args.at("c").asInt();
    dapple::Value out = args;
    Stamp& stamp = stamps.at(static_cast<std::size_t>(caller));
    const std::int64_t sentNs = stamp.sentNs.load(std::memory_order_acquire);
    if (sentNs != 0) {
      const std::int64_t endNs = virtualNs(clock.now());
      const std::uint64_t op = opId(caller, args.at("n").asInt());
      spans().record(op, names.requestLeg, names.call, sentNs, startNs);
      spans().record(op, names.method, names.call, startNs, endNs);
      stamp.methodEndNs.store(endNs, std::memory_order_release);
    }
    return out;
  }

  std::vector<dapple::Dapplet*> dapplets() const {
    std::vector<dapple::Dapplet*> all{serverD.get()};
    for (const auto& d : clientDs) all.push_back(d.get());
    return all;
  }

  // Declared before everything that runs on it, so it is destroyed last.
  dapple::testkit::VirtualClock clock;
  dapple::SimNetwork net;
  std::unique_ptr<dapple::Dapplet> serverD;
  std::unique_ptr<dapple::RpcServer> server;
  std::vector<std::unique_ptr<dapple::Dapplet>> clientDs;
  std::vector<std::unique_ptr<dapple::RpcClient>> clients;
  std::array<Stamp, kCallers> stamps;
  SpanNames names;
};

struct CallerLog {
  std::vector<Completion> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrongEcho = 0;
  std::string firstError;
  std::int64_t virtualStartNs = 0, virtualEndNs = 0;
};

}  // namespace

Report runWanRpc(const Options& options) {
  Report report;
  reportContext(report, options, "text", "simulated-wan");
  const std::vector<std::string> pool =
      payloadPool(options.seed, kPoolSize, kArgBytes);

  std::unique_ptr<Rig> rig;
  const double setupSeconds = medianSetupSeconds(
      [&] { rig = std::make_unique<Rig>(options.seed, pool); },
      [&] { rig.reset(); });

  const Counters before =
      snapshotCounters(rig->dapplets(), rig->net.metrics(), nullptr);
  const auto servedBefore = rig->server->stats().callsServed;
  std::array<CallerLog, kCallers> logs;
  const Phase phase(options.seconds, options.trace);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    // Announce before spawning: see the ClockSource worker contract.
    rig->clock.announceWorker();
    callers.emplace_back([&, c] {
      const dapple::ClockSource::WorkerScope worker(rig->clock);
      CallerLog& log = logs[c];
      dapple::Rng rng(options.seed * 1000003u + static_cast<unsigned>(c));
      Stamp& stamp = rig->stamps[c];
      log.virtualStartNs = virtualNs(rig->clock.now());
      for (std::int64_t seq = 0; !phase.over(); ++seq) {
        const dapple::Value args = echoArgs(c, seq, pool[rng.below(kPoolSize)]);
        const bool traced = spans().enabled();
        const std::int64_t t0 = virtualNs(rig->clock.now());
        stamp.sentNs.store(traced ? t0 : 0, std::memory_order_release);
        ++log.attempted;
        bool ok = false;
        try {
          ok = rig->clients[c]->call("echo", args, kCallTimeout) == args;
          if (!ok) ++log.wrongEcho;
        } catch (const std::exception& e) {
          if (log.firstError.empty()) log.firstError = e.what();
        }
        const std::int64_t t1 = virtualNs(rig->clock.now());
        if (!ok) {
          ++log.failed;
          continue;
        }
        if (traced) {
          const std::uint64_t op = opId(c, seq);
          spans().record(op, rig->names.replyLeg, rig->names.call,
                         stamp.methodEndNs.load(std::memory_order_acquire),
                         t1);
          spans().record(op, rig->names.call, SpanLog::kRoot, t0, t1);
        }
        log.samples.push_back({static_cast<double>(t1 - t0) * 1e-3, traced});
      }
      log.virtualEndNs = virtualNs(rig->clock.now());
    });
  }
  const std::uint64_t threads = threadCount();
  phase.run();
  for (auto& t : callers) t.join();
  const double wallSeconds = phase.elapsed();
  const Counters after =
      snapshotCounters(rig->dapplets(), rig->net.metrics(), nullptr);

  // ---- oracles -----------------------------------------------------------
  std::uint64_t attempted = 0, failed = 0, wrongEcho = 0, completed = 0;
  double callsPerVirtualSecond = 0;
  std::string firstError;
  std::vector<Completion> completions;
  for (const CallerLog& log : logs) {
    attempted += log.attempted;
    failed += log.failed;
    wrongEcho += log.wrongEcho;
    completed += log.samples.size();
    if (firstError.empty()) firstError = log.firstError;
    // Each caller is busy from its first call to its last, back to back.
    callsPerVirtualSecond +=
        ratio(static_cast<double>(log.samples.size()) * 1e9,
              static_cast<double>(log.virtualEndNs - log.virtualStartNs));
    completions.insert(completions.end(), log.samples.begin(),
                       log.samples.end());
  }
  report.operations(attempted, failed);
  report.oracle("echo-byte-equal", wrongEcho == 0,
                std::to_string(completed) + " replies equal their arguments, " +
                    std::to_string(wrongEcho) + " differ");
  report.oracle("calls-complete", failed == wrongEcho,
                std::to_string(failed - wrongEcho) + " calls threw" +
                    (firstError.empty() ? "" : " (first: " + firstError + ")"));
  const auto served = rig->server->stats().callsServed - servedBefore;
  report.oracle("served-once", served == attempted,
                std::to_string(served) + " calls served for " +
                    std::to_string(attempted) + " issued");
  report.info("wall_seconds_of_virtual_run", wallSeconds);

  const double traceOverheadPct =
      reportClosedLoop(report, phase, setupSeconds, completions,
                       callsPerVirtualSecond, "rpc", "calls_per_s");

  if (options.trace) {
    LayerInputs in;
    in.traceOverheadPct = traceOverheadPct;
    in.before = before;
    in.after = after;
    in.wallSeconds = wallSeconds;
    in.ops = completed;
    in.opName = "calls";
    in.threads = threads;

    // The messages RpcClient::call sends: a "rpc.req" DataMessage with the
    // method, the arguments, the call id and the reply inbox.
    std::vector<dapple::DataMessage> requests;
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      dapple::DataMessage req("rpc.req");
      req.set("method", dapple::Value("echo"));
      req.set("args", echoArgs(static_cast<std::int64_t>(i % kCallers),
                               static_cast<std::int64_t>(i), pool[i]));
      req.set("id", dapple::Value(static_cast<long long>(i + 1)));
      req.set("replyTo", dapple::inboxRefToValue(rig->server->ref()));
      requests.push_back(std::move(req));
    }
    std::vector<const dapple::Message*> sample;
    for (const auto& r : requests) sample.push_back(&r);
    const SerialCost cost = serialCost(sample, dapple::WireCodec::kText);
    in.encodeNs = cost.encodeNs;
    in.decodeNs = cost.decodeNs;

    const std::vector<Span> all = spans().drain();
    in.hopUs = spanDurationsUs(all, rig->names.requestLeg);
    reportLayers(report, in);
    std::vector<double> reply = spanDurationsUs(all, rig->names.replyLeg);
    std::vector<double> method = spanDurationsUs(all, rig->names.method);
    const std::string legBase =
        std::to_string(reply.size()) + " traced calls, virtual";
    report.extra("rpc.request_leg_us_p50", percentile(in.hopUs, 0.5), "us",
                 "core.hop_us_p50 on this workload: caller stamp -> method");
    report.extra("rpc.reply_leg_us_p50", percentile(reply, 0.5), "us",
                 legBase + ": method end -> call returns");
    report.extra("rpc.method_us_p50", percentile(method, 0.5), "us", legBase);
    finishSpans(report, options, all, "virtual");
  }
  return report;
}

}  // namespace perfbench
