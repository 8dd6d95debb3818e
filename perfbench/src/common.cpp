#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "dapple/util/rng.hpp"
#include "dapple/util/time.hpp"
#include "spans.hpp"

namespace perfbench {

using dapple::obs::HistogramSnapshot;

const dapple::LinkParams kWanLink{std::chrono::milliseconds(20),
                                  std::chrono::milliseconds(10), 0.01, 0.0};

dapple::SimNetwork::Options wanOptions(dapple::testkit::VirtualClock& clock) {
  dapple::SimNetwork::Options o;
  o.clock = &clock;
  o.hashedLinkRandomness = true;
  return o;
}

std::int64_t virtualNs(dapple::TimePoint t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

Phase::Phase(double seconds, bool tracedRun)
    : seconds_(seconds), tracedRun_(tracedRun), startNs_(nowNs()) {}

double Phase::elapsed() const {
  return static_cast<double>(nowNs() - startNs_) * 1e-9;
}

bool Phase::tracedAt(double atSeconds) const {
  if (!tracedRun_) return false;
  const double chunk = seconds_ / kTracedRunChunks;
  return static_cast<int>(atSeconds / chunk) % 2 == 1;
}

double Phase::secondsIn(bool traced) const {
  if (!tracedRun_) return traced ? 0.0 : seconds_;
  return seconds_ / 2;
}

void Phase::run() const {
  const int chunks = tracedRun_ ? kTracedRunChunks : 1;
  for (int i = 0; i < chunks; ++i) {
    spans().setEnabled(tracedRun_ && i % 2 == 1);
    const auto end = std::chrono::nanoseconds(
        startNs_ +
        static_cast<std::int64_t>(seconds_ * 1e9 * (i + 1) / chunks));
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(end));
  }
  spans().setEnabled(false);
}

Counters snapshotCounters(const std::vector<dapple::Dapplet*>& dapplets,
                          const dapple::obs::MetricsSnapshot& network,
                          const dapple::Reactor* reactor) {
  Counters c;
  c.metrics = network;
  for (dapple::Dapplet* d : dapplets) {
    c.metrics.merge(d->metrics());
    const dapple::ReliableEndpoint::Stats s = d->transport().stats();
    c.reliable.dataSent += s.dataSent;
    c.reliable.retransmits += s.retransmits;
    c.reliable.fastRetransmits += s.fastRetransmits;
    c.reliable.windowDeferred += s.windowDeferred;
    c.reliable.dataBytes += s.dataBytes;
    c.reliable.retransmitBytes += s.retransmitBytes;
    c.reliable.delivered += s.delivered;
    c.reliable.duplicates += s.duplicates;
    c.reliable.ackFramesSent += s.ackFramesSent;
    c.reliable.payloadCopies += s.payloadCopies;
  }
  if (reactor != nullptr) c.reactor = reactor->stats();
  c.proc = ProcStat::now();
  return c;
}

namespace {

double counterDelta(const LayerInputs& in, const std::string& name) {
  const auto get = [&](const Counters& c) {
    const auto it = c.metrics.counters.find(name);
    return it == c.metrics.counters.end() ? 0.0
                                          : static_cast<double>(it->second);
  };
  return get(in.after) - get(in.before);
}

HistogramSnapshot histDelta(const LayerInputs& in, const std::string& name) {
  const auto get = [&](const Counters& c) {
    const auto it = c.metrics.histograms.find(name);
    return it == c.metrics.histograms.end() ? HistogramSnapshot{} : it->second;
  };
  return histogramDelta(get(in.after), get(in.before));
}

std::string histBase(const std::string& name, const HistogramSnapshot& h) {
  return name + " histogram, " + std::to_string(h.count) + " samples";
}

}  // namespace

void reportLayers(Report& report, const LayerInputs& in) {
  const auto& a = in.after.reliable;
  const auto& b = in.before.reliable;
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(x - y);
  };
  const double dataSent = d(a.dataSent, b.dataSent);
  const double dataBytes = d(a.dataBytes, b.dataBytes);
  const double retransmits = d(a.retransmits, b.retransmits);
  const double delivered = d(a.delivered, b.delivered);
  const double messages = counterDelta(in, "core.messages_delivered");
  const double datagramsOut = counterDelta(in, "net.datagrams_out");
  const double ops = static_cast<double>(in.ops);

  report.layer("serial.encode_ns_p50", in.encodeNs, "ns",
               "encodeMessage over a sample of the workload's messages");
  report.layer("serial.decode_ns_p50", in.decodeNs, "ns",
               "decodeMessage over the same sample");
  report.layer("serial.frame_bytes_mean", ratio(dataBytes, dataSent), "bytes",
               base("reliable.data_bytes", dataBytes, "reliable.data_sent",
                    dataSent));
  report.layer("net.datagrams_per_message", ratio(datagramsOut, messages),
               "ratio",
               base("net.datagrams_out", datagramsOut,
                    "core.messages_delivered", messages));
  const HistogramSnapshot batch = histDelta(in, "net.batch_size");
  report.layer("net.batch_size_mean", batch.mean(), "datagrams",
               histBase("net.batch_size", batch));
  report.layer("net.send_errors", counterDelta(in, "sim.undeliverable"),
               "count", "sim.undeliverable");

  const double ackFrames = d(a.ackFramesSent, b.ackFramesSent);
  report.layer("reliable.ack_frames_per_message", ratio(ackFrames, delivered),
               "ratio",
               base("reliable.ack_frames_sent", ackFrames, "reliable.delivered",
                    delivered));
  const HistogramSnapshot ackLat = histDelta(in, "reliable.ack_latency_us");
  report.layer("reliable.ack_latency_us_p50", histogramQuantile(ackLat, 0.5),
               "us", histBase("reliable.ack_latency_us", ackLat));
  report.layer("reliable.ack_latency_us_p99", histogramQuantile(ackLat, 0.99),
               "us", histBase("reliable.ack_latency_us", ackLat));
  const double rtxBytes = d(a.retransmitBytes, b.retransmitBytes);
  report.layer("reliable.retransmit_byte_share", ratio(rtxBytes, dataBytes),
               "ratio",
               base("reliable.retransmit_bytes", rtxBytes,
                    "reliable.data_bytes", dataBytes));
  const double fast = d(a.fastRetransmits, b.fastRetransmits);
  report.layer("reliable.fast_retransmit_share", ratio(fast, retransmits),
               "ratio",
               base("reliable.fast_retransmits", fast, "reliable.retransmits",
                    retransmits));
  const double dups = d(a.duplicates, b.duplicates);
  report.layer("reliable.duplicate_share", ratio(dups, delivered), "ratio",
               base("reliable.duplicates", dups, "reliable.delivered",
                    delivered));
  const double deferred = d(a.windowDeferred, b.windowDeferred);
  report.layer("reliable.window_deferred_per_message",
               ratio(deferred, dataSent), "ratio",
               base("reliable.window_deferred", deferred, "reliable.data_sent",
                    dataSent));
  const HistogramSnapshot reorder = histDelta(in, "reliable.reorder_depth");
  report.layer("reliable.reorder_depth_p99", histogramQuantile(reorder, 0.99),
               "frames", histBase("reliable.reorder_depth", reorder));
  const double copies = d(a.payloadCopies, b.payloadCopies);
  report.layer("reliable.payload_copies_per_frame",
               ratio(copies, dataSent + retransmits), "ratio",
               base("reliable.payload_copies", copies,
                    "reliable.data_sent+retransmits", dataSent + retransmits));

  std::vector<double> hop = in.hopUs;
  const std::string hopBase = std::to_string(hop.size()) +
                              " hops: send call -> receiver code, virtual";
  report.layer("core.hop_us_p50", percentile(hop, 0.5), "us", hopBase);
  report.layer("core.hop_us_p99", percentile(hop, 0.99), "us", hopBase);
  const auto hwm = in.after.metrics.gauges.find("core.inbox_queue_hwm");
  report.layer("core.inbox_queue_hwm",
               hwm == in.after.metrics.gauges.end()
                   ? 0.0
                   : static_cast<double>(hwm->second),
               "messages", "core.inbox_queue_hwm gauge, max over dapplets");

  const ProcStat proc = in.after.proc - in.before.proc;
  report.layer("runtime.threads", static_cast<double>(in.threads), "count",
               "/proc/self/task during the measured phase");
  report.layer("runtime.ctx_switches_per_op",
               ratio(static_cast<double>(proc.contextSwitches), ops), "ratio",
               base("getrusage context switches",
                    static_cast<double>(proc.contextSwitches), in.opName, ops));
  report.layer("runtime.cpu_us_per_op", ratio(proc.cpuSeconds * 1e6, ops),
               "us",
               base("getrusage cpu_us", proc.cpuSeconds * 1e6, in.opName, ops));
  const double tasks = d(in.after.reactor.tasksRun, in.before.reactor.tasksRun);
  const double timers =
      d(in.after.reactor.timersFired, in.before.reactor.timersFired);
  report.layer("reactor.tasks_per_op", ratio(tasks, ops), "ratio",
               base("reactor.tasks_run", tasks, in.opName, ops));
  report.layer("reactor.timers_fired_per_s", ratio(timers, in.wallSeconds),
               "1/s",
               base("reactor.timers_fired", timers, "wall s", in.wallSeconds));
  report.layer("obs.trace_overhead_pct", in.traceOverheadPct, "%",
               "untraced vs traced chunks of this run, on ops per wall second");
}

SerialCost serialCost(const std::vector<const dapple::Message*>& sample,
                      dapple::WireCodec codec) {
  constexpr int kRounds = 301;
  std::vector<std::string> wires;
  for (const dapple::Message* m : sample) {
    wires.push_back(dapple::encodeMessage(*m, codec));
  }
  std::vector<double> enc, dec;
  std::size_t sink = 0;
  for (int r = 0; r < kRounds; ++r) {
    std::int64_t t0 = nowNs();
    for (const dapple::Message* m : sample) {
      sink += dapple::encodeMessage(*m, codec).size();
    }
    std::int64_t t1 = nowNs();
    enc.push_back(static_cast<double>(t1 - t0) /
                  static_cast<double>(sample.size()));
    t0 = nowNs();
    for (const std::string& w : wires) {
      sink += dapple::decodeMessage(w)->typeName().size();
    }
    t1 = nowNs();
    dec.push_back(static_cast<double>(t1 - t0) /
                  static_cast<double>(sample.size()));
  }
  // Keep the loops observable.
  if (sink == 0) std::printf("serial sample empty\n");
  return {median(enc), median(dec)};
}

double medianSetupSeconds(const std::function<void()>& build,
                          const std::function<void()>& teardown) {
  std::vector<double> times;
  for (int i = 0; i < kSetups; ++i) {
    if (i != 0) teardown();
    const std::int64_t t0 = nowNs();
    build();
    times.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
  }
  return median(times);
}

void reportContext(Report& report, const Options& options,
                   const std::string& codec, const std::string& transport) {
  report.info("workload", options.workload);
  report.info("seed", std::to_string(options.seed));
  report.info("seconds", options.seconds);
  report.info("trace", options.trace ? "1" : "0");
  report.info("nproc", std::to_string(processorCount()));
  report.info("compiler", PERFBENCH_COMPILER);
  report.info("build_type", PERFBENCH_BUILD_TYPE);
  report.info("codec", codec);
  report.info("transport", transport);
}

void reportEndToEnd(Report& report, double setupSeconds, double p50Us,
                    double p99Us, double opsPerSecond) {
  report.endToEnd("setup_s", setupSeconds, "s");
  report.endToEnd("op_p50_us", p50Us, "us");
  report.endToEnd("op_p99_us", p99Us, "us");
  report.endToEnd("ops_per_s", opsPerSecond, "1/s");
}

double reportClosedLoop(Report& report, const Phase& phase,
                        double setupSeconds,
                        const std::vector<Completion>& completions,
                        double opsPerVirtualSecond, const std::string& prefix,
                        const std::string& rateName) {
  std::vector<double> untraced;
  for (const Completion& c : completions) {
    if (!c.traced) untraced.push_back(c.latencyUs);
  }
  const double p50 = percentile(untraced, 0.5);
  const double p99 = percentile(untraced, 0.99);
  reportEndToEnd(report, setupSeconds, p50, p99, opsPerVirtualSecond);
  report.extra(prefix + "_p50_us", p50, "us", "op_p50_us on this workload");
  report.extra(prefix + "_p99_us", p99, "us", "op_p99_us on this workload");
  report.extra(prefix + "_" + rateName, opsPerVirtualSecond, "1/s",
               "ops_per_s on this workload, per virtual second");
  if (!phase.traced()) return 0;
  const auto traced = static_cast<double>(completions.size() - untraced.size());
  return reportTraceOverhead(
      report, "completions_per_wall_s",
      static_cast<double>(untraced.size()) / phase.secondsIn(false),
      traced / phase.secondsIn(true));
}

double reportTraceOverhead(Report& report, const std::string& rateName,
                           double untracedRate, double tracedRate) {
  report.extra("obs.untraced_" + rateName, untracedRate, "1/s");
  report.extra("obs.traced_" + rateName, tracedRate, "1/s");
  return tracedRate == 0 ? 0.0 : (untracedRate / tracedRate - 1) * 100;
}

std::vector<double> spanDurationsUs(const std::vector<Span>& spans,
                                    std::uint32_t name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-3);
    }
  }
  return out;
}

void finishSpans(Report& report, const Options& options,
                 const std::vector<Span>& all, const std::string& clock) {
  report.spanSummary(summarize(all, spans()), clock);
  if (!options.spansPath.empty()) {
    constexpr std::size_t kDumpLimit = 100000;
    const std::size_t n =
        writeSpans(options.spansPath, all, spans(), kDumpLimit);
    report.info("spans_written", std::to_string(n) + " of " +
                                     std::to_string(all.size()) + " to " +
                                     options.spansPath);
  }
}

std::vector<std::string> payloadPool(std::uint64_t seed, std::size_t count,
                                     std::size_t bytes) {
  dapple::Rng rng(seed);
  std::vector<std::string> pool(count);
  for (std::string& p : pool) {
    p.resize(bytes);
    for (char& c : p) c = static_cast<char>(rng.below(256));
  }
  return pool;
}

}  // namespace perfbench
