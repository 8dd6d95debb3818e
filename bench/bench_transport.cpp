// E10: adaptive transport vs fixed-RTO baseline across a loss x delay
// matrix (DESIGN.md §11, EXPERIMENTS.md E10).
//
// Each cell runs the same paced workload twice over a simulated link:
//
//  * "fixed"    — the pre-adaptive sender, reproduced purely through
//                 ReliableConfig pinning: minRto == rto == maxRto (no
//                 estimator effect), a window far above the offered load
//                 (no congestion control), fast retransmit disabled.
//  * "adaptive" — the default config: per-peer Jacobson RTO, slow-start +
//                 AIMD window, duplicate-SACK fast retransmit.
//
// The whole matrix runs under the virtual clock, so a cell with 20 ms link
// delay and seconds of virtual traffic costs milliseconds of wall time and
// the numbers are independent of host load.  Goodput is measured in
// *virtual* time: total messages over the span from first send to the
// delivery of the last message at the receiving application.
//
// Each cell is averaged over several seeds, because one seed's loss pattern
// is one sample.  A run is a pure function of its seed: the driving thread
// holds virtual time still while it builds the rig, and the clock orders
// events due at the same instant (deliveries first), so the seeded link RNG
// sees the same draw order every run, however loaded the host.  Per-cell keys
// are *informational* (goodput_msg_rate, retx_overhead_pct,
// efficiency_gain_x, ...).  Only the whole-matrix aggregate row carries
// gated "*_ratio" keys for bench_compare.py — a geometric-mean goodput
// ratio and an all-cells retransmit-efficiency gain.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/reliable/reliable.hpp"
#include "dapple/testkit/virtual_clock.hpp"
#include "dapple/util/time.hpp"

namespace {

using namespace dapple;

std::int64_t usOf(Duration d) {
  return std::chrono::duration_cast<microseconds>(d).count();
}

struct CellResult {
  double elapsedMs = 0;     // virtual ms, first send -> all acked
  double goodputPerS = 0;   // messages per virtual second
  double overhead = 0;      // retransmitBytes / dataBytes
  ReliableEndpoint::Stats stats;
  ReliableEndpoint::PeerProbe peer;
};

constexpr std::size_t kPayloadBytes = 256;
constexpr int kChunk = 8;                       // messages per pacing step
const Duration kChunkGap = milliseconds(5);     // offered ~1600 msg/s

/// The old sender, expressed as configuration: one fixed timeout, no
/// window, no fast retransmit (reliable.hpp documents this recipe).
ReliableConfig fixedRtoConfig() {
  ReliableConfig cfg;
  cfg.rto = milliseconds(40);
  cfg.minRto = cfg.rto;
  cfg.maxRto = cfg.rto;
  cfg.initialCwnd = 1u << 20;
  cfg.maxCwnd = 1u << 20;
  cfg.fastRetransmitDups = UINT32_MAX;
  cfg.deliveryTimeout = seconds(60);
  return cfg;
}

ReliableConfig adaptiveConfig() {
  ReliableConfig cfg;  // the defaults ARE the adaptive transport
  cfg.deliveryTimeout = seconds(60);
  return cfg;
}

/// One sender/receiver pair over one link shape; returns the cell metrics.
CellResult runCell(const ReliableConfig& cfg, double loss, Duration delay,
                   int messages, std::uint64_t seed) {
  testkit::VirtualClock clock;
  CellResult out;
  {
    // The driving thread is a clock worker: virtual time stands still while
    // it builds the rig and schedules the load, so every run starts its
    // timers and its pacing on the same instants.
    clock.announceWorker();
    const ClockSource::WorkerScope mainIsWorker(clock);
    SimNetwork::Options opts;
    opts.clock = &clock;
    SimNetwork net(seed, opts);
    net.setDefaultLink(LinkParams{
        std::chrono::duration_cast<microseconds>(delay), microseconds(0),
        loss, 0.0});
    ReliableEndpoint sender(net.openAt(1), cfg, nullptr, &clock);
    ReliableEndpoint receiver(net.openAt(2), cfg, nullptr, &clock);
    const auto ticks = benchutil::tickEvery(cfg.tickInterval,
                                            {&sender, &receiver}, &clock);

    // Completion is timestamped on the delivery thread (a clocked worker),
    // so `elapsed` is the exact virtual instant the last message reached
    // the application — independent of how late the driving thread happens
    // to wake.
    const TimePoint start = clock.now();
    std::atomic<std::int64_t> doneUs{-1};
    std::atomic<int> delivered{0};
    receiver.setDeliver([&, start](const NodeAddress&, std::uint64_t,
                                   std::string_view) {
      if (delivered.fetch_add(1) + 1 == messages) {
        doneUs.store(usOf(clock.now() - start));
      }
    });

    // Pace the offered load from the clock's scheduler thread: each burst
    // fires at an exact virtual time (time is paused while the callback
    // runs).
    const std::string payload(kPayloadBytes, 'x');
    for (int k = 0; k * kChunk < messages; ++k) {
      const int burst = std::min(kChunk, messages - k * kChunk);
      clock.at(start + milliseconds(1) + k * kChunkGap, [&, burst] {
        for (int i = 0; i < burst; ++i) {
          sender.send(receiver.address(), 1, payload);
        }
      });
    }

    // Wait for full delivery (worker-timestamped), then drain the ack tail
    // so the sender stats are final.
    while (doneUs.load() < 0) clock.sleepFor(milliseconds(5));
    const ReliableEndpoint::FlushOutcome fl = sender.flushEx(seconds(120));
    if (fl != ReliableEndpoint::FlushOutcome::kFlushed) {
      std::fprintf(stderr, "bench_transport: flush outcome %d at loss=%g\n",
                   static_cast<int>(fl), loss);
    }

    out.stats = sender.stats();
    out.peer = sender.probePeer(receiver.address());
    out.elapsedMs = static_cast<double>(doneUs.load()) / 1000.0;
    out.goodputPerS = out.elapsedMs > 0
                          ? messages / (out.elapsedMs / 1000.0)
                          : 0.0;
    out.overhead =
        out.stats.dataBytes > 0
            ? static_cast<double>(out.stats.retransmitBytes) /
                  static_cast<double>(out.stats.dataBytes)
            : 0.0;
    sender.close();
    receiver.close();
  }  // network down before the clock
  return out;
}

std::string cellName(double loss, Duration delay) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "loss=%g%%/delay=%" PRId64 "ms",
                loss * 100.0, static_cast<std::int64_t>(
                                  usOf(delay) / 1000));
  return buf;
}

}  // namespace

namespace {

/// Rep-averaged metrics for one (cell, sender) pair.
struct CellAvg {
  double elapsedMs = 0;
  double goodput = 0;
  double overhead = 0;
  double retransmits = 0;
  double fastRetransmits = 0;
  double rttSamples = 0;
  double srttUs = 0;
  std::uint64_t dataBytes = 0;
  std::uint64_t retxBytes = 0;
};

CellAvg average(const std::vector<CellResult>& runs, int messages) {
  CellAvg avg;
  for (const CellResult& r : runs) {
    avg.elapsedMs += r.elapsedMs;
    avg.retransmits += static_cast<double>(r.stats.retransmits);
    avg.fastRetransmits += static_cast<double>(r.stats.fastRetransmits);
    avg.rttSamples += static_cast<double>(r.stats.rttSamples);
    avg.srttUs += static_cast<double>(usOf(r.peer.srtt));
    avg.dataBytes += r.stats.dataBytes;
    avg.retxBytes += r.stats.retransmitBytes;
  }
  const double n = static_cast<double>(runs.size());
  avg.elapsedMs /= n;
  avg.retransmits /= n;
  avg.fastRetransmits /= n;
  avg.rttSamples /= n;
  avg.srttUs /= n;
  avg.goodput = avg.elapsedMs > 0 ? messages / (avg.elapsedMs / 1000.0) : 0;
  avg.overhead = avg.dataBytes > 0 ? static_cast<double>(avg.retxBytes) /
                                         static_cast<double>(avg.dataBytes)
                                   : 0;
  return avg;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = dapple::benchutil::quickMode(argc, argv);
  // Quick trims seeds, not messages: a short run is dominated by the RTO
  // estimator's bootstrap transient and slow-start ramp, which makes the
  // 20 ms cells wildly noisy; a full-length single-seed run stays
  // representative.
  const int messages = 1600;
  const int reps = quick ? 1 : 5;

  const std::vector<double> losses = {0.0, 0.01, 0.05};
  const std::vector<Duration> delays = {milliseconds(1), milliseconds(20)};

  dapple::benchutil::BenchReport report("transport");
  std::printf("%-22s %-9s %12s %12s %10s %8s\n", "cell", "sender",
              "goodput/s", "elapsed_ms", "retx_pct", "fastrtx");

  // A floor of 1% overhead keeps efficiency gains finite in cells where
  // the adaptive sender retransmits nothing at all.
  const double kFloor = 0.01;
  double lnRatioSum = 0;                        // geomean accumulator
  int cellsCounted = 0;
  std::uint64_t fixedData = 0, fixedRetx = 0;   // all-cells byte totals
  std::uint64_t adaptData = 0, adaptRetx = 0;

  for (const Duration delay : delays) {
    for (const double loss : losses) {
      const std::string cell = cellName(loss, delay);
      std::vector<CellResult> fixedRuns, adaptiveRuns;
      for (int rep = 0; rep < reps; ++rep) {
        const std::uint64_t seed = 7 + 101 * static_cast<std::uint64_t>(rep);
        fixedRuns.push_back(
            runCell(fixedRtoConfig(), loss, delay, messages, seed));
        adaptiveRuns.push_back(
            runCell(adaptiveConfig(), loss, delay, messages, seed));
      }
      const CellAvg fixed = average(fixedRuns, messages);
      const CellAvg adaptive = average(adaptiveRuns, messages);

      for (const auto* r : {&fixed, &adaptive}) {
        const bool isFixed = r == &fixed;
        std::printf("%-22s %-9s %12.0f %12.1f %9.1f%% %8.1f\n",
                    cell.c_str(), isFixed ? "fixed" : "adaptive", r->goodput,
                    r->elapsedMs, r->overhead * 100.0, r->fastRetransmits);
        report.row(cell + (isFixed ? "/fixed" : "/adaptive"))
            .num("goodput_msg_rate", r->goodput)
            .num("elapsed_virtual_ms", r->elapsedMs)
            .num("retx_overhead_pct", r->overhead * 100.0)
            .num("retransmits", r->retransmits)
            .num("fast_retransmits", r->fastRetransmits)
            .num("rtt_samples", r->rttSamples)
            .num("srtt_us", r->srttUs);
      }

      const double effGain =
          (fixed.overhead + kFloor) / (adaptive.overhead + kFloor);
      const double goodputRatio =
          fixed.goodput > 0 ? adaptive.goodput / fixed.goodput : 0.0;
      report.row(cell + "/summary")
          .num("efficiency_gain_x", effGain)
          .num("goodput_vs_fixed_x", goodputRatio);
      std::printf("%-22s %-9s  efficiency gain %.2fx, goodput ratio %.3f\n",
                  cell.c_str(), "summary", effGain, goodputRatio);

      if (goodputRatio > 0) {
        lnRatioSum += std::log(goodputRatio);
        ++cellsCounted;
      }
      fixedData += fixed.dataBytes;
      fixedRetx += fixed.retxBytes;
      adaptData += adaptive.dataBytes;
      adaptRetx += adaptive.retxBytes;
    }
  }

  // The gated aggregates (see the header comment).
  const double aggGoodput =
      cellsCounted > 0 ? std::exp(lnRatioSum / cellsCounted) : 0.0;
  const double fixedOv =
      fixedData > 0
          ? static_cast<double>(fixedRetx) / static_cast<double>(fixedData)
          : 0.0;
  const double adaptOv =
      adaptData > 0
          ? static_cast<double>(adaptRetx) / static_cast<double>(adaptData)
          : 0.0;
  const double aggGain = (fixedOv + kFloor) / (adaptOv + kFloor);
  report.row("matrix/aggregate")
      .num("goodput_vs_fixed_ratio", aggGoodput)
      .num("efficiency_gain_ratio", aggGain);
  std::printf("%-22s %-9s  efficiency gain %.2fx, goodput geomean %.3f\n",
              "matrix/aggregate", "", aggGain, aggGoodput);
  return 0;
}
