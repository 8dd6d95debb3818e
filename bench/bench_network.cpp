// Experiment E8 (DESIGN.md): the varied network environment (paper §2.2).
//
// Validates and characterizes the Internet substitute: measured one-way
// delay distribution vs configuration, per-message delay independence
// (reordering rate under jitter), and the channel property that survives
// it all — per-channel FIFO through the ordering layer while raw datagram
// order degrades.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <vector>

#include "bench_common.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/reliable/reliable.hpp"
#include "dapple/util/time.hpp"

using namespace dapple;

namespace {

struct DelayStats {
  double meanMs = 0;
  double p50Ms = 0;
  double p99Ms = 0;
  int reordered = 0;
};

DelayStats measureRaw(microseconds base, microseconds jitter, int count,
                      std::uint64_t seed) {
  SimNetwork net(seed);
  net.setDefaultLink(LinkParams{base, jitter, 0.0, 0.0});
  auto tx = net.open();
  auto rx = net.open();
  std::mutex mutex;
  std::vector<std::pair<int, double>> arrivals;  // (seq, delay ms)
  std::vector<TimePoint> sentAt(static_cast<std::size_t>(count));
  rx->setHandler([&](const NodeAddress&, std::string_view payload) {
    const auto now = Clock::now();
    const int seq = std::stoi(std::string(payload));
    std::scoped_lock lock(mutex);
    const double ms =
        std::chrono::duration<double, std::milli>(
            now - sentAt[static_cast<std::size_t>(seq)])
            .count();
    arrivals.emplace_back(seq, ms);
  });
  for (int i = 0; i < count; ++i) {
    sentAt[static_cast<std::size_t>(i)] = Clock::now();
    tx->send(rx->address(), std::to_string(i));
  }
  net.awaitQuiescent(seconds(20));
  DelayStats stats;
  std::scoped_lock lock(mutex);
  std::vector<double> delays;
  int last = -1;
  for (const auto& [seq, ms] : arrivals) {
    delays.push_back(ms);
    if (seq < last) ++stats.reordered;
    last = std::max(last, seq);
  }
  if (delays.empty()) return stats;
  std::sort(delays.begin(), delays.end());
  double sum = 0;
  for (double d : delays) sum += d;
  stats.meanMs = sum / static_cast<double>(delays.size());
  stats.p50Ms = delays[delays.size() / 2];
  stats.p99Ms = delays[delays.size() * 99 / 100];
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = dapple::benchutil::quickMode(argc, argv);
  dapple::benchutil::BenchReport report("network");
  const int delayCount = quick ? 200 : 1000;
  const int fifoCount = quick ? 100 : 500;
  std::printf("=== E8: simulated WAN fidelity (paper §2.2) ===\n\n");
  std::printf("--- Delay distribution: configured vs measured (%d "
              "datagrams) ---\n",
              delayCount);
  std::printf("%-22s %9s %9s %9s %10s\n", "link (base+jitter)", "mean ms",
              "p50 ms", "p99 ms", "reordered");
  struct Config {
    microseconds base;
    microseconds jitter;
  };
  const std::vector<Config> configs = {
      {microseconds(500), microseconds(0)},
      {milliseconds(2), milliseconds(1)},
      {milliseconds(5), milliseconds(5)},
      {milliseconds(10), milliseconds(20)},
  };
  for (const auto& cfg : configs) {
    const DelayStats stats = measureRaw(cfg.base, cfg.jitter, delayCount, 3);
    std::printf("%6.1f + %-6.1f ms      %9.2f %9.2f %9.2f %10d\n",
                cfg.base.count() / 1000.0, cfg.jitter.count() / 1000.0,
                stats.meanMs, stats.p50Ms, stats.p99Ms, stats.reordered);
    report
        .row("delay/base_us=" + std::to_string(cfg.base.count()) +
             "/jitter_us=" + std::to_string(cfg.jitter.count()))
        .num("mean_ms", stats.meanMs)
        .num("p50_ms", stats.p50Ms)
        .num("p99_ms", stats.p99Ms)
        .num("reordered", stats.reordered);
  }
  std::printf("\nExpected: mean ~ base + jitter/2; p99 ~ base + jitter; "
              "reordering grows\nwith jitter (delays are independent per "
              "message, §3.2).\n\n");

  std::printf("--- Per-channel FIFO: raw datagrams vs the channel layer "
              "---\n");
  std::printf("%-22s %12s %14s\n", "jitter", "raw reorders",
              "channel reorders");
  const std::vector<milliseconds> jitters =
      quick ? std::vector<milliseconds>{milliseconds(0), milliseconds(2)}
            : std::vector<milliseconds>{milliseconds(0), milliseconds(2),
                                        milliseconds(10)};
  for (auto jitter : jitters) {
    // Raw.
    const DelayStats raw = measureRaw(milliseconds(1), jitter, fifoCount, 4);
    // Through the reliable layer.
    SimNetwork net(5);
    net.setDefaultLink(LinkParams{milliseconds(1), jitter, 0.0, 0.0});
    ReliableConfig cfg;
    cfg.tickInterval = milliseconds(2);
    cfg.rto = milliseconds(30);
    ReliableEndpoint tx(net.open(), cfg);
    ReliableEndpoint rx(net.open(), cfg);
    const auto ticks = benchutil::tickEvery(cfg.tickInterval, {&tx, &rx});
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<int> got;
    rx.setDeliver(
        [&](const NodeAddress&, std::uint64_t, std::string_view payload) {
          std::scoped_lock lock(mutex);
          got.push_back(std::stoi(std::string(payload)));
          cv.notify_all();
        });
    for (int i = 0; i < fifoCount; ++i) {
      tx.send(rx.address(), 1, std::to_string(i));
    }
    int channelReorders = 0;
    {
      std::unique_lock lock(mutex);
      cv.wait_for(lock, seconds(30), [&] {
        return got.size() >= static_cast<std::size_t>(fifoCount);
      });
      for (std::size_t i = 1; i < got.size(); ++i) {
        if (got[i] < got[i - 1]) ++channelReorders;
      }
    }
    std::printf("%6.0f ms              %12d %14d\n",
                std::chrono::duration<double, std::milli>(jitter).count(),
                raw.reordered, channelReorders);
    report.row("fifo/jitter_ms=" + std::to_string(jitter.count()))
        .num("raw_reorders", raw.reordered)
        .num("channel_reorders", channelReorders);
  }
  std::printf("\nExpected: raw reordering grows with jitter; the channel "
              "layer always shows 0\n(\"messages sent along a channel are "
              "delivered in the order sent\").\n");
  return 0;
}
