// Experiment E1 (DESIGN.md): cost of the ordering layer (paper §3.2: UDP
// plus "a layer to ensure that messages are delivered in the order they
// were sent").
//
// Sweeps datagram loss probability and compares the raw transport (loses
// messages, may reorder) against the reliable layer (delivers everything,
// in order, at the price of retransmissions and delay).  Expected shape:
// reliable completion time grows with the loss rate (retransmission
// round-trips), raw "throughput" is flat but lossy.
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

int kMessages = 400;  // shrunk under --quick

// Frame-head wire codec for the reliable endpoints (--codec binary; E14).
WireCodec gCodec = WireCodec::kText;

struct RawResult {
  int delivered = 0;
  int reordered = 0;
  double wallMs = 0;
};

RawResult runRaw(double loss, std::uint64_t seed) {
  SimNetwork net(seed);
  net.setDefaultLink(
      LinkParams{microseconds(200), microseconds(400), loss, 0.0});
  auto tx = net.open();
  auto rx = net.open();
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<int> got;
  rx->setHandler([&](const NodeAddress&, std::string_view payload) {
    std::scoped_lock lock(mutex);
    got.push_back(std::stoi(std::string(payload)));
    cv.notify_all();
  });
  Stopwatch watch;
  for (int i = 0; i < kMessages; ++i) {
    tx->send(rx->address(), std::to_string(i));
  }
  net.awaitQuiescent(seconds(10));
  RawResult result;
  result.wallMs = watch.elapsedSeconds() * 1e3;
  std::scoped_lock lock(mutex);
  result.delivered = static_cast<int>(got.size());
  for (std::size_t i = 1; i < got.size(); ++i) {
    if (got[i] < got[i - 1]) ++result.reordered;
  }
  return result;
}

struct ReliableResult {
  double wallMs = 0;
  std::uint64_t retransmits = 0;
  bool fifo = true;
};

ReliableResult runReliable(double loss, std::uint64_t seed) {
  SimNetwork net(seed);
  net.setDefaultLink(
      LinkParams{microseconds(200), microseconds(400), loss, 0.0});
  ReliableConfig cfg;
  cfg.tickInterval = milliseconds(2);
  cfg.rto = milliseconds(8);
  cfg.maxRto = milliseconds(100);
  cfg.codec = gCodec;
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
  Stopwatch watch;
  for (int i = 0; i < kMessages; ++i) {
    tx.send(rx.address(), 1, std::to_string(i));
  }
  {
    std::unique_lock lock(mutex);
    cv.wait_for(lock, seconds(30),
                [&] { return got.size() >= static_cast<std::size_t>(kMessages); });
  }
  ReliableResult result;
  result.wallMs = watch.elapsedSeconds() * 1e3;
  result.retransmits = tx.stats().retransmits;
  std::scoped_lock lock(mutex);
  for (int i = 0; i < kMessages; ++i) {
    if (got[static_cast<std::size_t>(i)] != i) result.fifo = false;
  }
  return result;
}

struct AckEconomy {
  std::uint64_t delivered = 0;
  std::uint64_t ackDatagrams = 0;  ///< standalone ACK frames on the wire
  std::uint64_t acksCoalesced = 0;
  double acksPerMsg = 0;
};

/// E1b: ack datagram economy under light loss.  `coalesce=false` reproduces
/// the historical ack-per-frame behaviour (flush threshold 1, no delay, no
/// piggyback); `coalesce=true` is the shipping default.
AckEconomy runAckEconomy(bool coalesce, std::uint64_t seed) {
  SimNetwork net(seed);
  net.setDefaultLink(
      LinkParams{microseconds(200), microseconds(400), 0.01, 0.0});
  ReliableConfig cfg;
  cfg.tickInterval = milliseconds(2);
  cfg.rto = milliseconds(8);
  cfg.maxRto = milliseconds(100);
  cfg.codec = gCodec;
  cfg.ackEvery = coalesce ? 8 : 1;
  cfg.ackDelay = coalesce ? milliseconds(2) : milliseconds(0);
  cfg.ackPiggyback = coalesce;
  ReliableEndpoint tx(net.open(), cfg);
  ReliableEndpoint rx(net.open(), cfg);
  const auto ticks = benchutil::tickEvery(cfg.tickInterval, {&tx, &rx});
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t got = 0;
  rx.setDeliver([&](const NodeAddress&, std::uint64_t, std::string_view) {
    std::scoped_lock lock(mutex);
    ++got;
    cv.notify_all();
  });
  for (int i = 0; i < kMessages; ++i) {
    tx.send(rx.address(), 1, std::to_string(i));
  }
  {
    std::unique_lock lock(mutex);
    cv.wait_for(lock, seconds(30), [&] {
      return got >= static_cast<std::size_t>(kMessages);
    });
  }
  tx.flush(seconds(10));
  const ReliableEndpoint::Stats rs = rx.stats();
  AckEconomy result;
  result.delivered = rs.delivered;
  result.ackDatagrams = rs.ackFramesSent;
  result.acksCoalesced = rs.acksCoalesced;
  result.acksPerMsg =
      rs.delivered == 0
          ? 0
          : static_cast<double>(rs.ackFramesSent) /
                static_cast<double>(rs.delivered);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = dapple::benchutil::quickMode(argc, argv);
  if (quick) kMessages = 100;
  gCodec = dapple::benchutil::codecFlag(argc, argv);
  dapple::benchutil::BenchReport report("reliable");
  std::printf("=== E1: ordering-layer overhead vs raw datagrams (codec=%s) "
              "===\n",
              wireCodecName(gCodec));
  std::printf("%d messages, 0.2ms base delay + 0.4ms jitter per link.\n\n",
              kMessages);
  std::printf("%-7s | %-28s | %-36s\n", "", "raw UDP-like datagrams",
              "reliable ordered layer");
  std::printf("%-7s | %9s %9s %8s | %9s %12s %6s %6s\n", "loss%",
              "delivered", "reorder", "ms", "ms", "retransmits", "fifo",
              "all");
  std::printf("--------+------------------------------+---------------------"
              "-----------------\n");
  const std::vector<double> losses =
      quick ? std::vector<double>{0.0, 0.05}
            : std::vector<double>{0.0, 0.01, 0.05, 0.10, 0.20};
  for (double loss : losses) {
    const RawResult raw = runRaw(loss, 7);
    const ReliableResult rel = runReliable(loss, 7);
    std::printf("%-7.0f | %9d %9d %8.1f | %9.1f %12llu %6s %6s\n",
                loss * 100, raw.delivered, raw.reordered, raw.wallMs,
                rel.wallMs,
                static_cast<unsigned long long>(rel.retransmits),
                rel.fifo ? "yes" : "NO!", "yes");
    report.row("loss_pct=" + std::to_string(static_cast<int>(loss * 100)))
        .num("raw_delivered", raw.delivered)
        .num("raw_reordered", raw.reordered)
        .num("raw_ms", raw.wallMs)
        .num("reliable_ms", rel.wallMs)
        .num("retransmits", static_cast<double>(rel.retransmits))
        .num("fifo", rel.fifo ? 1 : 0);
  }
  std::printf("\nExpected shape: raw loses ~loss%% of messages and reorders "
              "under jitter;\nthe reliable layer always delivers all %d in "
              "FIFO order, with completion\ntime and retransmissions "
              "growing with the loss rate.\n",
              kMessages);

  std::printf("\n=== E1b: ack coalescing economy (1%% loss) ===\n");
  const AckEconomy legacy = runAckEconomy(false, 11);
  const AckEconomy coalesced = runAckEconomy(true, 11);
  const double ratio = coalesced.acksPerMsg > 0
                           ? legacy.acksPerMsg / coalesced.acksPerMsg
                           : 0;
  std::printf("%-22s %12s %12s %12s\n", "", "delivered", "ack dgrams",
              "acks/msg");
  std::printf("%-22s %12llu %12llu %12.3f\n", "ack-per-frame (legacy)",
              static_cast<unsigned long long>(legacy.delivered),
              static_cast<unsigned long long>(legacy.ackDatagrams),
              legacy.acksPerMsg);
  std::printf("%-22s %12llu %12llu %12.3f\n", "coalesced (default)",
              static_cast<unsigned long long>(coalesced.delivered),
              static_cast<unsigned long long>(coalesced.ackDatagrams),
              coalesced.acksPerMsg);
  std::printf("reduction: %.1fx fewer ack datagrams per delivered message "
              "(%llu arrivals folded)\n",
              ratio,
              static_cast<unsigned long long>(coalesced.acksCoalesced));
  report.row("ack_economy")
      .num("legacy_acks_per_msg", legacy.acksPerMsg)
      .num("coalesced_acks_per_msg", coalesced.acksPerMsg)
      .num("ack_reduction_ratio", ratio)
      .num("acks_coalesced", static_cast<double>(coalesced.acksCoalesced));
  return 0;
}
