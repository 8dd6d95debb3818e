// Density experiment: how many dapplets fit in one process once the
// runtime is a Reactor instead of a thread triple (DESIGN.md §13).
//
// The paper's vision is "world-wide" scale — processes hosting very large
// numbers of small distributed objects.  With the classic runtime each
// dapplet costs at least one retransmit-timer thread, capping a process at
// a few thousand dapplets.  On a shared reactor every dapplet uses one small
// event-loop pool: N dapplets, O(hw_concurrency) threads.
//
// Shape: N dapplets on a simulated zero-delay network, wired into a ring
// (dapplet i's outbox -> dapplet i+1's inbox), every inbox event-driven via
// onMessage.  T tokens circulate a fixed total number of hops.  We report
// construction rate, steady-state hop throughput, and — the density gate —
// the threads the swarm ADDS over the process baseline (main thread, sim
// network delivery), which must stay within 2x hw_concurrency no matter N.
//
//   ./bench_swarm            # 10,000 dapplets
//   ./bench_swarm --quick    # 1,500 dapplets (bench-smoke ctest label)
#include "bench_common.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dapple/core/dapplet.hpp"
#include "dapple/core/reactor.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/serial/data_message.hpp"

using namespace dapple;

namespace {

/// Current OS thread count of this process (the density gate's measurand).
std::size_t threadCount() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t n = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %zu", &n) == 1) break;
  }
  std::fclose(f);
  return n;
}

struct SwarmResult {
  std::size_t baselineThreads = 0;
  double buildSeconds = 0;
  double runSeconds = 0;
  double stopSeconds = 0;
  std::uint64_t hops = 0;
  std::size_t peakThreads = 0;
  Reactor::Stats reactorStats;
  bool completed = false;
};

SwarmResult runSwarm(std::size_t dapplets, int tokens, int hopsPerToken) {
  SwarmResult res;
  SimNetwork net(42);
  net.setDefaultLink(LinkParams{microseconds(0), microseconds(0), 0.0, 0.0});

  res.baselineThreads = threadCount();  // main + sim delivery, pre-reactor

  Reactor reactor;  // default pool: hw_concurrency loops

  DappletConfig cfg;
  cfg.runtime.reactor = &reactor;
  // 10k dapplets each scanning for retransmits every 5ms would be 2M wheel
  // fires/s for nothing (the sim link is lossless).  A lazy tick keeps the
  // wheel load proportional to what the experiment measures.
  cfg.reliable.tickInterval = milliseconds(250);

  const auto buildStart = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<Dapplet>> swarm;
  std::vector<Inbox*> inboxes(dapplets, nullptr);
  std::vector<Outbox*> outboxes(dapplets, nullptr);
  swarm.reserve(dapplets);
  for (std::size_t i = 0; i < dapplets; ++i) {
    swarm.push_back(
        std::make_unique<Dapplet>(net, "d" + std::to_string(i), cfg));
    inboxes[i] = &swarm.back()->createInbox("ring");
    outboxes[i] = &swarm.back()->createOutbox();
  }
  for (std::size_t i = 0; i < dapplets; ++i) {
    outboxes[i]->add(inboxes[(i + 1) % dapplets]->ref());
  }

  std::atomic<std::uint64_t> hopsDone{0};
  std::atomic<int> tokensDone{0};
  std::mutex doneMutex;
  std::condition_variable doneCv;
  for (std::size_t i = 0; i < dapplets; ++i) {
    Outbox* next = outboxes[i];
    inboxes[i]->onMessage([next, &hopsDone, &tokensDone, &doneMutex,
                           &doneCv](Delivery del) {
      const auto hops = del.as<DataMessage>().get("hops").asInt();
      hopsDone.fetch_add(1, std::memory_order_relaxed);
      if (hops <= 0) {
        {
          std::scoped_lock lock(doneMutex);
          tokensDone.fetch_add(1, std::memory_order_relaxed);
        }
        doneCv.notify_all();
        return;
      }
      DataMessage tok("tok");
      tok.set("hops", Value(static_cast<long long>(hops - 1)));
      next->send(tok);
    });
  }
  res.buildSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    buildStart)
          .count();
  res.peakThreads = std::max(res.peakThreads, threadCount());

  // Inject the tokens spread evenly around the ring, then wait for every
  // token to burn its hop budget, sampling the thread count as we go.
  const auto runStart = std::chrono::steady_clock::now();
  for (int t = 0; t < tokens; ++t) {
    DataMessage tok("tok");
    tok.set("hops", Value(static_cast<long long>(hopsPerToken)));
    outboxes[(dapplets / static_cast<std::size_t>(tokens)) *
             static_cast<std::size_t>(t)]
        ->send(tok);
  }
  {
    std::unique_lock lock(doneMutex);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (tokensDone.load() < tokens) {
      if (doneCv.wait_until(lock, deadline) == std::cv_status::timeout) break;
      lock.unlock();
      res.peakThreads = std::max(res.peakThreads, threadCount());
      lock.lock();
    }
  }
  res.completed = tokensDone.load() >= tokens;
  res.runSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    runStart)
          .count();
  res.hops = hopsDone.load();
  res.peakThreads = std::max(res.peakThreads, threadCount());
  res.reactorStats = reactor.stats();

  const auto stopStart = std::chrono::steady_clock::now();
  for (auto& d : swarm) d->stop();
  swarm.clear();
  reactor.stop();
  res.stopSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    stopStart)
          .count();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = dapple::benchutil::quickMode(argc, argv);
  const std::size_t dapplets = quick ? 1500 : 10000;
  const int tokens = 32;
  const int hopsPerToken = quick ? 300 : 2000;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::printf("=== Swarm density: %zu dapplets, one reactor ===\n", dapplets);
  std::printf("Gate: the swarm adds <= 2x hw_concurrency (%u) OS threads "
              "over the process\nbaseline while %d tokens make %d hops each "
              "around the ring.\n\n",
              hw, tokens, hopsPerToken);

  const SwarmResult r = runSwarm(dapplets, tokens, hopsPerToken);
  const std::size_t added =
      r.peakThreads > r.baselineThreads ? r.peakThreads - r.baselineThreads
                                        : 0;
  const double hopsPerSec =
      r.runSeconds > 0 ? static_cast<double>(r.hops) / r.runSeconds : 0;

  std::printf("build: %zu dapplets in %.2fs (%.0f dapplets/s)\n", dapplets,
              r.buildSeconds,
              static_cast<double>(dapplets) / r.buildSeconds);
  std::printf("run:   %llu hops in %.2fs (%.0f hops/s)%s\n",
              static_cast<unsigned long long>(r.hops), r.runSeconds,
              hopsPerSec, r.completed ? "" : "  [INCOMPLETE]");
  std::printf("stop:  %.2fs\n", r.stopSeconds);
  std::printf("threads: peak %zu = baseline %zu + %zu added (limit 2x%u)  "
              "reactor: %llu tasks, %llu timer fires\n",
              r.peakThreads, r.baselineThreads, added, hw,
              static_cast<unsigned long long>(r.reactorStats.tasksRun),
              static_cast<unsigned long long>(r.reactorStats.timersFired));

  dapple::benchutil::BenchReport rep("swarm");
  rep.row("swarm/dapplets=" + std::to_string(dapplets))
      .num("dapplets", static_cast<double>(dapplets))
      .num("build_s", r.buildSeconds)
      .num("hops", static_cast<double>(r.hops))
      .num("hops_per_s", hopsPerSec)
      .num("stop_s", r.stopSeconds)
      .num("peak_threads", static_cast<double>(r.peakThreads))
      .num("baseline_threads", static_cast<double>(r.baselineThreads))
      .num("added_threads", static_cast<double>(added))
      .num("hw_concurrency", static_cast<double>(hw))
      .num("reactor_tasks", static_cast<double>(r.reactorStats.tasksRun))
      .num("reactor_timer_fires",
           static_cast<double>(r.reactorStats.timersFired))
      .num("completed", r.completed ? 1 : 0);
  rep.write();

  if (!r.completed) {
    std::fprintf(stderr, "swarm: tokens did not finish within 120s\n");
    return 1;
  }
  if (added > 2 * hw) {
    std::fprintf(stderr,
                 "swarm: density gate FAILED: swarm added %zu threads > "
                 "2x%u\n",
                 added, hw);
    return 1;
  }
  std::printf("\ndensity gate PASSED: %zu dapplets added %zu threads "
              "(peak %zu).\n",
              dapplets, added, r.peakThreads);
  return 0;
}
