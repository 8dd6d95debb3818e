// Experiment F2 (DESIGN.md): Figure 2 — an initiator linking dapplets into
// a session via the address directory.
//
// Reports, as a function of member count and WAN one-way delay, the time
// from the call to `establish` until it returns (INVITE round, WIRE round,
// START flushed) and until the last role has started.  START rides behind
// WIRE, so roles start after about 3 one-way delays (the INVITE round trip,
// then START) and establish returns after about 4 (the WIRE round as
// well), roughly flat in N (each phase contacts all members in parallel).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "bench_common.hpp"
#include "dapple/core/session.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/util/time.hpp"

using namespace dapple;

namespace {

struct SetupTimes {
  double establishMs = 0;
  double startedMs = 0;  ///< until the last role started
};

SetupTimes establishOnce(std::size_t members, microseconds delay,
                         std::uint64_t seed) {
  SimNetwork net(seed);
  net.setDefaultLink(LinkParams{delay, delay / 4, 0.0, 0.0});

  // Declared before the dapplets, whose role threads use them.
  Stopwatch watch;
  std::mutex mutex;
  double lastStartMs = 0;  // guarded by `mutex`
  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<SessionAgent>> agents;
  Directory directory;
  for (std::size_t i = 0; i < members; ++i) {
    const std::string name = "m" + std::to_string(i);
    // Spread members across simulated hosts.
    DappletConfig cfg;
    cfg.host = static_cast<std::uint32_t>(i + 2);
    dapplets.push_back(std::make_unique<Dapplet>(net, name, cfg));
    agents.push_back(std::make_unique<SessionAgent>(*dapplets.back()));
    agents.back()->registerApp("noop", [&](SessionContext&) {
      std::scoped_lock lock(mutex);
      lastStartMs = std::max(lastStartMs, watch.elapsedSeconds() * 1e3);
    });
    directory.put(name, agents.back()->controlRef());
  }
  Dapplet init(net, "initiator");
  Initiator initiator(init);

  Initiator::Plan plan;
  plan.app = "noop";
  plan.phaseTimeout = seconds(30);
  for (std::size_t i = 0; i < members; ++i) {
    plan.members.push_back(
        Initiator::member(directory, "m" + std::to_string(i), {"in"}));
  }
  // A ring topology so WIRE has real work to do.
  for (std::size_t i = 0; i < members; ++i) {
    plan.edges.push_back({"m" + std::to_string(i), "out",
                          "m" + std::to_string((i + 1) % members), "in"});
  }

  SetupTimes times;
  watch.reset();
  auto result = initiator.establish(plan);
  times.establishMs = watch.elapsedSeconds() * 1e3;
  if (!result.ok) std::printf("  !! establishment failed\n");
  initiator.awaitCompletion(result.sessionId, seconds(30));
  initiator.terminate(result.sessionId);
  {
    std::scoped_lock lock(mutex);
    times.startedMs = lastStartMs;
  }

  agents.clear();
  init.stop();
  for (auto& d : dapplets) d->stop();
  return times;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = dapple::benchutil::quickMode(argc, argv);
  dapple::benchutil::BenchReport report("session");
  const int reps = quick ? 1 : 3;
  std::printf("=== F2: session establishment (paper Figure 2) ===\n");
  std::printf("Initiator links N dapplets (ring topology) via the address "
              "directory.\nColumns: one-way WAN delay; cells: ms until "
              "establish returned / until the last role started (median of "
              "%d).\n\n",
              reps);
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{2, 4}
            : std::vector<std::size_t>{2, 4, 8, 16, 32};
  const std::vector<microseconds> delays =
      quick ? std::vector<microseconds>{microseconds(0), milliseconds(2)}
            : std::vector<microseconds>{microseconds(0), milliseconds(2),
                                        milliseconds(10)};
  std::printf("%-8s", "members");
  for (auto d : delays) {
    const std::string label =
        "delay=" + std::to_string(d.count() / 1000) + "ms";
    std::printf("  %-17s", label.c_str());
  }
  std::printf("\n");
  for (std::size_t n : sizes) {
    std::printf("%-8zu", n);
    for (auto d : delays) {
      std::vector<double> establish;
      std::vector<double> started;
      for (int r = 0; r < reps; ++r) {
        const SetupTimes times = establishOnce(n, d, 42 + r);
        establish.push_back(times.establishMs);
        started.push_back(times.startedMs);
      }
      const double establishMs = median(establish);
      const double startedMs = median(started);
      std::printf("  %7.2f / %7.2f", establishMs, startedMs);
      report
          .row("establish/members=" + std::to_string(n) +
               "/delay_ms=" + std::to_string(d.count() / 1000))
          .num("median_ms", establishMs)
          .num("roles_started_median_ms", startedMs);
    }
    std::printf("\n");
  }
  std::printf("\nExpected shape: roles start after ~3 one-way delays and "
              "establish returns after ~4;\nboth grow slowly with N (phases "
              "are parallel) and scale with WAN delay.\n");
  return 0;
}
