#pragma once
// Pieces every workload shares: options, the simulated WAN, the
// measured-phase clock (with the untraced/traced alternation of a traced
// run), counter snapshots taken around the measured phase, the per-layer
// metrics every workload reports, and the serialization sample.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dapple/core/dapplet.hpp"
#include "dapple/core/reactor.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/obs/metrics.hpp"
#include "dapple/reliable/reliable.hpp"
#include "dapple/serial/message.hpp"
#include "dapple/testkit/virtual_clock.hpp"
#include "procstat.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans ("" writes none).
  std::string spansPath;
};

/// The wide-area link every workload runs on: 20 ms + U[0,10) ms one way,
/// 1% loss.
extern const dapple::LinkParams kWanLink;

/// SimNetwork options on `clock` with hashed link randomness, so that every
/// loss and delay draw depends on the seed and the datagram, not on thread
/// interleaving.
dapple::SimNetwork::Options wanOptions(dapple::testkit::VirtualClock& clock);

/// Nanoseconds of `t` since its clock's epoch.
std::int64_t virtualNs(dapple::TimePoint t);

/// Wall clock of the measured phase.  An untraced run measures the whole
/// phase untraced.  A traced run alternates untraced and traced chunks of
/// equal length (U T U T), switching span recording at each boundary, so
/// the tracing overhead is measured on the same rig at the same time.
class Phase {
 public:
  static constexpr int kTracedRunChunks = 4;

  Phase(double seconds, bool tracedRun);

  double elapsed() const;
  bool over() const { return elapsed() >= seconds_; }
  bool traced() const { return tracedRun_; }

  /// True when the chunk containing `atSeconds` records spans.
  bool tracedAt(double atSeconds) const;

  /// Seconds of the phase spent in traced (or untraced) chunks.
  double secondsIn(bool traced) const;

  /// Blocks until the phase is over, switching span recording at every
  /// chunk boundary.  Leaves recording off.
  void run() const;

 private:
  double seconds_;
  bool tracedRun_;
  std::int64_t startNs_;
};

/// Every counter source of a rig, read at one instant.
struct Counters {
  dapple::obs::MetricsSnapshot metrics;      ///< Dapplet + network metrics
  dapple::ReliableEndpoint::Stats reliable;  ///< summed over the dapplets
  dapple::Reactor::Stats reactor;            ///< zero without a reactor
  ProcStat proc;
};

Counters snapshotCounters(const std::vector<dapple::Dapplet*>& dapplets,
                          const dapple::obs::MetricsSnapshot& network,
                          const dapple::Reactor* reactor);

/// Inputs of the per-layer metrics every workload reports.
struct LayerInputs {
  Counters before, after;   ///< around the measured phase
  double wallSeconds = 0;   ///< measured phase length
  std::uint64_t ops = 0;    ///< operations completed in the phase
  std::string opName;       ///< what one operation is, for the bases
  std::uint64_t threads = 0;  ///< OS threads during the phase
  double encodeNs = 0, decodeNs = 0;
  std::vector<double> hopUs;  ///< send call -> receiving code starts
  double traceOverheadPct = 0;
};

void reportLayers(Report& report, const LayerInputs& in);

/// Median per-message cost, in ns, of encodeMessage and decodeMessage over
/// `sample` under `codec` (timed in batches of the whole sample).
struct SerialCost {
  double encodeNs = 0;
  double decodeNs = 0;
};
SerialCost serialCost(const std::vector<const dapple::Message*>& sample,
                      dapple::WireCodec codec);

/// Rig builds per run; setup_s is their median.
constexpr int kSetups = 9;

/// Builds a rig kSetups times with `build` (which must leave the rig ready
/// for the measured phase), tearing down all but the last with `teardown`;
/// returns the median build time in seconds.
double medianSetupSeconds(const std::function<void()>& build,
                          const std::function<void()>& teardown);

/// Run context every workload records.
void reportContext(Report& report, const Options& options,
                   const std::string& codec, const std::string& transport);

/// Adds the end-to-end metrics, which every workload reports under the same
/// names: setup_s, op_p50_us, op_p99_us and ops_per_s.
void reportEndToEnd(Report& report, double setupSeconds, double p50Us,
                    double p99Us, double opsPerSecond);

/// One completed operation of a closed-loop workload.
struct Completion {
  double latencyUs;  ///< virtual
  bool traced;       ///< issued in a traced chunk of a traced run
};

/// The end-to-end metrics of a closed-loop workload: p50 and p99 over every
/// untraced completion and `opsPerVirtualSecond`, also printed under the
/// workload's own names `<prefix>_p50_us`, `<prefix>_p99_us` and
/// `<prefix>_<rateName>`.  Returns the tracing overhead of a traced run (0
/// for an untraced one).
double reportClosedLoop(Report& report, const Phase& phase,
                        double setupSeconds,
                        const std::vector<Completion>& completions,
                        double opsPerVirtualSecond, const std::string& prefix,
                        const std::string& rateName);

/// Untraced-vs-traced comparison of a traced run on operations per wall
/// second (virtual-time latencies cannot show tracing cost); prints both
/// rates and returns the overhead in percent.
double reportTraceOverhead(Report& report, const std::string& rateName,
                           double untracedRate, double tracedRate);

/// Durations of every span named `name`, in microseconds of its clock.
std::vector<double> spanDurationsUs(const std::vector<Span>& spans,
                                    std::uint32_t name);

/// Ends a traced run: summarizes and (optionally) writes its spans.
void finishSpans(Report& report, const Options& options,
                 const std::vector<Span>& all, const std::string& clock);

/// A seeded pool of `count` byte strings of length `bytes`.
std::vector<std::string> payloadPool(std::uint64_t seed, std::size_t count,
                                     std::size_t bytes);

}  // namespace perfbench
