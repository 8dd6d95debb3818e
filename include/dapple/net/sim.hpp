#pragma once
/// \file sim.hpp
/// \brief In-process simulated datagram network.
///
/// This is the substitute for the paper's world-wide Internet testbed
/// (Caltech / Rice / Tennessee): a datagram fabric whose links have
/// configurable one-way delay, uniform jitter, loss probability and
/// duplication probability, all driven by a seeded deterministic RNG.  It
/// exhibits exactly the behaviours the paper requires the upper layers to
/// tolerate (§2.2 "Coping with a Varied Network Environment", §3.2
/// "Message delays in channels are arbitrary ... the delay is independent of
/// the delay experienced by other messages"):
///
///  * arbitrary, independent per-message delays (reordering emerges from
///    jitter),
///  * undelivered messages (loss, partitions),
///  * duplicated messages.
///
/// Hosts are small integer ids; use `openAt(host, port)` to place several
/// endpoints on one simulated machine and `setHostLink` to model WAN delays
/// between sites.

#include <cstdint>
#include <memory>

#include "dapple/net/transport.hpp"
#include "dapple/obs/metrics.hpp"
#include "dapple/util/time.hpp"

namespace dapple {

/// Per-link behaviour.  Effective one-way delay of a datagram is
/// `delay + U[0, jitter)`, scaled by the network's time scale.
struct LinkParams {
  microseconds delay{0};
  microseconds jitter{0};
  double lossProb = 0.0;
  double dupProb = 0.0;
};

/// Deterministic simulated datagram network.  All members are thread-safe.
class SimNetwork : public Network {
 public:
  struct Options {
    /// Multiplies all link delays (e.g. 0.01 runs a "50 ms WAN" scenario
    /// 100x faster in real time; irrelevant under a virtual clock).
    double timeScale = 1.0;
    /// Time source for datagram due-times and the delivery thread's waits.
    /// Null selects `ClockSource::system()`; inject a
    /// `testkit::VirtualClock` for zero-wall-clock-sleep delivery.
    ClockSource* clock = nullptr;
    /// Schedule-independent stochastic decisions: loss/duplication/jitter
    /// for a datagram are drawn from a hash of (seed, src, dst, payload,
    /// retransmission ordinal) instead of a shared sequential RNG.  Two runs
    /// then make identical per-datagram decisions even when unrelated
    /// traffic interleaves differently — the property the scenario fuzzer's
    /// byte-identical replay digest rests on.
    bool hashedLinkRandomness = false;
  };

  /// `seed` drives every stochastic decision; `timeScale` multiplies all
  /// link delays (use e.g. 0.01 to run a "50 ms WAN" scenario 100x faster).
  explicit SimNetwork(std::uint64_t seed = 1, double timeScale = 1.0);

  SimNetwork(std::uint64_t seed, const Options& options);
  ~SimNetwork() override;

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Opens an endpoint on host 1.
  std::shared_ptr<Endpoint> open(std::uint16_t port = 0) override;

  /// Opens an endpoint on a specific simulated host.
  std::shared_ptr<Endpoint> openAt(std::uint32_t host,
                                   std::uint16_t port = 0) override;

  /// Link parameters applied when no more specific entry exists.
  void setDefaultLink(const LinkParams& params);

  /// Directional host-pair override (src host -> dst host).
  void setHostLink(std::uint32_t srcHost, std::uint32_t dstHost,
                   const LinkParams& params);

  /// Symmetric convenience: sets both directions.
  void setHostLinkBetween(std::uint32_t hostA, std::uint32_t hostB,
                          const LinkParams& params);

  /// Cuts (or heals) all traffic between two hosts.  Datagrams sent while
  /// partitioned are silently dropped — the "network fault" of §2.2.
  void setPartition(std::uint32_t hostA, std::uint32_t hostB,
                    bool partitioned);

  /// Crash-stop injection: abruptly closes the endpoint bound at `addr`
  /// (as if its process died — no FIN, no handshake; subsequent datagrams
  /// to it count as undeliverable).  Returns true when an endpoint was
  /// killed, false when the address was not bound.
  bool kill(const NodeAddress& addr);

  /// Kills every endpoint on a simulated host — whole-machine failure.
  /// Returns the number of endpoints killed.
  std::size_t killHost(std::uint32_t host);

  /// Traffic counters (cumulative since construction).
  struct Stats {
    std::uint64_t sent = 0;        ///< datagrams handed to the network
    std::uint64_t delivered = 0;   ///< handler invocations
    std::uint64_t dropped = 0;     ///< lost to lossProb or partitions
    std::uint64_t duplicated = 0;  ///< extra copies injected
    std::uint64_t undeliverable = 0;  ///< destination endpoint absent
  };
  Stats stats() const;

  /// stats() as a mergeable snapshot (`sim.*` counters), so a test or bench
  /// can fold the fabric's view into a dapplet's metrics() dump.  Once the
  /// network is quiescent the counters satisfy
  /// `delivered + undeliverable == sent - dropped + duplicated`.
  obs::MetricsSnapshot metrics() const;

  /// Number of datagrams currently queued for future delivery.
  std::size_t inFlight() const;

  /// Blocks until the network has no queued datagrams and no handler of a
  /// delivered batch still running, or `timeout` elapses; returns true when
  /// quiescent.  Useful for draining tests.
  bool awaitQuiescent(Duration timeout);

 private:
  class EndpointImpl;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dapple
