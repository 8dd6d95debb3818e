#pragma once
/// \file liveness.hpp
/// \brief Heartbeat-based crash-stop failure detection.
///
/// The paper's §2.2 requires dapplets to cope with "faults in the network
/// such as undelivered messages"; a process that dies mid-session is the
/// limiting case — permanent silence.  This service turns that silence into
/// an explicit, timely event: each `LivenessMonitor` sends small heartbeat
/// messages to every watched peer and suspects a peer that has been silent
/// for longer than the configured suspect timeout.  The session layer
/// consumes suspicion through the core `PeerMonitor` interface to evict dead
/// members (see session self-healing in DESIGN.md "Failure model").
///
/// Detector class: eventually-perfect in the crash-stop model with fair-lossy
/// links — a crashed peer is eventually suspected (completeness) and a
/// suspected-but-alive peer is un-suspected as soon as one of its heartbeats
/// gets through (accuracy is only eventual: timing faults can cause false
/// suspicion, which callers must treat as eviction, i.e. crash-stop).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dapple/core/dapplet.hpp"
#include "dapple/core/peer_monitor.hpp"

namespace dapple {

/// Detector tuning.  Zero durations inherit the owning dapplet's
/// `DappletConfig::liveness.heartbeatInterval` / `liveness.suspectTimeout`.
struct LivenessConfig {
  Duration heartbeatInterval = Duration::zero();
  Duration suspectTimeout = Duration::zero();
};

/// Heartbeat failure detector for one dapplet.  Thread-safe.  Create one per
/// dapplet and share it among sessions: watches are keyed by caller-chosen
/// strings, so independent components can watch the same peer.
class LivenessMonitor final : public PeerMonitor {
 public:
  /// Creates the detector inbox ("live.ctl") and starts beating: a beat on
  /// the dapplet's timer wheel plus an `Inbox::onMessage` handler for
  /// arriving heartbeats — no thread of its own.
  explicit LivenessMonitor(Dapplet& dapplet, LivenessConfig config = {});
  ~LivenessMonitor() override;

  LivenessMonitor(const LivenessMonitor&) = delete;
  LivenessMonitor& operator=(const LivenessMonitor&) = delete;

  // --- PeerMonitor ---------------------------------------------------------

  InboxRef ref() const override;
  void watch(const std::string& key, const InboxRef& peer) override;
  void unwatch(const std::string& key) override;
  void onSuspect(PeerFn fn) override;
  void onAlive(PeerFn fn) override;

  // --- introspection -------------------------------------------------------

  /// True while `key` is watched and currently suspected.
  bool suspected(const std::string& key) const;

  /// Keys of all watched peers.
  std::vector<std::string> watchedKeys() const;

  /// Effective (post-inheritance) tuning.
  Duration heartbeatInterval() const;
  Duration suspectTimeout() const;

  struct Stats {
    std::uint64_t heartbeatsSent = 0;
    std::uint64_t heartbeatsReceived = 0;
    std::uint64_t suspectEvents = 0;   ///< transitions into suspicion
    std::uint64_t recoveryEvents = 0;  ///< suspected peers proved alive
  };
  Stats stats() const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace dapple
