#pragma once
/// \file snapshot.hpp
/// \brief Global checkpointing services (paper §4.2 "Clocks").
///
/// Two algorithms are provided:
///
///  1. `CheckpointService` — the paper's own method: *"a global state can
///     be easily checkpointed: all processes checkpoint their local states
///     at some predetermined time T, and the states of the channels are the
///     sequences of messages sent on the channels before T and received
///     after T."*  The built-in Lamport clocks satisfy the global snapshot
///     criterion, so a coordinator picks a logical time T beyond every
///     member's clock, members record local state when their clock passes T
///     (forced by a local jump event), and the delivery tap records each
///     arriving message with send-timestamp < T as channel state.
///
///  2. `MarkerRegion` — a Chandy–Lamport marker snapshot [Chandy & Lamport
///     1985, the paper's reference 3] over an explicitly registered set of
///     channels, used as an independent cross-check of (1) and as the
///     subject of an ablation benchmark.
///
/// Both produce a `GlobalSnapshot` (per-member local states plus per-channel
/// in-flight messages) on the coordinator.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dapple/core/dapplet.hpp"
#include "dapple/serial/value.hpp"

namespace dapple {

/// A consistent global state assembled by the coordinator.
struct GlobalSnapshot {
  std::uint64_t at = 0;  ///< logical time T (clock-based) or snapshot serial
  /// member index -> recorded local state.
  std::map<std::size_t, Value> states;
  /// member index (receiver) -> messages found in its incoming channels.
  std::map<std::size_t, std::vector<Value>> channels;

  /// Wire serialization, so checkpoints can be persisted and restored —
  /// the recovery use the paper motivates checkpointing with (§4.2).
  Value toValue() const;
  static GlobalSnapshot fromValue(const Value& value);

  /// File persistence (write-then-rename, like StateStore).
  void saveTo(const std::string& path) const;
  static GlobalSnapshot loadFrom(const std::string& path);
};

/// The paper's clock-based checkpoint.  One instance per member; the
/// coordinator (any member) calls `take()`.
///
/// The service installs the dapplet's delivery tap.  `stateFn` must return
/// the member's current local state and is invoked from the service's
/// handler on a reactor loop; it must be internally synchronized with the
/// application's own updates.
class CheckpointService {
 public:
  using StateFn = std::function<Value()>;

  CheckpointService(Dapplet& dapplet, StateFn stateFn);
  ~CheckpointService();

  CheckpointService(const CheckpointService&) = delete;
  CheckpointService& operator=(const CheckpointService&) = delete;

  /// This member's checkpoint-control inbox.
  InboxRef ref() const;

  /// Wires the member into the checkpoint group.
  void attach(const std::vector<InboxRef>& members, std::size_t selfIndex);

  /// Coordinator entry point.  Picks T = (max clock over members) + margin,
  /// broadcasts it, waits `settle` for in-flight pre-T messages to drain
  /// into the members' channel recordings, then gathers the reports.
  GlobalSnapshot take(Duration settle = milliseconds(200),
                      Duration timeout = seconds(10));

  /// Local persistence hook for crash recovery (DESIGN.md §12): invoked on
  /// this member right after it records its local state for a cut at
  /// logical time `at` — `recovery::bindCheckpoint` uses it to compact the
  /// member's WAL into a durable checkpoint stamped `at`, so a coordinated
  /// take() leaves a consistent recovery line on disk.  The hook runs in
  /// the service's handler on a reactor loop, outside its internal lock.
  void onLocalCheckpoint(std::function<void(std::uint64_t at)> hook);

  struct Stats {
    std::uint64_t checkpointsTaken = 0;
    std::uint64_t channelMessagesRecorded = 0;
  };
  Stats stats() const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Chandy–Lamport marker snapshot over an explicit channel topology.
///
/// Each member registers (a) the outboxes it sends application messages
/// through — markers are emitted on exactly these — and (b) the number of
/// incoming channels it expects markers on.  The snapshot completes at a
/// member when markers have arrived on all incoming channels.
class MarkerRegion {
 public:
  using StateFn = std::function<Value()>;

  MarkerRegion(Dapplet& dapplet, StateFn stateFn);
  ~MarkerRegion();

  MarkerRegion(const MarkerRegion&) = delete;
  MarkerRegion& operator=(const MarkerRegion&) = delete;

  /// This member's snapshot-control inbox.
  InboxRef ref() const;

  /// Wires the member: peer control refs, this member's index, the
  /// application outboxes markers must follow, and the number of incoming
  /// application channels.
  void attach(const std::vector<InboxRef>& members, std::size_t selfIndex,
              std::vector<Outbox*> appOutboxes, std::size_t inChannels);

  /// Coordinator entry point: runs one marker snapshot and gathers reports.
  GlobalSnapshot take(Duration timeout = seconds(10));

  struct Stats {
    std::uint64_t markersSent = 0;
    std::uint64_t markersReceived = 0;
    std::uint64_t channelMessagesRecorded = 0;
  };
  Stats stats() const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Marker message used by MarkerRegion; public so taps and tests can
/// recognize it.
class MarkerMsg : public MessageBase<MarkerMsg> {
 public:
  static constexpr std::string_view kTypeName = "dapple.snapshot.Marker";
  std::uint64_t snapshotId = 0;
  std::uint64_t coordinator = 0;  ///< member index reports go to

  void encodeFields(WireWriter& w) const override {
    w.writeU64(snapshotId);
    w.writeU64(coordinator);
  }
  void decodeFields(WireReader& r) override {
    snapshotId = r.readU64();
    coordinator = r.readU64();
  }
};

}  // namespace dapple
