#pragma once
/// \file reliable.hpp
/// \brief Reliable, ordered message streams over an unreliable datagram
/// transport.
///
/// Paper §3.2: *"The initial implementation uses UDP, and it includes a
/// layer to ensure that messages are delivered in the order they were
/// sent"* and *"if a message is not delivered within a specified time an
/// exception is raised."*  This module is that layer.
///
/// Each (destination node, stream id) pair is an independent FIFO stream:
/// the sender numbers frames, retransmits unacknowledged frames on a timer,
/// and reports a delivery failure when a frame stays unacknowledged past
/// `deliveryTimeout`.  The receiver acknowledges cumulatively (plus a
/// selective-ack list), buffers out-of-order frames, drops duplicates, and
/// delivers payloads strictly in send order.
///
/// The core layer maps each channel (outbox -> inbox) onto one stream, which
/// yields exactly the paper's channel semantics: FIFO per channel, arbitrary
/// relative order across channels.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dapple/net/transport.hpp"
#include "dapple/obs/metrics.hpp"
#include "dapple/serial/payload.hpp"
#include "dapple/serial/wire.hpp"
#include "dapple/util/time.hpp"

namespace dapple {

/// Tuning knobs for the ordering layer.
///
/// The sender is adaptive (DESIGN.md §11): the retransmission timeout is
/// estimated per peer (Jacobson SRTT/RTTVAR, Karn's rule) and each stream
/// runs a slow-start + AIMD congestion window: a loss halves it, once per
/// flight, and a timer expiry with no ack for the stream since the lost
/// frame was last sent restarts it at one frame.  The *fixed-RTO,
/// unwindowed* behaviour of the original layer is still expressible through
/// this struct — pin `minRto == rto == maxRto` and raise
/// `initialCwnd`/`maxCwnd` so far past the offered load that halving never
/// brings the window down to it — which is exactly how `bench_transport`
/// reproduces the old sender as its baseline (a dark path still collapses
/// it to one frame).
struct ReliableConfig {
  /// Period of the retransmission scan: how often the endpoint's owner
  /// calls `ReliableEndpoint::tick()`.
  Duration tickInterval = milliseconds(5);
  /// Initial retransmission timeout, used for a peer until the first RTT
  /// sample lands.  After that the RTO is srtt + 4*rttvar, clamped to
  /// [minRto, maxRto].
  Duration rto = milliseconds(40);
  /// A frame unacknowledged for this long after admission fails the stream
  /// ("the specified time" of the paper's delivery exception).  Frames
  /// still queued behind the congestion window count too: admission starts
  /// the delivery clock, not the first wire transmission.
  Duration deliveryTimeout = seconds(5);
  /// RTO floor.  Must stay comfortably above the receiver's worst-case ack
  /// deferral (ackDelay + tickInterval) or delayed acks masquerade as
  /// losses; `normalized()` enforces that.
  Duration minRto = milliseconds(15);
  /// Exponential per-frame backoff cap (RTO, 2*RTO, ... up to this).
  Duration maxRto = milliseconds(500);
  /// Congestion window at stream creation and after resetStream, in frames.
  /// Ten is the initial window of current TCP stacks (RFC 6928): a fresh
  /// channel's first round trip carries a 5 ms stream over a 50 ms path.
  std::uint32_t initialCwnd = 10;
  /// Congestion window ceiling, in frames.
  std::uint32_t maxCwnd = 256;
  /// Duplicate-SACK evidence threshold for fast retransmit: a pending frame
  /// that stays unacked while this many later ack blocks cover higher
  /// sequence numbers is retransmitted immediately instead of waiting out
  /// its timer.  Set very high (e.g. UINT32_MAX) to disable.
  std::uint32_t fastRetransmitDups = 3;
  /// Acks are coalesced: one cumulative+SACK block per receive stream is
  /// emitted after this many frame arrivals fold into it.
  std::uint32_t ackEvery = 8;
  /// A pending ack older than this is flushed by the next timer tick, so
  /// the worst-case ack delay is ackDelay + tickInterval.  `normalized()`
  /// keeps that sum under half the (initial and minimum) rto so a deferred
  /// SACK still reaches the sender before its retransmission fires.
  Duration ackDelay = milliseconds(2);
  /// When true, pending ack blocks ride inside outgoing DATA frames to the
  /// same peer instead of costing their own datagram.  Off makes every
  /// DATA frame's bytes independent of ack timing (deterministic replay
  /// under content-hashed link randomness — the scenario fuzzer disables
  /// piggybacking for exactly that reason).
  bool ackPiggyback = true;
  /// Wire codec for outgoing frames (DATA heads and ACKs).  Incoming frames
  /// are always auto-detected from the per-frame preamble byte, so peers
  /// configured differently interoperate; text stays the default for
  /// cross-version compat and human-readable captures.
  WireCodec codec = WireCodec::kText;

  /// Returns a copy with inconsistent knob combinations clamped to safe
  /// values.  Each adjustment appends one human-readable line to `notes`
  /// (when given); `ReliableEndpoint` runs this at construction and emits
  /// every note as a `reliable`/`config.clamp` trace event, so a
  /// misconfiguration that used to cause silent spurious-retransmit storms
  /// now shows up in the trace ring instead.
  ReliableConfig normalized(std::vector<std::string>* notes = nullptr) const;
};

/// One destination of a fan-out send: the target node plus the
/// per-destination prefix of the application payload.  The shared body
/// passed to `sendMany` follows the head on the wire; the pair is stored
/// un-assembled so retransmit state shares the body allocation.
struct OutSend {
  NodeAddress dst;
  std::string head;
};

/// Reliable/ordered façade over one raw `Endpoint`.  All members are
/// thread-safe.
class ReliableEndpoint {
 public:
  /// In-order delivery callback: (source node, stream id, payload).
  /// Invoked on transport threads; must not block for long.  The payload
  /// view is valid only for the duration of the call: in-order frames are
  /// delivered as views straight into the transport's receive buffer
  /// (zero-copy); only frames that had to be buffered out of order were
  /// copied once.
  using DeliverFn = std::function<void(const NodeAddress& src,
                                       std::uint64_t streamId,
                                       std::string_view payload)>;

  /// Invoked once when a stream exceeds its delivery timeout.  After the
  /// callback the stream is marked failed and subsequent send() calls on it
  /// throw DeliveryError until resetStream().
  using FailFn = std::function<void(const NodeAddress& dst,
                                    std::uint64_t streamId,
                                    const std::string& reason)>;

  /// `metrics`, when given, must outlive this endpoint; the layer records
  /// `reliable.*` counters/histograms (ack latency, reorder depth) and
  /// `reliable` trace events into it.  Null disables instrumentation.
  /// `clock` gives every timestamp and flush wait (null selects
  /// `ClockSource::system()`); must outlive this endpoint, and whatever
  /// calls `tick()` should run on the same clock.
  explicit ReliableEndpoint(std::shared_ptr<Endpoint> raw,
                            ReliableConfig config = {},
                            obs::MetricsRegistry* metrics = nullptr,
                            ClockSource* clock = nullptr);
  ~ReliableEndpoint();

  ReliableEndpoint(const ReliableEndpoint&) = delete;
  ReliableEndpoint& operator=(const ReliableEndpoint&) = delete;

  NodeAddress address() const;

  void setDeliver(DeliverFn fn);
  void setOnFailure(FailFn fn);

  /// Single-destination convenience: a one-element sendMany (same batched
  /// surface underneath — one transport submit, shared accounting).  Queues
  /// `payload` on stream (`dst`, `streamId`) and transmits it.  Returns the
  /// frame's sequence number.  Throws DeliveryError if the stream has
  /// already failed.
  std::uint64_t send(const NodeAddress& dst, std::uint64_t streamId,
                     std::string payload);

  /// Fan-out send: queues `sends[i].head + body` on stream
  /// (`sends[i].dst`, `streamId`) for every destination.  The body is the
  /// refcounted shared buffer — it is encoded once by the caller, shared by
  /// every destination's retransmit state, and its bytes are copied exactly
  /// once per wire transmission (at frame-assembly time).  All first
  /// transmissions go out as one `Endpoint::sendBatch` submit.  Returns the
  /// per-destination sequence numbers.  Admission is all-or-nothing: if any
  /// target stream has already failed, or any head+body cannot fit the
  /// transport's datagram limit (`Endpoint::maxDatagramSize` — such a frame
  /// is undeliverable by construction and would only surface as a delivery
  /// timeout), throws DeliveryError and queues nothing.
  std::vector<std::uint64_t> sendMany(std::vector<OutSend> sends,
                                      std::uint64_t streamId, Payload body);

  /// Outcome of a `flushEx` wait.
  enum class FlushOutcome {
    kFlushed,   ///< every queued frame on every stream was acknowledged
    kFailed,    ///< nothing left in flight, but >=1 stream failed (its
                ///< pending frames were discarded, not delivered)
    kTimedOut,  ///< frames still unacknowledged when `timeout` elapsed
  };

  /// Blocks until no frame is left in flight or queued on any stream, or
  /// `timeout` elapses.  Distinguishes "drained because everything was
  /// acknowledged" (kFlushed) from "drained because a stream failed and
  /// dropped its frames" (kFailed — sticky until `resetStream` clears the
  /// failed streams).
  FlushOutcome flushEx(Duration timeout);

  /// Blocks until every queued frame on every stream has been acknowledged
  /// or discarded by a stream failure, or `timeout` elapses.  Returns true
  /// when nothing is left in flight.  NOTE: a failed stream counts as
  /// drained — its frames were dropped, not delivered — so `true` does NOT
  /// certify delivery; use `flushEx` to tell the two apart.
  bool flush(Duration timeout);

  /// Clears the failed flag and pending frames of a stream so it can be
  /// used again (e.g. after a partition heals).
  void resetStream(const NodeAddress& dst, std::uint64_t streamId);

  /// One retransmission-scan pass: RTO/fast-retransmit checks, delivery
  /// timeouts, delayed-ack flush.  The endpoint starts no thread or timer
  /// of its own: its owner calls this every `tickInterval` (a dapplet from
  /// its reactor's timer wheel).  Safe from any thread; a no-op after
  /// close().
  void tick();

  /// Closes the raw endpoint: later sends throw ShutdownError and later
  /// ticks do nothing.
  void close();

  struct Stats {
    std::uint64_t dataSent = 0;        ///< first transmissions
    std::uint64_t retransmits = 0;     ///< resends (timer-driven + fast)
    /// Resends triggered by duplicate-SACK evidence before the timer fired.
    std::uint64_t fastRetransmits = 0;
    /// RTT samples folded into a peer's SRTT/RTTVAR estimate (Karn's rule:
    /// retransmitted frames never sample).
    std::uint64_t rttSamples = 0;
    /// Frames admitted but parked behind the congestion window instead of
    /// transmitted immediately.
    std::uint64_t windowDeferred = 0;
    /// Multiplicative window decreases (at most one per flight).
    std::uint64_t windowCuts = 0;
    /// The cuts that restarted the window at one frame: a timer expiry with
    /// no ack for the stream since the lost frame was last transmitted.
    std::uint64_t windowCollapses = 0;
    /// Payload bytes of first transmissions / of resends / handed to the
    /// DeliverFn.  retransmitBytes / dataBytes is the retransmit-efficiency
    /// ratio the fuzz oracle and bench_transport bound.
    std::uint64_t dataBytes = 0;
    std::uint64_t retransmitBytes = 0;
    std::uint64_t deliveredBytes = 0;
    std::uint64_t delivered = 0;       ///< payloads handed to DeliverFn
    std::uint64_t duplicates = 0;      ///< received frames dropped as dups
    /// Ack block emissions — one per receive stream per flush, whether the
    /// block rode in a standalone ACK datagram or piggybacked on DATA.
    std::uint64_t acksSent = 0;
    /// Standalone ACK datagrams (the denominator the ack-coalescing bench
    /// compares against delivered frames).
    std::uint64_t ackFramesSent = 0;
    /// Frame arrivals folded into an already-pending ack block; each one is
    /// an ack datagram the pre-coalescing design would have sent.
    std::uint64_t acksCoalesced = 0;
    /// Duplicate DATA frames whose re-ack was deferred to the coalesced
    /// flush instead of answered with an immediate datagram (the ack-storm
    /// fix: a burst of dups used to cost one ack datagram each).
    std::uint64_t dupAcksSuppressed = 0;
    /// Payload byte materializations: one per frame assembled onto the wire
    /// (send + retransmit) plus one per frame buffered out of order on
    /// receive.  The zero-copy invariant is copies ~= wire transmissions,
    /// independent of fan-out width.
    std::uint64_t payloadCopies = 0;
    std::uint64_t outOfOrderBuffered = 0;
    std::uint64_t failures = 0;        ///< streams declared failed
  };
  Stats stats() const;

  /// Point-in-time view of one peer's RTT estimator (tests/debugging).
  struct PeerProbe {
    bool hasRtt = false;  ///< at least one clean (Karn-valid) sample landed
    Duration srtt{};
    Duration rttvar{};
    Duration rto{};  ///< current effective RTO (initial rto until hasRtt)
  };
  PeerProbe probePeer(const NodeAddress& peer) const;

  /// Point-in-time view of one send stream's window (tests/debugging).
  struct StreamProbe {
    bool exists = false;
    bool failed = false;
    double cwnd = 0;          ///< congestion window, frames
    std::uint64_t ssthresh = 0;
    std::size_t inFlight = 0;  ///< transmitted, unacked
    std::size_t queued = 0;    ///< admitted, waiting for window space
  };
  StreamProbe probeStream(const NodeAddress& dst, std::uint64_t streamId) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dapple
