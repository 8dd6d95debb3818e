#include "dapple/reliable/reliable.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dapple/serial/wire.hpp"
#include "dapple/util/error.hpp"
#include "dapple/util/log.hpp"

namespace dapple {

namespace {

constexpr const char* kLog = "reliable";
constexpr std::uint64_t kKindData = 0;
constexpr std::uint64_t kKindAck = 1;
constexpr std::size_t kMaxSack = 32;

std::int64_t toMicros(Duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

/// Key of a stream as seen from this endpoint: peer node + stream id.
struct StreamKey {
  NodeAddress peer;
  std::uint64_t streamId;
  friend bool operator==(const StreamKey&, const StreamKey&) = default;
};

struct StreamKeyHash {
  std::size_t operator()(const StreamKey& k) const noexcept {
    return std::hash<NodeAddress>{}(k.peer) ^
           std::hash<std::uint64_t>{}(k.streamId * 0x9e3779b97f4a7c15ull);
  }
};

/// One receive stream's acknowledgement: the receiver's nextExpected
/// (cumulative) plus up to kMaxSack out-of-order sequence numbers.  ACK
/// datagrams and DATA piggyback slots carry a *list* of blocks so a single
/// datagram acknowledges every stream owed to that peer at once.
struct AckBlock {
  std::uint64_t streamId = 0;
  std::uint64_t epoch = 0;
  std::uint64_t cumAck = 0;
  std::vector<std::uint64_t> sacks;
};

void writeAckBlocks(WireWriter& w, const std::vector<AckBlock>& blocks) {
  w.beginList(blocks.size());
  for (const AckBlock& b : blocks) {
    w.writeU64(b.streamId);
    w.writeU64(b.epoch);
    w.writeU64(b.cumAck);
    w.beginList(b.sacks.size());
    for (std::uint64_t s : b.sacks) w.writeU64(s);
  }
}

std::vector<AckBlock> readAckBlocks(WireReader& r) {
  const std::size_t n = r.beginList();
  std::vector<AckBlock> blocks;
  blocks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    AckBlock b;
    b.streamId = r.readU64();
    b.epoch = r.readU64();
    b.cumAck = r.readU64();
    const std::size_t k = r.beginList();
    b.sacks.reserve(k);
    for (std::size_t j = 0; j < k; ++j) b.sacks.push_back(r.readU64());
    blocks.push_back(std::move(b));
  }
  return blocks;
}

std::string encodeAck(WireCodec codec, const std::vector<AckBlock>& blocks) {
  WireWriter w(codec);
  w.writeU64(kKindAck);
  writeAckBlocks(w, blocks);
  return std::move(w).str();
}

}  // namespace

ReliableConfig ReliableConfig::normalized(
    std::vector<std::string>* notes) const {
  ReliableConfig out = *this;
  const auto note = [&](std::string s) {
    if (notes != nullptr) notes->push_back(std::move(s));
  };
  if (out.tickInterval <= Duration::zero()) {
    out.tickInterval = milliseconds(1);
    note("tickInterval <= 0; raised to 1ms");
  }
  if (out.ackEvery == 0) {
    out.ackEvery = 1;
    note("ackEvery == 0; raised to 1");
  }
  if (out.initialCwnd == 0) {
    out.initialCwnd = 1;
    note("initialCwnd == 0; raised to 1");
  }
  if (out.maxCwnd < out.initialCwnd) {
    out.maxCwnd = out.initialCwnd;
    note("maxCwnd below initialCwnd; raised to initialCwnd");
  }
  if (out.fastRetransmitDups == 0) {
    out.fastRetransmitDups = 1;
    note("fastRetransmitDups == 0; raised to 1");
  }
  if (out.ackDelay < Duration::zero()) {
    out.ackDelay = Duration::zero();
    note("ackDelay < 0; raised to 0");
  }
  // The RTO floor must clear the clock granularity, or a single tick of
  // scheduling slop reads as a loss.
  if (out.minRto < 2 * out.tickInterval) {
    out.minRto = 2 * out.tickInterval;
    note("minRto below 2*tickInterval; raised to " +
         std::to_string(toMicros(out.minRto)) + "us");
  }
  // The spurious-retransmit invariant: the receiver may defer an ack for up
  // to ackDelay + tickInterval, so every RTO the sender can ever use (the
  // initial rto and the adaptive floor minRto) must stay comfortably above
  // that deferral.  Misconfiguring this used to cause silent retransmit
  // storms; now the ackDelay is clamped and the clamp is traced.
  if (out.rto < out.minRto) {
    out.rto = out.minRto;
    note("initial rto below minRto; raised to " +
         std::to_string(toMicros(out.rto)) + "us");
  }
  if (out.maxRto < out.rto) {
    out.maxRto = out.rto;
    note("maxRto below rto; raised to " + std::to_string(toMicros(out.maxRto)) +
         "us");
  }
  if (out.ackDelay + out.tickInterval > out.minRto / 2) {
    const Duration clamped =
        std::max(Duration::zero(), out.minRto / 2 - out.tickInterval);
    note("ackDelay " + std::to_string(toMicros(out.ackDelay)) +
         "us + tickInterval " + std::to_string(toMicros(out.tickInterval)) +
         "us exceeds minRto/2; ackDelay clamped to " +
         std::to_string(toMicros(clamped)) + "us");
    out.ackDelay = clamped;
  }
  return out;
}

struct ReliableEndpoint::Impl {
  Impl(std::shared_ptr<Endpoint> rawEp, ReliableConfig config,
       obs::MetricsRegistry* metrics, ClockSource* clock)
      : raw(std::move(rawEp)),
        cfg(config.normalized(&clampNotes)),
        clk(clock != nullptr ? clock : &ClockSource::system()) {
    if (metrics != nullptr) {
      // Resolve once; recording below is wait-free.
      mDatagramsIn = &metrics->counter("net.datagrams_in");
      mDatagramsOut = &metrics->counter("net.datagrams_out");
      mBatchSize = &metrics->histogram("net.batch_size");
      mAckLatencyUs = &metrics->histogram("reliable.ack_latency_us");
      mReorderDepth = &metrics->histogram("reliable.reorder_depth");
      mSrttUs = &metrics->histogram("reliable.srtt_us");
      mCwnd = &metrics->gauge("reliable.cwnd");
      trace = &metrics->trace();
    }
    for (const std::string& n : clampNotes) {
      DAPPLE_LOG(kDebug, kLog) << "config clamped: " << n;
      if (trace != nullptr) trace->emit("reliable", "config.clamp", n);
    }
  }

  std::shared_ptr<Endpoint> raw;
  std::vector<std::string> clampNotes;  ///< normalized() adjustments (traced)
  const ReliableConfig cfg;
  ClockSource* const clk;  ///< all timestamps and flush waits

  // Optional instrumentation (null when no registry was supplied).
  obs::Counter* mDatagramsIn = nullptr;
  obs::Counter* mDatagramsOut = nullptr;
  obs::Histogram* mBatchSize = nullptr;     ///< datagrams per sendBatch submit
  obs::Histogram* mAckLatencyUs = nullptr;  ///< admission -> cum/selective ack
  obs::Histogram* mReorderDepth = nullptr;  ///< buffered frames per gap event
  obs::Histogram* mSrttUs = nullptr;        ///< smoothed RTT after each sample
  obs::Gauge* mCwnd = nullptr;              ///< last updated stream's window
  obs::TraceRing* trace = nullptr;

  mutable std::mutex mutex;
  std::condition_variable flushed;

  DeliverFn deliver;
  FailFn onFailure;

  /// Per-peer Jacobson RTT estimator (shared by every stream to that peer —
  /// the path is what has an RTT, not the stream).
  struct PeerRtt {
    bool hasSample = false;
    Duration srtt{};
    Duration rttvar{};
    /// Smallest clean sample: no ack can answer a resend sooner than about
    /// this, which is what lets an ack prove a resend spurious.
    Duration minRtt{};
    /// Karn's backoff retention: while no clean sample exists, new frames
    /// inherit the largest per-frame backoff reached so far.  Without this
    /// a path whose true RTT exceeds cfg.rto never collects a sample (every
    /// frame retransmits first, and retransmitted frames never sample), so
    /// the estimator could never bootstrap out of spurious retransmits.
    Duration noSampleRto{};
  };
  std::unordered_map<NodeAddress, PeerRtt> peerRtt;

  /// Sender-side state per outgoing stream.
  struct SendStream {
    std::uint64_t epoch = 0;  ///< bumped by resetStream(); resyncs receiver
    std::uint64_t nextSeq = 0;
    bool failed = false;
    std::string failReason;
    // ---- congestion control (slow start + AIMD, in frames) -------------
    double cwnd = 0;          ///< seeded from cfg.initialCwnd on creation
    double ssthresh = 0;      ///< slow start below, additive increase above
    std::uint64_t recoverSeq = 0;  ///< no second window cut until acks pass
    /// The last cut, kept until acks show whether the resends made since
    /// were spurious (DESIGN.md §11, "Undoing spurious cuts").
    struct CutUndo {
      bool possible = false;  ///< the cut may still be undone
      double cwnd = 0;        ///< the values the cut replaced
      double ssthresh = 0;
      std::uint64_t recoverSeq = 0;
      std::uint32_t unproven = 0;  ///< resends since, not yet acked in time
    };
    CutUndo undo;
    /// Ack clock: arrival of the last ack block for the current epoch.  A
    /// timer expiry restarts the window at one frame only when no block has
    /// arrived since the expiring frame was last transmitted.
    TimePoint lastAckAt{};
    struct Pending {
      /// Per-destination head + refcounted shared body.  Retransmit state
      /// holds a reference, not a frame copy; the wire bytes (frame header
      /// + head + body) are assembled fresh at each transmission.
      WireBuffer envelope;
      TimePoint enqueued;   ///< admission: delivery-timeout + ack-latency base
      TimePoint lastSent;   ///< last wire transmission: the RTT sample base
      TimePoint nextResend;
      Duration backoff;
      std::uint32_t dupEvidence = 0;  ///< ack blocks covering higher seqs
      bool retransmitted = false;     ///< Karn's rule: never RTT-sample
      bool undoWatch = false;  ///< first resent since the last cut
    };
    std::map<std::uint64_t, Pending> pending;  // in flight (<= window)
    /// Frames admitted beyond the window: they hold their sequence number
    /// and shared envelope but have never touched the wire.  The delivery
    /// timeout runs from admission for these too.
    struct Queued {
      std::uint64_t seq;
      WireBuffer envelope;
      TimePoint enqueued;
    };
    std::deque<Queued> sendQueue;
  };
  std::unordered_map<StreamKey, SendStream, StreamKeyHash> sendStreams;

  /// Receiver-side state per incoming stream.
  struct RecvStream {
    std::uint64_t epoch = 0;
    std::uint64_t nextExpected = 0;
    std::map<std::uint64_t, std::string> buffered;  // out-of-order frames
    // ---- coalesced-ack state ------------------------------------------
    bool ackPending = false;   ///< >=1 arrival not yet acknowledged
    TimePoint pendingSince{};  ///< when ackPending last became true
    std::uint32_t pendingFrames = 0;  ///< arrivals folded into pending ack
  };
  std::unordered_map<StreamKey, RecvStream, StreamKeyHash> recvStreams;

  /// Peers owed an acknowledgement -> their pending stream keys.  Entries
  /// can go stale (the flag cleared by a piggyback ride or an earlier
  /// flush); collectAckBlocksLocked skips those.
  std::unordered_map<NodeAddress, std::vector<StreamKey>> ackQueue;

  Stats stats;
  bool closed = false;

  // ---------------------------------------------------------------------

  bool anyPendingLocked() const {
    for (const auto& [key, ss] : sendStreams) {
      if (ss.failed) continue;
      if (!ss.pending.empty() || !ss.sendQueue.empty()) return true;
    }
    return false;
  }

  bool anyFailedLocked() const {
    for (const auto& [key, ss] : sendStreams) {
      if (ss.failed) return true;
    }
    return false;
  }

  SendStream& streamLocked(const StreamKey& key) {
    auto [it, inserted] = sendStreams.try_emplace(key);
    if (inserted) {
      it->second.cwnd = static_cast<double>(cfg.initialCwnd);
      it->second.ssthresh = static_cast<double>(cfg.maxCwnd);
    }
    return it->second;
  }

  /// Frames this stream may have in flight right now.
  std::size_t windowLocked(const SendStream& ss) const {
    const double w =
        std::clamp(ss.cwnd, 1.0, static_cast<double>(cfg.maxCwnd));
    return static_cast<std::size_t>(w);
  }

  // ---- RTT estimation (Jacobson/Karels, RFC 6298 coefficients) ----------

  Duration rtoForLocked(const NodeAddress& peer) const {
    Duration rto = cfg.rto;
    const auto it = peerRtt.find(peer);
    if (it != peerRtt.end()) {
      if (it->second.hasSample) {
        rto = it->second.srtt +
              std::max(cfg.tickInterval, 4 * it->second.rttvar);
      } else {
        rto = std::max(rto, it->second.noSampleRto);
      }
    }
    return std::clamp(rto, cfg.minRto, cfg.maxRto);
  }

  void sampleRttLocked(const NodeAddress& peer, Duration r) {
    if (r < Duration::zero()) return;
    PeerRtt& p = peerRtt[peer];
    if (!p.hasSample) {
      p.hasSample = true;
      p.srtt = r;
      p.rttvar = r / 2;
      p.minRtt = r;
    } else {
      const Duration err = r > p.srtt ? r - p.srtt : p.srtt - r;
      p.rttvar = (3 * p.rttvar + err) / 4;
      p.srtt = (7 * p.srtt + r) / 8;
      p.minRtt = std::min(p.minRtt, r);
    }
    ++stats.rttSamples;
    if (mSrttUs != nullptr) {
      mSrttUs->record(static_cast<std::uint64_t>(toMicros(p.srtt)));
    }
  }

  // ---- congestion responses ---------------------------------------------

  void ackGrowLocked(SendStream& ss, std::size_t newlyAcked) {
    for (std::size_t i = 0; i < newlyAcked; ++i) {
      if (ss.cwnd < ss.ssthresh) {
        ss.cwnd += 1.0;  // slow start: +1 per acked frame (~doubles per RTT)
      } else {
        ss.cwnd += 1.0 / ss.cwnd;  // congestion avoidance: +1 per window
      }
    }
    ss.cwnd = std::min(ss.cwnd, static_cast<double>(cfg.maxCwnd));
    if (mCwnd != nullptr) mCwnd->set(static_cast<std::int64_t>(ss.cwnd));
  }

  /// One multiplicative decrease per flight: frames below recoverSeq were in
  /// flight when the window was last cut and do not cut it again.
  void lossCutLocked(const NodeAddress& peer, SendStream& ss,
                     std::uint64_t seq, bool acksStopped) {
    if (seq < ss.recoverSeq) return;
    // Keep what the cut replaces, in case acks show its resends spurious;
    // with no clean RTT sample there is no threshold to show it by.
    const auto pr = peerRtt.find(peer);
    ss.undo = SendStream::CutUndo{
        pr != peerRtt.end() && pr->second.hasSample, ss.cwnd, ss.ssthresh,
        ss.recoverSeq, 0};
    for (auto& [pendingSeq, p] : ss.pending) p.undoWatch = false;
    ss.ssthresh = std::max(ss.cwnd / 2, 2.0);
    // No ack since the lost frame left means the pipe drained: restart from
    // one frame (RFC 5681 §3.1).  A loss found while acks still flow —
    // dup-SACK evidence or a timer behind a live ack clock — resumes at half.
    ss.cwnd = acksStopped ? 1.0 : ss.ssthresh;
    ss.recoverSeq = ss.nextSeq;
    ++stats.windowCuts;
    if (acksStopped) ++stats.windowCollapses;
    if (mCwnd != nullptr) mCwnd->set(static_cast<std::int64_t>(ss.cwnd));
  }

  /// Marks `p` sent again.  The undo of the last cut waits for every frame
  /// first resent since then; a frame sent again twice rules it out.
  void markResentLocked(SendStream& ss, SendStream::Pending& p) {
    if (p.retransmitted) {
      ss.undo.possible = false;
    } else if (ss.undo.possible) {
      p.undoWatch = true;
      ++ss.undo.unproven;
    }
    p.retransmitted = true;
  }

  /// Every resend since the last cut was acked too soon to be answering
  /// the resend: the cut answered no loss, so give back what it took.
  void undoCutLocked(const StreamKey& key, SendStream& ss) {
    ss.cwnd = std::max(ss.cwnd, ss.undo.cwnd);
    ss.ssthresh = ss.undo.ssthresh;
    ss.recoverSeq = ss.undo.recoverSeq;
    ss.undo.possible = false;
    ++stats.windowUndos;
    if (mCwnd != nullptr) mCwnd->set(static_cast<std::int64_t>(ss.cwnd));
    if (trace != nullptr) {
      trace->emit("reliable", "window.undo", key.peer.toString(),
                  static_cast<std::int64_t>(key.streamId),
                  static_cast<std::int64_t>(ss.cwnd));
    }
  }

  /// Builds one complete DATA frame: header tokens (every token up to and
  /// including the payload string header) written straight into the
  /// datagram's own string, then the envelope bytes (head + shared body)
  /// gathered after it — the single point on the transmit path where
  /// payload bytes are copied, with no intermediate head string.  Caller
  /// holds `mutex` (stats).
  std::string assembleData(std::uint64_t streamId, std::uint64_t epoch,
                           std::uint64_t seq,
                           const std::vector<AckBlock>& piggyback,
                           const WireBuffer& envelope) {
    std::string out;
    WireWriter w(cfg.codec, out);
    out.reserve(64 + envelope.size());
    w.writeU64(kKindData);
    w.writeU64(streamId);
    w.writeU64(epoch);
    w.writeU64(seq);
    writeAckBlocks(w, piggyback);
    w.beginString(envelope.size());
    envelope.appendTo(out);
    ++stats.payloadCopies;
    return out;
  }

  /// Assembles one DATA frame (collecting any piggyback acks owed to the
  /// peer) and stages it on `batch`.  Caller holds `mutex`.
  void stageDataLocked(std::vector<Datagram>& batch, const StreamKey& key,
                       const SendStream& ss, std::uint64_t seq,
                       const WireBuffer& envelope) {
    const std::vector<AckBlock> piggyback =
        cfg.ackPiggyback ? collectAckBlocksLocked(key.peer)
                         : std::vector<AckBlock>{};
    batch.push_back(Datagram{
        key.peer,
        assembleData(key.streamId, ss.epoch, seq, piggyback, envelope)});
  }

  /// Moves queued frames into flight while the window has room.  Frames
  /// already past the delivery timeout stay queued — the next tick declares
  /// the stream failed, and transmitting a doomed frame wastes wire.
  void transmitQueuedLocked(std::vector<Datagram>& batch,
                            const StreamKey& key, SendStream& ss,
                            TimePoint now) {
    const std::size_t window = windowLocked(ss);
    while (!ss.sendQueue.empty() && ss.pending.size() < window) {
      SendStream::Queued& q = ss.sendQueue.front();
      if (now - q.enqueued > cfg.deliveryTimeout) return;
      SendStream::Pending p;
      p.envelope = std::move(q.envelope);
      p.enqueued = q.enqueued;
      p.lastSent = now;
      p.backoff = rtoForLocked(key.peer);
      p.nextResend = now + p.backoff;
      stageDataLocked(batch, key, ss, q.seq, p.envelope);
      ++stats.dataSent;
      stats.dataBytes += p.envelope.size();
      ss.pending.emplace(q.seq, std::move(p));
      ss.sendQueue.pop_front();
    }
  }

  /// Emits and clears every pending ack block owed to `peer`.  Caller holds
  /// `mutex` and is responsible for putting the blocks on the wire (either
  /// a standalone ACK datagram or a DATA piggyback).
  std::vector<AckBlock> collectAckBlocksLocked(const NodeAddress& peer) {
    std::vector<AckBlock> blocks;
    const auto it = ackQueue.find(peer);
    if (it == ackQueue.end()) return blocks;
    for (const StreamKey& key : it->second) {
      const auto rit = recvStreams.find(key);
      if (rit == recvStreams.end()) continue;
      RecvStream& rs = rit->second;
      if (!rs.ackPending) continue;  // stale queue entry
      AckBlock b;
      b.streamId = key.streamId;
      b.epoch = rs.epoch;
      b.cumAck = rs.nextExpected;
      for (const auto& [bufSeq, unused] : rs.buffered) {
        b.sacks.push_back(bufSeq);
        if (b.sacks.size() >= kMaxSack) break;
      }
      ++stats.acksSent;
      if (rs.pendingFrames > 1) stats.acksCoalesced += rs.pendingFrames - 1;
      rs.ackPending = false;
      rs.pendingFrames = 0;
      blocks.push_back(std::move(b));
    }
    ackQueue.erase(it);
    return blocks;
  }

  void submitBatch(std::vector<Datagram>&& batch) {
    if (batch.empty()) return;
    if (mBatchSize != nullptr) mBatchSize->record(batch.size());
    const std::size_t n = batch.size();
    raw->sendBatch(std::move(batch));
    if (mDatagramsOut != nullptr) mDatagramsOut->inc(n);
  }

  void onDatagram(const NodeAddress& src, std::string_view payload) {
    if (mDatagramsIn != nullptr) mDatagramsIn->inc();
    WireReader r(payload);
    try {
      const std::uint64_t kind = r.readU64();
      if (kind == kKindData) {
        const std::uint64_t streamId = r.readU64();
        const std::uint64_t epoch = r.readU64();
        const std::uint64_t seq = r.readU64();
        const std::vector<AckBlock> piggyback = readAckBlocks(r);
        const std::string_view body = r.readStringView();
        if (!piggyback.empty()) onAckBlocks(src, piggyback);
        onData(src, streamId, epoch, seq, body);
      } else if (kind == kKindAck) {
        onAckBlocks(src, readAckBlocks(r));
      }
    } catch (const SerializationError& e) {
      DAPPLE_LOG(kDebug, kLog) << "malformed frame from " << src.toString()
                               << ": " << e.what();
    }
  }

  void onData(const NodeAddress& src, std::uint64_t streamId,
              std::uint64_t epoch, std::uint64_t seq, std::string_view body) {
    bool deliverHead = false;
    std::string_view headPayload;
    std::vector<std::string> drained;
    std::string ackDatagram;
    DeliverFn deliverFn;
    {
      std::scoped_lock lock(mutex);
      if (closed) return;
      const StreamKey key{src, streamId};
      RecvStream& rs = recvStreams[key];
      if (epoch > rs.epoch) {
        // The sender reset the stream (e.g. after a healed partition):
        // abandon the old epoch's reassembly state and resynchronize.
        rs = RecvStream{};
        rs.epoch = epoch;
      } else if (epoch < rs.epoch) {
        return;  // stale frame from a pre-reset retransmission
      }
      if (seq < rs.nextExpected || rs.buffered.count(seq) != 0) {
        ++stats.duplicates;
        // A duplicate means our ack was lost or is still in flight.  The
        // re-ack folds into the coalesced flush below instead of costing an
        // immediate datagram — a burst of dups used to trigger one ack
        // datagram each (an ack storm).
        ++stats.dupAcksSuppressed;
      } else if (seq == rs.nextExpected) {
        // In order: delivered as a view into the transport's receive
        // buffer, zero copies.
        deliverHead = true;
        headPayload = body;
        ++rs.nextExpected;
        stats.deliveredBytes += body.size();
        // Drain any directly following buffered frames.
        auto it = rs.buffered.begin();
        while (it != rs.buffered.end() && it->first == rs.nextExpected) {
          stats.deliveredBytes += it->second.size();
          drained.push_back(std::move(it->second));
          it = rs.buffered.erase(it);
          ++rs.nextExpected;
        }
      } else {
        // Out of order: the one place the receive path pays an owned copy
        // (the view dies with the datagram; the frame must outlive it).
        rs.buffered.emplace(seq, std::string(body));
        ++stats.payloadCopies;
        ++stats.outOfOrderBuffered;
        if (mReorderDepth != nullptr) mReorderDepth->record(rs.buffered.size());
      }
      if (!rs.ackPending) {
        rs.ackPending = true;
        rs.pendingSince = clk->now();
        ackQueue[src].push_back(key);
      }
      ++rs.pendingFrames;
      // Flush once ackEvery arrivals have coalesced; otherwise the timer
      // flushes after ackDelay, or the next outgoing DATA frame to this
      // peer piggybacks the blocks for free.  Deferral is safe for SACK
      // promptness because `ReliableConfig::normalized()` enforces
      // ackDelay + tickInterval < minRto/2: every RTO the sender's
      // estimator can produce leaves room for a deferred SACK to arrive
      // before the retransmission fires.
      if (rs.pendingFrames >= cfg.ackEvery) {
        const std::vector<AckBlock> blocks = collectAckBlocksLocked(src);
        if (!blocks.empty()) {
          ackDatagram = encodeAck(cfg.codec, blocks);
          ++stats.ackFramesSent;
        }
      }
      stats.delivered += (deliverHead ? 1 : 0) + drained.size();
      deliverFn = deliver;
    }
    if (!ackDatagram.empty()) {
      raw->send(src, std::move(ackDatagram));
      if (mDatagramsOut != nullptr) mDatagramsOut->inc();
    }
    if (deliverFn) {
      if (deliverHead) deliverFn(src, streamId, headPayload);
      for (const std::string& p : drained) deliverFn(src, streamId, p);
    }
  }

  /// Marks one pending frame acknowledged: ack-latency histogram plus the
  /// RTT sample (Karn's rule: only frames transmitted exactly once sample,
  /// so a retransmission ambiguity never poisons the estimator).  A frame
  /// resent since the last cut is evidence on that cut's undo instead.
  void ackFrameLocked(const NodeAddress& src, SendStream& ss,
                      const SendStream::Pending& p, TimePoint now) {
    if (mAckLatencyUs != nullptr) {
      mAckLatencyUs->record(
          static_cast<std::uint64_t>(toMicros(now - p.enqueued)));
    }
    if (!p.retransmitted) {
      sampleRttLocked(src, now - p.lastSent);
    } else if (p.undoWatch && ss.undo.possible) {
      // No ack can answer a resend in under half the smallest RTT this
      // path has shown, so such an ack answers the original transmission.
      if (now - p.lastSent < peerRtt[src].minRtt / 2) {
        --ss.undo.unproven;
      } else {
        ss.undo.possible = false;
      }
    }
  }

  void onAckBlocks(const NodeAddress& src,
                   const std::vector<AckBlock>& blocks) {
    std::vector<Datagram> batch;
    {
      std::scoped_lock lock(mutex);
      if (closed) return;
      bool ackedAny = false;
      const TimePoint now = clk->now();
      for (const AckBlock& b : blocks) {
        const auto it = sendStreams.find(StreamKey{src, b.streamId});
        if (it == sendStreams.end()) continue;
        SendStream& ss = it->second;
        if (b.epoch != ss.epoch) continue;  // ack for a previous epoch
        ss.lastAckAt = now;
        std::size_t newlyAcked = 0;
        // cumAck = receiver's nextExpected: everything below is delivered.
        const auto ackedEnd = ss.pending.lower_bound(b.cumAck);
        for (auto it2 = ss.pending.begin(); it2 != ackedEnd; ++it2) {
          ackFrameLocked(src, ss, it2->second, now);
          ++newlyAcked;
        }
        ss.pending.erase(ss.pending.begin(), ackedEnd);
        // Highest sequence number the receiver provably holds: dup-SACK
        // evidence for every lower frame still pending.
        std::uint64_t evidenceAbove = b.cumAck;  // exclusive bound
        for (std::uint64_t sack : b.sacks) {
          evidenceAbove = std::max(evidenceAbove, sack);
          const auto it2 = ss.pending.find(sack);
          if (it2 == ss.pending.end()) continue;
          ackFrameLocked(src, ss, it2->second, now);
          ss.pending.erase(it2);
          ++newlyAcked;
        }
        if (newlyAcked > 0) {
          ackedAny = true;
          ackGrowLocked(ss, newlyAcked);
          if (ss.undo.possible && ss.undo.unproven == 0) {
            undoCutLocked(StreamKey{src, b.streamId}, ss);
          }
        }
        // Fast retransmit: a frame the receiver is provably missing while
        // later frames keep landing is resent after fastRetransmitDups
        // blocks of evidence — recovery in ~one RTT instead of an RTO.
        if (!ss.failed && evidenceAbove > 0 &&
            cfg.fastRetransmitDups != UINT32_MAX) {
          for (auto& [seq, p] : ss.pending) {
            if (seq >= evidenceAbove) break;  // map is seq-ordered
            if (p.retransmitted) continue;    // timer or fast path already did
            if (++p.dupEvidence < cfg.fastRetransmitDups) continue;
            if (now - p.enqueued > cfg.deliveryTimeout) continue;  // doomed
            lossCutLocked(src, ss, seq, /*acksStopped=*/false);
            markResentLocked(ss, p);
            p.backoff = rtoForLocked(src);
            p.nextResend = now + p.backoff;
            p.lastSent = now;
            stageDataLocked(batch, StreamKey{src, b.streamId}, ss, seq,
                            p.envelope);
            ++stats.retransmits;
            ++stats.fastRetransmits;
            stats.retransmitBytes += p.envelope.size();
          }
        }
        // Acks freed window space: move queued frames into flight.
        transmitQueuedLocked(batch, StreamKey{src, b.streamId}, ss, now);
      }
      if (ackedAny && !anyPendingLocked()) clk->notifyAll(flushed);
    }
    submitBatch(std::move(batch));
  }

  void tick() {
    std::vector<Datagram> batch;
    std::vector<std::tuple<NodeAddress, std::uint64_t, std::string>> failures;
    FailFn failFn;
    {
      std::scoped_lock lock(mutex);
      if (closed) return;
      const TimePoint now = clk->now();
      for (auto& [key, ss] : sendStreams) {
        if (ss.failed) continue;
        // ---- phase 1: delivery-timeout verdict, in-flight AND queued ----
        // Decided for the whole stream before anything is staged, so a
        // stream failing this tick can never leak frames into the batch
        // (previously a retransmission staged earlier in the same scan
        // still hit the wire after ss.pending.clear()).
        for (const auto& [seq, pending] : ss.pending) {
          if (now - pending.enqueued > cfg.deliveryTimeout) {
            ss.failed = true;
            ss.failReason = "delivery timeout on stream " +
                            std::to_string(key.streamId) + " to " +
                            key.peer.toString() + " (seq " +
                            std::to_string(seq) + ")";
            break;
          }
        }
        if (!ss.failed) {
          for (const auto& q : ss.sendQueue) {
            if (now - q.enqueued > cfg.deliveryTimeout) {
              ss.failed = true;
              ss.failReason = "delivery timeout on stream " +
                              std::to_string(key.streamId) + " to " +
                              key.peer.toString() + " (seq " +
                              std::to_string(q.seq) + ", never transmitted: " +
                              "window closed)";
              break;
            }
          }
        }
        if (ss.failed) {
          ++stats.failures;
          failures.emplace_back(key.peer, key.streamId, ss.failReason);
          ss.pending.clear();
          ss.sendQueue.clear();
          continue;
        }
        // ---- phase 2: timer-driven retransmissions ----------------------
        for (auto& [seq, pending] : ss.pending) {
          if (now < pending.nextResend) continue;
          lossCutLocked(key.peer, ss, seq,
                        /*acksStopped=*/ss.lastAckAt <= pending.lastSent);
          markResentLocked(ss, pending);
          pending.backoff = std::min(pending.backoff * 2, cfg.maxRto);
          pending.nextResend = now + pending.backoff;
          PeerRtt& pr = peerRtt[key.peer];
          if (!pr.hasSample) {
            pr.noSampleRto = std::max(pr.noSampleRto, pending.backoff);
          }
          pending.lastSent = now;
          stageDataLocked(batch, key, ss, seq, pending.envelope);
          ++stats.retransmits;
          stats.retransmitBytes += pending.envelope.size();
        }
        // ---- phase 3: window openings (acks shrank the flight) ----------
        transmitQueuedLocked(batch, key, ss, now);
      }
      // Deferred-ack flush: every peer holding a block older than ackDelay
      // gets ONE datagram carrying all of its pending blocks.
      std::vector<NodeAddress> duePeers;
      for (const auto& [peer, keys] : ackQueue) {
        for (const StreamKey& key : keys) {
          const auto rit = recvStreams.find(key);
          if (rit == recvStreams.end()) continue;
          const RecvStream& rs = rit->second;
          if (rs.ackPending && now - rs.pendingSince >= cfg.ackDelay) {
            duePeers.push_back(peer);
            break;
          }
        }
      }
      for (const NodeAddress& peer : duePeers) {
        const std::vector<AckBlock> blocks = collectAckBlocksLocked(peer);
        if (blocks.empty()) continue;
        batch.push_back(Datagram{peer, encodeAck(cfg.codec, blocks)});
        ++stats.ackFramesSent;
      }
      if (!failures.empty() && !anyPendingLocked()) clk->notifyAll(flushed);
      failFn = onFailure;
    }
    submitBatch(std::move(batch));
    for (const auto& [dst, streamId, reason] : failures) {
      DAPPLE_LOG(kDebug, kLog) << "stream failed: " << reason;
      if (trace != nullptr) {
        trace->emit("reliable", "stream.fail", reason,
                    static_cast<std::int64_t>(streamId));
      }
      if (failFn) failFn(dst, streamId, reason);
    }
  }
};

ReliableEndpoint::ReliableEndpoint(std::shared_ptr<Endpoint> raw,
                                   ReliableConfig config,
                                   obs::MetricsRegistry* metrics,
                                   ClockSource* clock)
    : impl_(std::make_unique<Impl>(std::move(raw), config, metrics, clock)) {
  impl_->raw->setHandler(
      [impl = impl_.get()](const NodeAddress& src, std::string_view payload) {
        impl->onDatagram(src, payload);
      });
}

void ReliableEndpoint::tick() { impl_->tick(); }

ReliableEndpoint::~ReliableEndpoint() { close(); }

NodeAddress ReliableEndpoint::address() const { return impl_->raw->address(); }

void ReliableEndpoint::setDeliver(DeliverFn fn) {
  std::scoped_lock lock(impl_->mutex);
  impl_->deliver = std::move(fn);
}

void ReliableEndpoint::setOnFailure(FailFn fn) {
  std::scoped_lock lock(impl_->mutex);
  impl_->onFailure = std::move(fn);
}

std::uint64_t ReliableEndpoint::send(const NodeAddress& dst,
                                     std::uint64_t streamId,
                                     std::string payload) {
  std::vector<OutSend> one;
  one.push_back(OutSend{dst, std::move(payload)});
  return sendMany(std::move(one), streamId, Payload())[0];
}

std::vector<std::uint64_t> ReliableEndpoint::sendMany(
    std::vector<OutSend> sends, std::uint64_t streamId, Payload body) {
  std::vector<std::uint64_t> seqs;
  seqs.reserve(sends.size());
  std::vector<Datagram> batch;
  batch.reserve(sends.size());
  {
    std::scoped_lock lock(impl_->mutex);
    if (impl_->closed) throw ShutdownError("reliable endpoint closed");
    // All-or-nothing admission: probe every target stream before queueing
    // anything so a failed stream cannot leave a partial fan-out behind.
    // Oversize payloads are rejected here too: the transport counts them as
    // loss (never delivers, never throws — see Endpoint::sendBatch), so a
    // payload at or past the datagram limit would otherwise surface only as
    // an eventual delivery timeout.  The frame header only adds bytes, so
    // envelope size alone is a sufficient reject condition; payloads just
    // under the limit can still exceed it with the header attached and then
    // follow the loss path.
    const std::size_t maxDatagram = impl_->raw->maxDatagramSize();
    for (const OutSend& s : sends) {
      if (s.head.size() + body.size() >= maxDatagram) {
        throw DeliveryError(
            "payload of " + std::to_string(s.head.size() + body.size()) +
            " bytes cannot fit the transport datagram limit (" +
            std::to_string(maxDatagram) + " bytes)");
      }
      const auto it = impl_->sendStreams.find(StreamKey{s.dst, streamId});
      if (it != impl_->sendStreams.end() && it->second.failed) {
        throw DeliveryError(it->second.failReason.empty()
                                ? "stream failed"
                                : it->second.failReason);
      }
    }
    const TimePoint now = impl_->clk->now();
    for (OutSend& s : sends) {
      const StreamKey key{s.dst, streamId};
      Impl::SendStream& ss = impl_->streamLocked(key);
      const std::uint64_t seq = ss.nextSeq++;
      WireBuffer envelope(std::move(s.head), body);
      if (ss.sendQueue.empty() &&
          ss.pending.size() < impl_->windowLocked(ss)) {
        Impl::SendStream::Pending pending;
        pending.envelope = std::move(envelope);
        pending.enqueued = now;
        pending.lastSent = now;
        pending.backoff = impl_->rtoForLocked(s.dst);
        pending.nextResend = now + pending.backoff;
        impl_->stageDataLocked(batch, key, ss, seq, pending.envelope);
        ss.pending.emplace(seq, std::move(pending));
        ++impl_->stats.dataSent;
        impl_->stats.dataBytes += ss.pending.at(seq).envelope.size();
      } else {
        // Window full (or earlier frames already queued — FIFO): park the
        // frame instead of flooding the link; acks and ticks drain it.
        ss.sendQueue.push_back(
            Impl::SendStream::Queued{seq, std::move(envelope), now});
        ++impl_->stats.windowDeferred;
      }
      seqs.push_back(seq);
    }
  }
  // Transmit outside the lock: the raw endpoint has its own locking and a
  // delivery thread that re-enters this class, so holding our mutex across
  // the submit would invert the lock order.
  impl_->submitBatch(std::move(batch));
  return seqs;
}

ReliableEndpoint::FlushOutcome ReliableEndpoint::flushEx(Duration timeout) {
  std::unique_lock lock(impl_->mutex);
  const bool drained =
      impl_->clk->waitFor(lock, impl_->flushed, timeout,
                          [this] { return !impl_->anyPendingLocked(); });
  if (!drained) return FlushOutcome::kTimedOut;
  return impl_->anyFailedLocked() ? FlushOutcome::kFailed
                                  : FlushOutcome::kFlushed;
}

bool ReliableEndpoint::flush(Duration timeout) {
  // NOTE: kFailed counts as "drained" here — a failed stream discarded its
  // frames, so nothing is left in flight even though nothing was delivered.
  // Callers that must tell the difference use flushEx().
  return flushEx(timeout) != FlushOutcome::kTimedOut;
}

void ReliableEndpoint::resetStream(const NodeAddress& dst,
                                   std::uint64_t streamId) {
  std::scoped_lock lock(impl_->mutex);
  const auto it = impl_->sendStreams.find(StreamKey{dst, streamId});
  if (it != impl_->sendStreams.end()) {
    it->second.failed = false;
    it->second.failReason.clear();
    it->second.pending.clear();
    it->second.sendQueue.clear();
    // New epoch: undelivered old-epoch frames are abandoned and the
    // receiver resynchronizes from sequence 0.  The congestion window
    // restarts too — the old estimate described a path that just failed.
    ++it->second.epoch;
    it->second.nextSeq = 0;
    it->second.cwnd = static_cast<double>(impl_->cfg.initialCwnd);
    it->second.ssthresh = static_cast<double>(impl_->cfg.maxCwnd);
    it->second.recoverSeq = 0;
    it->second.undo = Impl::SendStream::CutUndo{};
    it->second.lastAckAt = TimePoint{};
  }
}

void ReliableEndpoint::close() {
  {
    std::scoped_lock lock(impl_->mutex);
    if (impl_->closed) return;
    impl_->closed = true;
  }
  impl_->raw->close();
  impl_->clk->notifyAll(impl_->flushed);
}

ReliableEndpoint::Stats ReliableEndpoint::stats() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->stats;
}

ReliableEndpoint::PeerProbe ReliableEndpoint::probePeer(
    const NodeAddress& peer) const {
  std::scoped_lock lock(impl_->mutex);
  PeerProbe probe;
  probe.rto = impl_->rtoForLocked(peer);
  const auto it = impl_->peerRtt.find(peer);
  if (it != impl_->peerRtt.end() && it->second.hasSample) {
    probe.hasRtt = true;
    probe.srtt = it->second.srtt;
    probe.rttvar = it->second.rttvar;
    probe.minRtt = it->second.minRtt;
  }
  return probe;
}

ReliableEndpoint::StreamProbe ReliableEndpoint::probeStream(
    const NodeAddress& dst, std::uint64_t streamId) const {
  std::scoped_lock lock(impl_->mutex);
  StreamProbe probe;
  const auto it = impl_->sendStreams.find(StreamKey{dst, streamId});
  if (it == impl_->sendStreams.end()) return probe;
  probe.exists = true;
  probe.failed = it->second.failed;
  probe.cwnd = it->second.cwnd;
  probe.ssthresh = static_cast<std::uint64_t>(it->second.ssthresh);
  probe.inFlight = it->second.pending.size();
  probe.queued = it->second.sendQueue.size();
  return probe;
}

}  // namespace dapple
