#include "dapple/services/snapshot/snapshot.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <mutex>
#include <optional>
#include <set>

#include "dapple/core/service.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/util/fsio.hpp"

namespace dapple {

namespace {

// CheckpointService message kinds.
constexpr const char* kMaxQ = "ckpt.maxq";
constexpr const char* kMaxA = "ckpt.maxa";
constexpr const char* kTake = "ckpt.take";
constexpr const char* kReport = "ckpt.report";
constexpr const char* kState = "ckpt.state";

// MarkerRegion message kinds.
constexpr const char* kStart = "snap.start";
constexpr const char* kSnapState = "snap.state";

/// Serializes a recorded in-flight message for the snapshot report.
Value describeDelivery(const Delivery& del) {
  ValueMap map;
  map["type"] = Value(std::string(del.message->typeName()));
  map["wire"] = Value(encodeMessage(*del.message));
  map["sentAt"] = Value(static_cast<long long>(del.sentAt));
  map["src"] = Value(static_cast<long long>(del.srcNode.packed()));
  map["outbox"] = Value(static_cast<long long>(del.srcOutbox));
  return Value(std::move(map));
}

}  // namespace

// ===========================================================================
// CheckpointService
// ===========================================================================

struct CheckpointService::Impl : ServiceCore {
  Impl(Dapplet& dapplet, StateFn fn)
      : ServiceCore(dapplet, "ckpt.ctl"), stateFn(std::move(fn)) {}

  StateFn stateFn;
  /// Crash-recovery compaction hook (see onLocalCheckpoint).
  std::function<void(std::uint64_t)> localCkptHook;

  bool attached = false;
  std::size_t selfIndex = 0;
  std::vector<Outbox*> peers;

  /// Active recording at this member.
  struct Recording {
    std::uint64_t snapId = 0;
    std::uint64_t time = 0;  // T
    Value localState;
    std::vector<Value> channelMsgs;
  };
  std::optional<Recording> recording;

  /// Coordinator-side gather state.
  struct Gather {
    std::size_t maxPending = 0;
    std::uint64_t maxClock = 0;
    std::size_t reportsPending = 0;
    GlobalSnapshot snapshot;
  };
  std::map<std::uint64_t, Gather> gathers;
  std::uint64_t nextSnapId = 1;

  Stats stats;

  void sendTo(std::size_t index, const DataMessage& msg) {
    peers.at(index)->send(msg);
  }

  void broadcast(const DataMessage& msg) {
    for (std::size_t i = 0; i < peers.size(); ++i) sendTo(i, msg);
  }

  bool tap(Inbox& target, Delivery& del) {
    if (&target == inbox) return false;  // service traffic is not state
    std::scoped_lock lock(mutex);
    if (recording && del.sentAt < recording->time) {
      // "the states of the channels are the sequences of messages sent on
      // the channels before T and received after T"
      recording->channelMsgs.push_back(describeDelivery(del));
      ++stats.channelMessagesRecorded;
    }
    return false;  // never consumed; the application still processes it
  }

  void dispatch(const Delivery& del) {
    const auto* msg = dynamic_cast<const DataMessage*>(del.message.get());
    if (msg == nullptr) return;
    const std::string& kind = msg->kind();
    if (kind == kMaxQ) {
      DataMessage reply(kMaxA);
      reply.set("qid", msg->get("qid"));
      reply.set("clock",
                Value(static_cast<long long>(d.clock().now())));
      sendTo(static_cast<std::size_t>(msg->get("from").asInt()), reply);
    } else if (kind == kMaxA) {
      std::scoped_lock lock(mutex);
      const auto qid = static_cast<std::uint64_t>(msg->get("qid").asInt());
      const auto it = gathers.find(qid);
      if (it == gathers.end() || it->second.maxPending == 0) return;
      it->second.maxClock =
          std::max(it->second.maxClock,
                   static_cast<std::uint64_t>(msg->get("clock").asInt()));
      if (--it->second.maxPending == 0) notifyAll();
    } else if (kind == kTake) {
      const auto time = static_cast<std::uint64_t>(msg->get("T").asInt());
      const auto snapId =
          static_cast<std::uint64_t>(msg->get("snapId").asInt());
      // Order matters for consistency of the cut:
      //  1. Jump the clock past T first, so every message this member sends
      //     from now on is stamped > T (its effects are post-checkpoint).
      //  2. Then, atomically with respect to the delivery tap (same mutex),
      //     record the local state and start channel recording.  No arrival
      //     can slip between the two, so nothing is counted in both the
      //     state and a channel.
      d.clock().advanceTo(time);
      std::function<void(std::uint64_t)> hook;
      {
        std::scoped_lock lock(mutex);
        Recording rec;
        rec.snapId = snapId;
        rec.time = time;
        rec.localState = stateFn();
        recording = std::move(rec);
        ++stats.checkpointsTaken;
        hook = localCkptHook;
      }
      // Crash-recovery binding (outside the lock: the hook does file I/O
      // and re-enters the state store).  The local state above and the
      // durable image the hook writes may differ by mutations landing in
      // between; both sit at-or-after the cut, which is what the recovery
      // line needs.
      if (hook) hook(time);
    } else if (kind == kReport) {
      DataMessage reply(kState);
      std::scoped_lock lock(mutex);
      if (!recording ||
          recording->snapId !=
              static_cast<std::uint64_t>(msg->get("snapId").asInt())) {
        return;
      }
      reply.set("snapId", msg->get("snapId"));
      reply.set("idx", Value(static_cast<long long>(selfIndex)));
      reply.set("state", recording->localState);
      reply.set("channel", Value(ValueList(recording->channelMsgs)));
      recording.reset();
      sendTo(static_cast<std::size_t>(msg->get("from").asInt()), reply);
    } else if (kind == kState) {
      std::scoped_lock lock(mutex);
      const auto snapId =
          static_cast<std::uint64_t>(msg->get("snapId").asInt());
      const auto it = gathers.find(snapId);
      if (it == gathers.end()) return;
      const auto idx = static_cast<std::size_t>(msg->get("idx").asInt());
      it->second.snapshot.states[idx] = msg->get("state");
      it->second.snapshot.channels[idx] = msg->get("channel").asList();
      if (--it->second.reportsPending == 0) notifyAll();
    }
  }
};

CheckpointService::CheckpointService(Dapplet& dapplet, StateFn stateFn)
    : impl_(std::make_shared<Impl>(dapplet, std::move(stateFn))) {
  dapplet.setDeliveryTap([impl = impl_](Inbox& target, Delivery& del) {
    return impl->tap(target, del);
  });
  impl_->serve(
      [impl = impl_.get()](const Delivery& del) { impl->dispatch(del); });
}

CheckpointService::~CheckpointService() {
  impl_->d.setDeliveryTap(nullptr);
  impl_->shutdown();
}

InboxRef CheckpointService::ref() const { return impl_->inbox->ref(); }

void CheckpointService::attach(const std::vector<InboxRef>& members,
                               std::size_t selfIndex) {
  std::scoped_lock lock(impl_->mutex);
  impl_->selfIndex = selfIndex;
  impl_->peers.resize(members.size(), nullptr);
  for (std::size_t i = 0; i < members.size(); ++i) {
    impl_->peers[i] = &impl_->channel(members[i]);
  }
  impl_->attached = true;
}

GlobalSnapshot CheckpointService::take(Duration settle, Duration timeout) {
  std::unique_lock lock(impl_->mutex);
  if (!impl_->attached) throw SessionError("checkpoint service not attached");
  const std::uint64_t snapId = impl_->nextSnapId++;
  auto& gather = impl_->gathers[snapId];
  gather.maxPending = impl_->peers.size();
  gather.reportsPending = impl_->peers.size();

  // Phase 1: find max clock.
  DataMessage maxq(kMaxQ);
  maxq.set("qid", Value(static_cast<long long>(snapId)));
  maxq.set("from", Value(static_cast<long long>(impl_->selfIndex)));
  impl_->broadcast(maxq);
  if (!impl_->waitFor(lock, timeout, [&] {
        return impl_->gathers.at(snapId).maxPending == 0;
      })) {
    impl_->gathers.erase(snapId);
    throw TimeoutError("checkpoint: clock query timed out");
  }
  // Margin so in-progress sends stamped "now" still land below T only if
  // they were sent before the broadcast reaches their sender.
  const std::uint64_t time = impl_->gathers.at(snapId).maxClock + 1000;
  impl_->gathers.at(snapId).snapshot.at = time;

  // Phase 2: everyone checkpoints at T.
  DataMessage take(kTake);
  take.set("snapId", Value(static_cast<long long>(snapId)));
  take.set("T", Value(static_cast<long long>(time)));
  impl_->broadcast(take);

  // Phase 3: allow pre-T traffic to drain into channel recordings.
  lock.unlock();
  impl_->clock().sleepFor(settle);
  lock.lock();

  // Phase 4: gather reports.
  DataMessage report(kReport);
  report.set("snapId", Value(static_cast<long long>(snapId)));
  report.set("from", Value(static_cast<long long>(impl_->selfIndex)));
  impl_->broadcast(report);
  if (!impl_->waitFor(lock, timeout, [&] {
        return impl_->gathers.at(snapId).reportsPending == 0;
      })) {
    impl_->gathers.erase(snapId);
    throw TimeoutError("checkpoint: report gathering timed out");
  }
  GlobalSnapshot snapshot = std::move(impl_->gathers.at(snapId).snapshot);
  impl_->gathers.erase(snapId);
  return snapshot;
}

CheckpointService::Stats CheckpointService::stats() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->stats;
}

void CheckpointService::onLocalCheckpoint(
    std::function<void(std::uint64_t at)> hook) {
  std::scoped_lock lock(impl_->mutex);
  impl_->localCkptHook = std::move(hook);
}

// ===========================================================================
// MarkerRegion
// ===========================================================================

struct MarkerRegion::Impl : ServiceCore {
  Impl(Dapplet& dapplet, StateFn fn)
      : ServiceCore(dapplet, "snap.ctl"), stateFn(std::move(fn)) {}

  StateFn stateFn;

  bool attached = false;
  std::size_t selfIndex = 0;
  std::vector<Outbox*> peers;        // control-plane outboxes
  std::vector<Outbox*> appOutboxes;  // markers travel on these
  std::size_t inChannels = 0;

  using ChannelKey = std::pair<std::uint64_t, std::uint64_t>;  // node,outbox

  struct Active {
    std::uint64_t snapId = 0;
    std::size_t coordinator = 0;
    Value localState;
    std::set<ChannelKey> doneChannels;  // marker received
    std::map<ChannelKey, std::vector<Value>> channelMsgs;
    bool reported = false;
  };
  std::optional<Active> active;

  struct Gather {
    std::size_t reportsPending = 0;
    GlobalSnapshot snapshot;
  };
  std::map<std::uint64_t, Gather> gathers;
  std::uint64_t nextSnapId = 1;

  Stats stats;

  void sendTo(std::size_t index, const DataMessage& msg) {
    peers.at(index)->send(msg);
  }

  /// Begins this member's snapshot: record state, emit markers.
  void beginLocked(std::uint64_t snapId, std::size_t coordinator) {
    Active act;
    act.snapId = snapId;
    act.coordinator = coordinator;
    act.localState = stateFn();
    active = std::move(act);
    MarkerMsg marker;
    marker.snapshotId = snapId;
    marker.coordinator = coordinator;
    for (Outbox* box : appOutboxes) {
      box->send(marker);
      ++stats.markersSent;
    }
    maybeFinishLocked();
  }

  void maybeFinishLocked() {
    if (!active || active->reported) return;
    if (active->doneChannels.size() < inChannels) return;
    active->reported = true;
    DataMessage report(kSnapState);
    report.set("snapId", Value(static_cast<long long>(active->snapId)));
    report.set("idx", Value(static_cast<long long>(selfIndex)));
    report.set("state", active->localState);
    ValueList channel;
    for (auto& [key, msgs] : active->channelMsgs) {
      for (Value& v : msgs) channel.push_back(std::move(v));
    }
    report.set("channel", Value(std::move(channel)));
    const std::size_t coord = active->coordinator;
    active.reset();
    sendTo(coord, report);
  }

  bool tap(Inbox& target, Delivery& del) {
    if (&target == inbox) return false;
    const ChannelKey key{del.srcNode.packed(), del.srcOutbox};
    if (const auto* marker = dynamic_cast<const MarkerMsg*>(del.message.get())) {
      std::scoped_lock lock(mutex);
      ++stats.markersReceived;
      if (!active) {
        // First marker initiates this member's snapshot; the arriving
        // channel's recorded state is empty (classic Chandy–Lamport).
        beginLocked(marker->snapshotId,
                    static_cast<std::size_t>(marker->coordinator));
      }
      if (active && active->snapId == marker->snapshotId) {
        active->doneChannels.insert(key);
        maybeFinishLocked();
      }
      return true;  // markers never reach the application
    }
    std::scoped_lock lock(mutex);
    if (active && active->doneChannels.count(key) == 0) {
      active->channelMsgs[key].push_back(describeDelivery(del));
      ++stats.channelMessagesRecorded;
    }
    return false;
  }

  void dispatch(const Delivery& del) {
    const auto* msg = dynamic_cast<const DataMessage*>(del.message.get());
    if (msg == nullptr) return;
    const std::string& kind = msg->kind();
    if (kind == kStart) {
      const auto snapId =
          static_cast<std::uint64_t>(msg->get("snapId").asInt());
      const auto coord = static_cast<std::size_t>(msg->get("coord").asInt());
      std::scoped_lock lock(mutex);
      if (!active) beginLocked(snapId, coord);
    } else if (kind == kSnapState) {
      std::scoped_lock lock(mutex);
      const auto snapId =
          static_cast<std::uint64_t>(msg->get("snapId").asInt());
      const auto it = gathers.find(snapId);
      if (it == gathers.end()) return;
      const auto idx = static_cast<std::size_t>(msg->get("idx").asInt());
      it->second.snapshot.states[idx] = msg->get("state");
      it->second.snapshot.channels[idx] = msg->get("channel").asList();
      if (--it->second.reportsPending == 0) notifyAll();
    }
  }
};

MarkerRegion::MarkerRegion(Dapplet& dapplet, StateFn stateFn)
    : impl_(std::make_shared<Impl>(dapplet, std::move(stateFn))) {
  dapplet.setDeliveryTap([impl = impl_](Inbox& target, Delivery& del) {
    return impl->tap(target, del);
  });
  impl_->serve(
      [impl = impl_.get()](const Delivery& del) { impl->dispatch(del); });
}

MarkerRegion::~MarkerRegion() {
  impl_->d.setDeliveryTap(nullptr);
  impl_->shutdown();
}

InboxRef MarkerRegion::ref() const { return impl_->inbox->ref(); }

void MarkerRegion::attach(const std::vector<InboxRef>& members,
                          std::size_t selfIndex,
                          std::vector<Outbox*> appOutboxes,
                          std::size_t inChannels) {
  std::scoped_lock lock(impl_->mutex);
  impl_->selfIndex = selfIndex;
  impl_->peers.resize(members.size(), nullptr);
  for (std::size_t i = 0; i < members.size(); ++i) {
    impl_->peers[i] = &impl_->channel(members[i]);
  }
  impl_->appOutboxes = std::move(appOutboxes);
  impl_->inChannels = inChannels;
  impl_->attached = true;
}

GlobalSnapshot MarkerRegion::take(Duration timeout) {
  std::unique_lock lock(impl_->mutex);
  if (!impl_->attached) throw SessionError("marker region not attached");
  const std::uint64_t snapId =
      impl_->nextSnapId++ + (static_cast<std::uint64_t>(impl_->selfIndex)
                             << 48);
  auto& gather = impl_->gathers[snapId];
  gather.reportsPending = impl_->peers.size();
  gather.snapshot.at = snapId;

  DataMessage start(kStart);
  start.set("snapId", Value(static_cast<long long>(snapId)));
  start.set("coord", Value(static_cast<long long>(impl_->selfIndex)));
  for (std::size_t i = 0; i < impl_->peers.size(); ++i) {
    impl_->sendTo(i, start);
  }
  if (!impl_->waitFor(lock, timeout, [&] {
        return impl_->gathers.at(snapId).reportsPending == 0;
      })) {
    impl_->gathers.erase(snapId);
    throw TimeoutError("marker snapshot timed out");
  }
  GlobalSnapshot snapshot = std::move(impl_->gathers.at(snapId).snapshot);
  impl_->gathers.erase(snapId);
  return snapshot;
}

MarkerRegion::Stats MarkerRegion::stats() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->stats;
}

DAPPLE_REGISTER_MESSAGE(MarkerMsg)


// ===========================================================================
// GlobalSnapshot persistence
// ===========================================================================

Value GlobalSnapshot::toValue() const {
  ValueMap map;
  map["at"] = Value(static_cast<long long>(at));
  ValueMap stateMap;
  for (const auto& [idx, state] : states) {
    stateMap[std::to_string(idx)] = state;
  }
  map["states"] = Value(std::move(stateMap));
  ValueMap channelMap;
  for (const auto& [idx, msgs] : channels) {
    channelMap[std::to_string(idx)] = Value(ValueList(msgs));
  }
  map["channels"] = Value(std::move(channelMap));
  return Value(std::move(map));
}

GlobalSnapshot GlobalSnapshot::fromValue(const Value& value) {
  GlobalSnapshot snap;
  snap.at = static_cast<std::uint64_t>(value.at("at").asInt());
  for (const auto& [idx, state] : value.at("states").asMap()) {
    snap.states[std::stoull(idx)] = state;
  }
  for (const auto& [idx, msgs] : value.at("channels").asMap()) {
    snap.channels[std::stoull(idx)] = msgs.asList();
  }
  return snap;
}

void GlobalSnapshot::saveTo(const std::string& path) const {
  // Durable atomic replace (temp + fsync + rename): a crash mid-save must
  // never leave a torn snapshot, same contract as StateStore::save.
  atomicWriteFile(path, toValue().toWire());
}

GlobalSnapshot GlobalSnapshot::loadFrom(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw StateError("snapshot: cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return fromValue(Value::fromWire(buf.str()));
}

}  // namespace dapple
