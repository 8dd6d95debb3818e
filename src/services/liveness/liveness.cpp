#include "dapple/services/liveness/liveness.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "dapple/core/service.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/util/log.hpp"

namespace dapple {

namespace {
constexpr const char* kLog = "liveness";
constexpr const char* kHeartbeat = "live.hb";
}  // namespace

struct LivenessMonitor::Impl : ServiceCore {
  Impl(Dapplet& dapplet, LivenessConfig cfg)
      : ServiceCore(dapplet, "live.ctl"),
        mSuspects(&d.metricsRegistry().counter("liveness.suspect_events")),
        mRecoveries(&d.metricsRegistry().counter("liveness.recovery_events")),
        mHbGapUs(&d.metricsRegistry().histogram("liveness.heartbeat_gap_us")),
        trace(&d.trace()) {
    interval = cfg.heartbeatInterval > Duration::zero()
                   ? cfg.heartbeatInterval
                   : dapplet.config().liveness.heartbeatInterval;
    timeout = cfg.suspectTimeout > Duration::zero()
                  ? cfg.suspectTimeout
                  : dapplet.config().liveness.suspectTimeout;
  }

  /// All silence deadlines and beat pacing run on the dapplet's clock.
  TimePoint now() const { return clock().now(); }
  obs::Counter* mSuspects;
  obs::Counter* mRecoveries;
  /// Observed inter-arrival gap between heartbeats from the same peer — the
  /// live measurement `suspectTimeout` must dominate (see DESIGN.md).
  obs::Histogram* mHbGapUs;
  obs::TraceRing* trace;
  Duration interval{};
  Duration timeout{};

  /// Beats ride the reactor's timer wheel: one at once, then one every
  /// `interval`.
  Reactor::TimerHandle firstBeat;
  Reactor::TimerHandle beatTimer;

  struct Watch {
    InboxRef peer;
    Outbox* out = nullptr;
    TimePoint lastHeard;
    bool suspected = false;
  };
  std::unordered_map<std::string, Watch> watches;
  // Outboxes replaced by watch()/unwatch() are parked here, not destroyed:
  // beat() sends on raw Outbox pointers outside the lock, so storage must
  // outlive the beat loop.  Freed in the destructor once the loop is done.
  std::vector<Outbox*> retired;

  std::vector<PeerFn> suspectFns;
  std::vector<PeerFn> aliveFns;
  Stats stats;

  struct Event {
    std::string key;
    InboxRef peer;
    bool down = false;  // true: suspect, false: alive
  };

  /// Heartbeats are matched by the sender's node address — every watch whose
  /// peer lives at `src` is refreshed.
  void onHeartbeat(const NodeAddress& src, std::vector<Event>& events) {
    std::scoped_lock lock(mutex);
    ++stats.heartbeatsReceived;
    const TimePoint t = now();
    for (auto& [key, w] : watches) {
      if (w.peer.node != src) continue;
      mHbGapUs->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              t - w.lastHeard)
              .count()));
      w.lastHeard = t;
      if (w.suspected) {
        w.suspected = false;
        ++stats.recoveryEvents;
        mRecoveries->inc();
        trace->emit("liveness", "peer.alive", key);
        events.push_back({key, w.peer, false});
      }
    }
  }

  /// One detector beat: emit heartbeats to every watched peer, then check
  /// silence deadlines.  Returns suspect transitions to fire outside the
  /// lock.
  void beat(std::vector<Event>& events) {
    // (outbox, reset-before-send): probes to suspected peers drop the
    // unacked backlog first so a dead stream never accumulates frames the
    // retransmit timer would replay forever.
    std::vector<std::pair<Outbox*, bool>> targets;
    {
      std::scoped_lock lock(mutex);
      const TimePoint t = now();
      for (auto& [key, w] : watches) {
        if (!w.suspected && t - w.lastHeard > timeout) {
          w.suspected = true;
          ++stats.suspectEvents;
          mSuspects->inc();
          trace->emit("liveness", "peer.suspect", key);
          events.push_back({key, w.peer, true});
          DAPPLE_LOG(kInfo, kLog)
              << d.name() << ": suspecting peer " << w.peer.toString()
              << " (key '" << key << "')";
        }
        targets.emplace_back(w.out, w.suspected);
      }
      stats.heartbeatsSent += targets.size();
    }
    DataMessage hb(kHeartbeat);
    for (auto& [out, suspected] : targets) {
      try {
        if (suspected) out->reset();
        out->send(hb);
      } catch (const DeliveryError&) {
        // Stream to a (probably dead) peer failed; re-arm so heartbeats
        // resume if the peer heals.  Suspicion itself is silence-driven.
        out->reset();
      } catch (const Error&) {
        // Endpoint closing down; the beat timer stops with the dapplet.
      }
    }
  }

  void fire(const std::vector<Event>& events) {
    std::vector<PeerFn> down, up;
    {
      std::scoped_lock lock(mutex);
      down = suspectFns;
      up = aliveFns;
    }
    for (const Event& ev : events) {
      for (const auto& fn : (ev.down ? down : up)) fn(ev.key, ev.peer);
    }
  }

  void onMessage(const Delivery& del) {
    const auto* msg = dynamic_cast<const DataMessage*>(del.message.get());
    if (msg == nullptr || msg->kind() != kHeartbeat) return;
    std::vector<Event> events;
    onHeartbeat(del.srcNode, events);
    fire(events);
  }

  void onBeat() {
    std::vector<Event> events;
    beat(events);
    fire(events);
  }
};

LivenessMonitor::LivenessMonitor(Dapplet& dapplet, LivenessConfig config)
    : impl_(std::make_shared<Impl>(dapplet, config)) {
  // Beats are paced by the timer wheel, NOT by arrivals: beating once per
  // received heartbeat would make every heartbeat trigger an immediate
  // multicast to all watches — a positive-feedback storm once several
  // monitors watch each other.
  impl_->serve(
      [impl = impl_.get()](const Delivery& del) { impl->onMessage(del); });
  impl_->firstBeat =
      dapplet.after(Duration::zero(), [impl = impl_] { impl->onBeat(); });
  impl_->beatTimer =
      dapplet.every(impl_->interval, [impl = impl_] { impl->onBeat(); });
}

LivenessMonitor::~LivenessMonitor() {
  // Off-loop cancel() waits out an in-flight beat, and shutdown() waits out
  // a running handler — after these lines nothing touches the watches again.
  impl_->firstBeat.cancel();
  impl_->beatTimer.cancel();
  impl_->shutdown();
  std::scoped_lock lock(impl_->mutex);
  for (auto& [key, w] : impl_->watches) {
    try {
      impl_->d.destroyOutbox(*w.out);
    } catch (const Error&) {
    }
  }
  impl_->watches.clear();
  for (Outbox* out : impl_->retired) {
    try {
      impl_->d.destroyOutbox(*out);
    } catch (const Error&) {
    }
  }
  impl_->retired.clear();
}

InboxRef LivenessMonitor::ref() const { return impl_->inbox->ref(); }

void LivenessMonitor::watch(const std::string& key, const InboxRef& peer) {
  if (!peer.valid()) return;  // peers without a detector are simply unwatched
  Outbox* out = &impl_->d.createOutbox();
  out->add(peer);
  Outbox* replaced = nullptr;
  {
    std::scoped_lock lock(impl_->mutex);
    auto [it, inserted] = impl_->watches.try_emplace(key);
    if (!inserted) {
      replaced = it->second.out;
      impl_->retired.push_back(replaced);
    }
    it->second = {peer, out, impl_->now(), false};
  }
  if (replaced != nullptr) {
    try {
      replaced->reset();
    } catch (const Error&) {
    }
  }
}

void LivenessMonitor::unwatch(const std::string& key) {
  Outbox* out = nullptr;
  {
    std::scoped_lock lock(impl_->mutex);
    const auto it = impl_->watches.find(key);
    if (it == impl_->watches.end()) return;
    out = it->second.out;
    impl_->retired.push_back(out);
    impl_->watches.erase(it);
  }
  try {
    // Drop unacked heartbeats so a retired stream to a dead peer does not
    // pin dapplet-wide flush() until the delivery timeout.
    out->reset();
  } catch (const Error&) {
  }
}

void LivenessMonitor::onSuspect(PeerFn fn) {
  std::scoped_lock lock(impl_->mutex);
  impl_->suspectFns.push_back(std::move(fn));
}

void LivenessMonitor::onAlive(PeerFn fn) {
  std::scoped_lock lock(impl_->mutex);
  impl_->aliveFns.push_back(std::move(fn));
}

bool LivenessMonitor::suspected(const std::string& key) const {
  std::scoped_lock lock(impl_->mutex);
  const auto it = impl_->watches.find(key);
  return it != impl_->watches.end() && it->second.suspected;
}

std::vector<std::string> LivenessMonitor::watchedKeys() const {
  std::scoped_lock lock(impl_->mutex);
  std::vector<std::string> keys;
  keys.reserve(impl_->watches.size());
  for (const auto& [key, w] : impl_->watches) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

Duration LivenessMonitor::heartbeatInterval() const { return impl_->interval; }

Duration LivenessMonitor::suspectTimeout() const { return impl_->timeout; }

LivenessMonitor::Stats LivenessMonitor::stats() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->stats;
}

}  // namespace dapple
