#include "dapple/core/dapplet.hpp"

#include <algorithm>
#include <atomic>
#include <list>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "dapple/serial/value.hpp"
#include "dapple/serial/wire.hpp"
#include "dapple/util/log.hpp"

namespace dapple {

namespace {
constexpr const char* kLog = "dapplet";

/// A dapplet's own reactor: one loop on the dapplet's clock.
std::unique_ptr<Reactor> makeOwnedReactor(ClockSource* clock) {
  Reactor::Options opts;
  opts.threads = 1;
  opts.clock = clock;
  return std::make_unique<Reactor>(opts);
}
}  // namespace

struct Dapplet::Impl {
  mutable std::mutex mutex;

  std::uint32_t nextInboxId = 1;
  std::uint64_t nextOutboxId = 1;

  // Inboxes are owned here (shared: reactor drain tasks pin them via
  // shared_from_this); named lookup is by the inbox's own name field.
  std::unordered_map<std::uint32_t, std::shared_ptr<Inbox>> inboxesById;
  std::unordered_map<std::string, Inbox*> inboxesByName;
  // Destroyed inboxes are parked here (closed) rather than freed: delivery
  // and taps run without the dapplet lock, so Inbox storage must stay valid
  // for the dapplet's lifetime.  Sessions create a handful of inboxes each,
  // so the cost is negligible.
  std::vector<std::shared_ptr<Inbox>> inboxGraveyard;

  std::unordered_map<std::uint64_t, std::unique_ptr<Outbox>> outboxesById;
  std::unordered_map<std::string, Outbox*> outboxesByName;

  DeliveryTap tap;
  Stats stats;
  std::vector<PeerFailureListener> peerFailureListeners;

  obs::Histogram* mFanout = nullptr;  ///< destinations per outbox send

  bool stopped = false;
  /// Fires at stop()/crash(): spawned workers and services listen on it.
  std::stop_source stopSource;

  /// One spawned thread; `done` is its last write, so a worker seen done
  /// joins at once.
  struct Worker {
    std::atomic<bool> done{false};
    std::jthread thread;
  };
  std::list<Worker> workers;  // stable addresses: each thread flags its own

  /// Wheel timer pacing reliable_->tick() on the dapplet's reactor.
  Reactor::TimerHandle reliableTick;
};

Dapplet::Dapplet(Network& network, std::string name, DappletConfig config)
    : name_(std::move(name)),
      config_(config.normalized()),
      clockSource_(config_.clock != nullptr ? config_.clock
                                            : &ClockSource::system()),
      metricsRegistry_(config_.traceCapacity),
      ownedReactor_(config_.runtime.reactor != nullptr
                        ? nullptr
                        : makeOwnedReactor(clockSource_)),
      reactor_(config_.runtime.reactor != nullptr ? config_.runtime.reactor
                                                  : ownedReactor_.get()),
      impl_(std::make_unique<Impl>()) {
  impl_->mFanout = &metricsRegistry_.histogram("core.fanout");
  auto endpoint = network.openAt(config_.host, config_.port);
  reliable_ = std::make_unique<ReliableEndpoint>(
      std::move(endpoint), config_.reliable, &metricsRegistry_, clockSource_);
  reliable_->setDeliver([this](const NodeAddress& src, std::uint64_t streamId,
                               std::string_view payload) {
    onDeliver(src, streamId, payload);
  });
  reliable_->setOnFailure([this](const NodeAddress& dst,
                                 std::uint64_t streamId,
                                 const std::string& reason) {
    onStreamFailure(dst, streamId, reason);
  });
  // The endpoint has no timer of its own: its retransmission scan is paced
  // here, on the reactor's timer wheel.  tick() is a no-op after close(),
  // so a firing that races teardown is harmless.
  impl_->reliableTick = reactor_->every(
      config_.reliable.tickInterval, [rel = reliable_.get()] { rel->tick(); });
}

Dapplet::~Dapplet() { stop(); }

NodeAddress Dapplet::address() const { return reliable_->address(); }

Inbox& Dapplet::createInbox(const std::string& name) {
  std::scoped_lock lock(impl_->mutex);
  if (impl_->stopped) throw ShutdownError("dapplet stopped");
  if (!name.empty() && impl_->inboxesByName.count(name) != 0) {
    throw AddressError("duplicate inbox name '" + name + "'");
  }
  const std::uint32_t id = impl_->nextInboxId++;
  InboxRef ref{address(), id, name};
  auto inboxPtr = std::shared_ptr<Inbox>(new Inbox(id, name, std::move(ref)));
  inboxPtr->setClockSource(clockSource_);
  // The poster must not capture the dapplet: on a shared reactor a drain
  // task (which pins the inbox) can run after this dapplet is gone, and its
  // tail re-check re-posts through this lambda.  The reactor outlives the
  // dapplet's inboxes (a shared one by contract, the owned one by member
  // order).
  inboxPtr->setScheduler([r = reactor_](std::function<void()> task) {
    r->post(std::move(task));
  });
  Inbox& result = *inboxPtr;
  impl_->inboxesById.emplace(id, std::move(inboxPtr));
  if (!name.empty()) impl_->inboxesByName.emplace(name, &result);
  return result;
}

Inbox& Dapplet::inbox(const std::string& name) {
  std::scoped_lock lock(impl_->mutex);
  const auto it = impl_->inboxesByName.find(name);
  if (it == impl_->inboxesByName.end()) {
    throw AddressError("no inbox named '" + name + "' in dapplet " + name_);
  }
  return *it->second;
}

bool Dapplet::hasInbox(const std::string& name) const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->inboxesByName.count(name) != 0;
}

void Dapplet::destroyInbox(const std::string& name) {
  std::scoped_lock lock(impl_->mutex);
  const auto it = impl_->inboxesByName.find(name);
  if (it == impl_->inboxesByName.end()) {
    throw AddressError("no inbox named '" + name + "' in dapplet " + name_);
  }
  Inbox* box = it->second;
  box->close();
  impl_->inboxesByName.erase(it);
  auto node = impl_->inboxesById.extract(box->localId());
  if (node) impl_->inboxGraveyard.push_back(std::move(node.mapped()));
}

void Dapplet::destroyInbox(Inbox& box) {
  std::scoped_lock lock(impl_->mutex);
  box.close();
  if (!box.name().empty()) impl_->inboxesByName.erase(box.name());
  auto node = impl_->inboxesById.extract(box.localId());
  if (node) impl_->inboxGraveyard.push_back(std::move(node.mapped()));
}

Outbox& Dapplet::createOutbox(const std::string& name) {
  std::scoped_lock lock(impl_->mutex);
  if (impl_->stopped) throw ShutdownError("dapplet stopped");
  if (!name.empty() && impl_->outboxesByName.count(name) != 0) {
    throw AddressError("duplicate outbox name '" + name + "'");
  }
  const std::uint64_t id = impl_->nextOutboxId++;
  auto outboxPtr = std::unique_ptr<Outbox>(new Outbox(*this, id, name));
  Outbox& result = *outboxPtr;
  impl_->outboxesById.emplace(id, std::move(outboxPtr));
  if (!name.empty()) impl_->outboxesByName.emplace(name, &result);
  return result;
}

Outbox& Dapplet::outbox(const std::string& name) {
  std::scoped_lock lock(impl_->mutex);
  const auto it = impl_->outboxesByName.find(name);
  if (it == impl_->outboxesByName.end()) {
    throw AddressError("no outbox named '" + name + "' in dapplet " + name_);
  }
  return *it->second;
}

bool Dapplet::hasOutbox(const std::string& name) const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->outboxesByName.count(name) != 0;
}

void Dapplet::destroyOutbox(const std::string& name) {
  std::scoped_lock lock(impl_->mutex);
  const auto it = impl_->outboxesByName.find(name);
  if (it == impl_->outboxesByName.end()) {
    throw AddressError("no outbox named '" + name + "' in dapplet " + name_);
  }
  Outbox* box = it->second;
  impl_->outboxesByName.erase(it);
  impl_->outboxesById.erase(box->id());
}

void Dapplet::destroyOutbox(Outbox& box) {
  std::scoped_lock lock(impl_->mutex);
  if (!box.name().empty()) impl_->outboxesByName.erase(box.name());
  impl_->outboxesById.erase(box.id());
}

void Dapplet::spawn(std::function<void(std::stop_token)> fn) {
  std::list<Impl::Worker> finished;  // joined outside the lock, below
  std::scoped_lock lock(impl_->mutex);
  if (impl_->stopped) throw ShutdownError("dapplet stopped");
  for (auto it = impl_->workers.begin(); it != impl_->workers.end();) {
    const auto next = std::next(it);
    if (it->done.load(std::memory_order_acquire)) {
      finished.splice(finished.end(), impl_->workers, it);
    }
    it = next;
  }
  // Wrap so a ShutdownError thrown out of a blocking receive during stop()
  // ends the worker quietly instead of terminating the process.  Worker
  // registration tells a virtual clock this thread's waits gate time
  // advancement (compute between waits is instantaneous in virtual time);
  // announced first so the clock cannot advance before the thread is up.
  clockSource_->announceWorker();
  Impl::Worker& worker = impl_->workers.emplace_back();
  worker.thread = std::jthread([fn = std::move(fn), this, &worker,
                                stop = impl_->stopSource.get_token()] {
    {
      ClockSource::WorkerScope workerScope(*clockSource_);
      try {
        fn(stop);
      } catch (const ShutdownError&) {
        // normal during stop()
      } catch (const Error& e) {
        DAPPLE_LOG(kWarn, kLog)
            << name_ << ": worker exited with error: " << e.what();
      }
    }
    worker.done.store(true, std::memory_order_release);
  });
}

std::stop_token Dapplet::stopToken() const {
  return impl_->stopSource.get_token();
}

Reactor::TimerHandle Dapplet::after(Duration delay,
                                    std::function<void()> fn) {
  return reactor_->after(delay, std::move(fn));
}

Reactor::TimerHandle Dapplet::every(Duration period,
                                    std::function<void()> fn) {
  return reactor_->every(period, std::move(fn));
}

void Dapplet::stop() {
  if (!beginStop()) return;
  // cancel() waits out any in-flight tick, so after it returns no loop
  // thread is still inside reliable_->tick() and reliable_ can be torn down
  // safely.  That wait only happens off loop threads, which is why stop()
  // (and ~Dapplet) must not be called from a reactor callback — there the
  // cancel degrades to asynchronous and a tick in flight on another loop
  // would race the teardown below (see the header contract).
  impl_->reliableTick.cancel();
  reliable_->close();
  if (ownedReactor_) ownedReactor_->stop();
}

void Dapplet::crash() {
  // Crash-stop semantics: the endpoint dies FIRST, so nothing — not even the
  // retransmission/ACK machinery — escapes after this line.  stop() is the
  // graceful inverse (drain, then close).
  reliable_->close();
  impl_->reliableTick.cancel();  // after close: ticks are already no-ops
  if (!beginStop()) return;
  if (ownedReactor_) ownedReactor_->stop();
}

bool Dapplet::beginStop() {
  std::list<Impl::Worker> workers;
  {
    std::scoped_lock lock(impl_->mutex);
    if (impl_->stopped) return false;
    impl_->stopped = true;
    for (auto& [id, box] : impl_->inboxesById) box->close();
    workers.swap(impl_->workers);
  }
  // Wakes spawned workers and every service's blocked callers (their stop
  // callbacks run here, outside the dapplet lock).
  impl_->stopSource.request_stop();
  // Workers parked in timed clocked waits (heartbeat pacing, probe loops)
  // re-check their stop tokens only when woken; under a virtual clock that
  // wake must be routed, not waited out.
  clockSource_->interruptAll();
  workers.clear();  // joins
  return true;
}

void Dapplet::addPeerFailureListener(PeerFailureListener listener) {
  std::scoped_lock lock(impl_->mutex);
  impl_->peerFailureListeners.push_back(std::move(listener));
}

void Dapplet::setDeliveryTap(DeliveryTap tap) {
  std::scoped_lock lock(impl_->mutex);
  if (tap && impl_->tap) {
    throw Error(name_ + ": a delivery tap is already installed");
  }
  impl_->tap = std::move(tap);
}

bool Dapplet::flush(Duration timeout) { return reliable_->flush(timeout); }

Dapplet::Stats Dapplet::stats() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->stats;
}

obs::MetricsSnapshot Dapplet::metrics() const {
  obs::MetricsSnapshot snap = metricsRegistry_.snapshot();

  // The ordering layer keeps its own Stats struct (cheap, always on);
  // project it into the snapshot so one dump covers every layer.
  const ReliableEndpoint::Stats rs = reliable_->stats();
  snap.counters["reliable.data_sent"] += rs.dataSent;
  snap.counters["reliable.retransmits"] += rs.retransmits;
  snap.counters["reliable.fast_retransmits"] += rs.fastRetransmits;
  snap.counters["reliable.rtt_samples"] += rs.rttSamples;
  snap.counters["reliable.window_deferred"] += rs.windowDeferred;
  snap.counters["reliable.window_cuts"] += rs.windowCuts;
  snap.counters["reliable.window_collapses"] += rs.windowCollapses;
  snap.counters["reliable.window_undos"] += rs.windowUndos;
  snap.counters["reliable.data_bytes"] += rs.dataBytes;
  snap.counters["reliable.retransmit_bytes"] += rs.retransmitBytes;
  snap.counters["reliable.delivered_bytes"] += rs.deliveredBytes;
  snap.counters["reliable.delivered"] += rs.delivered;
  snap.counters["reliable.duplicates"] += rs.duplicates;
  snap.counters["reliable.acks_sent"] += rs.acksSent;
  snap.counters["reliable.ack_frames_sent"] += rs.ackFramesSent;
  snap.counters["reliable.acks_coalesced"] += rs.acksCoalesced;
  snap.counters["reliable.dup_acks_suppressed"] += rs.dupAcksSuppressed;
  snap.counters["reliable.payload_copies"] += rs.payloadCopies;
  snap.counters["reliable.out_of_order_buffered"] += rs.outOfOrderBuffered;
  snap.counters["reliable.stream_failures"] += rs.failures;

  std::scoped_lock lock(impl_->mutex);
  snap.counters["core.messages_sent"] += impl_->stats.messagesSent;
  snap.counters["core.messages_delivered"] += impl_->stats.messagesDelivered;
  snap.counters["core.unroutable"] += impl_->stats.unroutable;
  snap.counters["core.consumed_by_tap"] += impl_->stats.consumedByTap;
  snap.gauges["core.inboxes"] =
      static_cast<std::int64_t>(impl_->inboxesById.size());
  snap.gauges["core.outboxes"] =
      static_cast<std::int64_t>(impl_->outboxesById.size());

  // Backlog high-water across every inbox this dapplet ever had (destroyed
  // inboxes park in the graveyard, so their peaks still count).
  std::int64_t hwm = 0;
  const auto consider = [&hwm](const Inbox& box) {
    const auto peak = static_cast<std::int64_t>(box.queueHighWater());
    if (peak > hwm) hwm = peak;
  };
  for (const auto& [id, box] : impl_->inboxesById) consider(*box);
  for (const auto& box : impl_->inboxGraveyard) consider(*box);
  snap.gauges["core.inbox_queue_hwm"] =
      std::max(snap.gauges["core.inbox_queue_hwm"], hwm);
  return snap;
}

void Dapplet::sendFromOutbox(std::uint64_t outboxId,
                             const std::vector<InboxRef>& destinations,
                             const Message& msg) {
  const std::uint64_t ts = clock_.tick();
  // Encode ONCE; every destination shares the refcounted body and adds only
  // its small addressing head (the string header written by beginString is
  // completed by the body bytes at frame-assembly time).
  const Payload body(encodeMessage(msg, config_.wireCodec));
  impl_->mFanout->record(destinations.size());
  std::vector<OutSend> sends;
  sends.reserve(destinations.size());
  for (const InboxRef& dst : destinations) {
    WireWriter w(config_.wireCodec);
    w.writeU64(dst.localId);
    w.writeString(dst.name);
    w.writeU64(ts);
    w.beginString(body.size());
    sends.push_back(OutSend{dst.node, std::move(w).str()});
  }
  reliable_->sendMany(std::move(sends), outboxId, body);
  std::scoped_lock lock(impl_->mutex);
  impl_->stats.messagesSent += destinations.size();
}

void Dapplet::onDeliver(const NodeAddress& src, std::uint64_t streamId,
                        std::string_view payload) {
  try {
    // Zero-copy envelope decode: every field is a view into the frame the
    // reliable layer handed us; decodeMessage copies only the leaf values.
    WireReader r(payload);
    const auto dstLocal = static_cast<std::uint32_t>(r.readU64());
    const std::string_view dstName = r.readStringView();
    const std::uint64_t sentAt = r.readU64();
    const std::string_view wire = r.readStringView();

    Delivery delivery;
    delivery.message = decodeMessage(wire);
    delivery.sentAt = sentAt;
    delivery.receivedAt = clock_.observe(sentAt);
    delivery.srcNode = src;
    delivery.srcOutbox = streamId;

    Inbox* target = nullptr;
    DeliveryTap tap;
    {
      std::scoped_lock lock(impl_->mutex);
      if (dstLocal != 0) {
        const auto it = impl_->inboxesById.find(dstLocal);
        if (it != impl_->inboxesById.end()) target = it->second.get();
      } else if (!dstName.empty()) {
        // Name routing is the rare path (refs minted by createInbox carry a
        // local id); only it pays the key materialization.
        const auto it = impl_->inboxesByName.find(std::string(dstName));
        if (it != impl_->inboxesByName.end()) target = it->second;
      }
      if (!target) {
        ++impl_->stats.unroutable;
        DAPPLE_LOG(kDebug, kLog)
            << name_ << ": unroutable message for inbox #" << dstLocal << "/'"
            << dstName << "' from " << src.toString();
        return;
      }
      tap = impl_->tap;
    }
    // The tap runs WITHOUT the dapplet lock: snapshot taps send markers,
    // which re-enters the send path.  Inbox storage is lock-free safe (see
    // inboxGraveyard) and push() on a closed inbox is a harmless drop.
    if (tap && tap(*target, delivery)) {
      std::scoped_lock lock(impl_->mutex);
      ++impl_->stats.consumedByTap;
      return;
    }
    {
      // Count before push: a receiver unblocked by the push may read
      // metrics immediately, and the tally must already include it.
      std::scoped_lock lock(impl_->mutex);
      ++impl_->stats.messagesDelivered;
    }
    target->push(std::move(delivery));
  } catch (const Error& e) {
    DAPPLE_LOG(kWarn, kLog) << name_ << ": dropping malformed envelope from "
                            << src.toString() << ": " << e.what();
  }
}

void Dapplet::onStreamFailure(const NodeAddress& dst, std::uint64_t streamId,
                              const std::string& reason) {
  std::vector<PeerFailureListener> listeners;
  {
    std::scoped_lock lock(impl_->mutex);
    listeners = impl_->peerFailureListeners;
  }
  // Listeners run without the dapplet lock (the reliable layer already
  // invokes failure callbacks outside its own lock), so they may reset
  // streams, unbind outboxes, or raise inbox alerts.
  for (const auto& listener : listeners) listener(dst, streamId, reason);
}


Value Dapplet::describe() const {
  std::scoped_lock lock(impl_->mutex);
  ValueMap out;
  out["name"] = Value(name_);
  out["address"] = Value(address().toString());
  out["clock"] = Value(static_cast<long long>(clock_.now()));
  out["stopped"] = Value(impl_->stopped);

  ValueMap stats;
  stats["sent"] = Value(static_cast<long long>(impl_->stats.messagesSent));
  stats["delivered"] =
      Value(static_cast<long long>(impl_->stats.messagesDelivered));
  stats["unroutable"] =
      Value(static_cast<long long>(impl_->stats.unroutable));
  out["stats"] = Value(std::move(stats));

  ValueList inboxes;
  for (const auto& [id, box] : impl_->inboxesById) {
    ValueMap entry;
    entry["id"] = Value(static_cast<long long>(box->localId()));
    entry["name"] = Value(box->name());
    entry["queued"] = Value(static_cast<long long>(box->size()));
    entry["closed"] = Value(box->isClosed());
    inboxes.push_back(Value(std::move(entry)));
  }
  out["inboxes"] = Value(std::move(inboxes));

  ValueList outboxes;
  for (const auto& [id, box] : impl_->outboxesById) {
    ValueMap entry;
    entry["id"] = Value(static_cast<long long>(box->id()));
    entry["name"] = Value(box->name());
    entry["fanout"] = Value(static_cast<long long>(box->fanout()));
    outboxes.push_back(Value(std::move(entry)));
  }
  out["outboxes"] = Value(std::move(outboxes));
  return Value(std::move(out));
}

}  // namespace dapple
