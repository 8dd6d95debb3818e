#pragma once
/// \file inbox.hpp
/// \brief Inboxes: the receive side of the paper's communication model.
///
/// Paper §3.2 specifies exactly three application-layer methods:
/// `isEmpty()`, `awaitNonEmpty()` and `receive()`.  We add timed and
/// non-blocking variants plus typed conveniences, and each delivery carries
/// the metadata the services need (logical send/receive timestamps and the
/// source channel), which the paper's clock and snapshot services rely on.
///
/// Receive-surface conventions (beyond the paper's trio):
///  * `receiveFor(timeout)` / `tryReceive()` report "nothing arrived" in
///    the return value (`std::nullopt`), never by exception; callers that
///    treat a missed deadline as failure use `receiveAs<T>(timeout)`, which
///    throws `TimeoutError` for them.
///  * All receives throw ShutdownError once the inbox is closed-and-drained
///    and PeerDownError when a peer-failure alert is pending (see raise()).
///  * `onMessage(handler)` switches the inbox to event-driven delivery on
///    the dapplet's `Reactor` — no blocked thread at all.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "dapple/core/inbox_ref.hpp"
#include "dapple/serial/message.hpp"
#include "dapple/util/error.hpp"
#include "dapple/util/sync_queue.hpp"
#include "dapple/util/time.hpp"

namespace dapple {

class Dapplet;

/// One received message plus its channel metadata.
struct Delivery {
  std::unique_ptr<Message> message;
  std::uint64_t sentAt = 0;      ///< sender's Lamport clock at send
  std::uint64_t receivedAt = 0;  ///< receiver's Lamport clock after receipt
  NodeAddress srcNode;           ///< sending dapplet's address
  std::uint64_t srcOutbox = 0;   ///< sending outbox id (identifies channel)

  /// Typed access; throws SerializationError naming the actual type.
  template <typename T>
  const T& as() const& {
    return messageAs<T>(*message);
  }

  /// On rvalues (`inbox.receive(t).as<T>()`) a reference would dangle once
  /// the temporary Delivery dies at the end of the full expression, so this
  /// overload returns a copy instead — `const auto& m = ...receive().as<T>()`
  /// then binds to a lifetime-extended temporary and stays valid.
  template <typename T>
  T as() const&& {
    return messageAs<T>(*message);
  }
};

/// A message queue owned by a dapplet.  All members are thread-safe.
/// Create via `Dapplet::createInbox`.
///
/// Held by shared_ptr inside the dapplet so drain tasks posted to a shared
/// reactor can pin the inbox (`shared_from_this`) — a task still queued when
/// the dapplet dies runs against a live (closed, empty) inbox instead of a
/// dangling pointer.
class Inbox : public std::enable_shared_from_this<Inbox> {
 public:
  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;

  /// Numeric local reference (nonzero, unique within the dapplet).
  std::uint32_t localId() const { return localId_; }

  /// String name ("" when anonymous).
  const std::string& name() const { return name_; }

  /// Global address other dapplets can bind outboxes to.
  const InboxRef& ref() const { return ref_; }

  // --- the paper's API ---------------------------------------------------

  /// True when no message is queued.
  bool isEmpty() const { return queue_.empty(); }

  /// Suspends the caller until the inbox is nonempty.  Throws ShutdownError
  /// if the dapplet stops while waiting.
  void awaitNonEmpty() {
    if (!queue_.awaitNonEmpty()) throw ShutdownError("inbox closed");
  }

  /// Suspends until nonempty, then removes and returns the head message.
  Delivery receive() { return queue_.pop(); }

  // --- extensions ----------------------------------------------------------

  /// Timed receive without the timeout exception: nullopt when nothing
  /// arrives in time.  Closed inboxes and pending peer-failure alerts still
  /// throw (ShutdownError / PeerDownError) — those are failures, not
  /// timeouts.
  std::optional<Delivery> receiveFor(Duration timeout) {
    return queue_.popFor(timeout);
  }

  /// Typed receive: blocks, then decodes the head message as `T` (throws
  /// SerializationError naming the actual type on mismatch).
  template <typename T>
  T receiveAs() {
    return receive().template as<T>();
  }

  /// Typed timed receive; throws TimeoutError when nothing arrives in time
  /// (a decode target is expected, so here the missed deadline IS the
  /// failure — unlike receiveFor, which reports it as nullopt).
  template <typename T>
  T receiveAs(Duration timeout) {
    auto d = queue_.popFor(timeout);
    if (!d) {
      throw TimeoutError("inbox '" + name_ + "' receive timed out");
    }
    return std::move(*d).template as<T>();
  }

  /// Non-blocking receive.
  std::optional<Delivery> tryReceive() { return queue_.tryPop(); }

  // --- event-driven delivery ----------------------------------------------

  /// Per-delivery callback; runs on a reactor loop thread.
  using MessageHandler = std::function<void(Delivery)>;

  /// Installs (or, with nullptr, removes) the message handler.  While a
  /// handler is installed, deliveries are drained to it on the dapplet's
  /// `Reactor` — in arrival order, one invocation at a time (a strand), with
  /// no thread blocked in between.  Messages already queued are delivered
  /// too.  The handler runs *outside* the install lock, so installing or
  /// replacing a handler never blocks behind a slow invocation (a handler
  /// replaced mid-drain may still receive the remainder of the current
  /// batch).  Removal is the synchronous barrier: `onMessage(nullptr)`
  /// returns only once any in-flight handler invocation has finished, so
  /// the caller may free state the handler captures.  Calling onMessage
  /// from inside the handler throws Error — it would deadlock the removal
  /// barrier.
  ///
  /// Peer-failure alerts (raise()) are not routed to the handler — reactor
  /// consumers observe failures via `Dapplet::addPeerFailureListener`.
  /// Blocking receives remain functional alongside a handler but compete
  /// for the same messages; mixing the two on one inbox is discouraged.
  void onMessage(MessageHandler handler) {
    std::unique_lock lock(handlerMutex_);
    if (draining_ && drainThread_ == std::this_thread::get_id()) {
      throw Error("inbox '" + name_ +
                  "': onMessage called from inside the message handler");
    }
    handler_ = std::move(handler);
    hasHandler_.store(handler_ != nullptr, std::memory_order_release);
    if (handler_) {
      maybeScheduleDrain();
    } else {
      // Removal barrier: wait until no handler invocation is in flight.
      drainCv_.wait(lock, [this] { return !draining_; });
    }
  }

  /// True while a message handler is installed.
  bool hasHandler() const {
    return hasHandler_.load(std::memory_order_acquire);
  }

  /// Timed awaitNonEmpty; false on timeout.
  bool awaitNonEmptyFor(Duration timeout) {
    return queue_.awaitNonEmptyFor(timeout);
  }

  /// Number of queued messages.
  std::size_t size() const { return queue_.size(); }

  /// Largest queue depth ever observed — the backlog high-water mark that
  /// Dapplet::metrics() aggregates into `core.inbox_queue_hwm`.
  std::size_t queueHighWater() const { return queue_.highWater(); }

  /// Visits every queued (delivered but not yet received) message in order
  /// without consuming.  Used by snapshot state functions that must count
  /// inbox backlog as part of local state.  `fn` must not touch this inbox.
  void forEachQueued(const std::function<void(const Delivery&)>& fn) const {
    queue_.forEach(fn);
  }

  /// Posts a peer-failure alert with **drain-then-throw ordering**: queued
  /// messages — including deliveries that arrive *after* the alert, e.g.
  /// survivor traffic racing the eviction notice — always drain first; only
  /// an empty-queue receive consumes the alert and throws PeerDownError with
  /// `reason`.  Raised by the session agent when a member feeding this inbox
  /// crashes.
  void raise(std::string reason) { queue_.raise(std::move(reason)); }

  /// Closes the inbox: blocked receivers wake with ShutdownError and later
  /// deliveries are dropped.  Used during session unlink and dapplet stop.
  void close() { queue_.close(); }

  /// True once close() has been called.
  bool isClosed() const { return queue_.closed(); }

 private:
  friend class Dapplet;

  Inbox(std::uint32_t localId, std::string name, InboxRef ref)
      : localId_(localId), name_(std::move(name)), ref_(std::move(ref)) {}

  /// Routes this inbox's waits through the dapplet's clock (virtual time in
  /// tests).  Called by Dapplet::createInbox before the inbox is visible.
  void setClockSource(ClockSource* clock) { queue_.setClockSource(clock); }

  /// Installs the task poster drains are scheduled through (the dapplet's
  /// reactor).  Called by Dapplet::createInbox before the inbox is visible;
  /// the poster must stay callable for the inbox's lifetime.
  void setScheduler(std::function<void(std::function<void()>)> poster) {
    poster_ = std::move(poster);
  }

  /// Deliveries to a closed inbox are silently dropped.  After raise() the
  /// push still queues normally (drain-then-throw: the data outranks the
  /// pending alert).
  void push(Delivery delivery) {
    if (queue_.tryPush(std::move(delivery))) maybeScheduleDrain();
  }

  /// Schedules one drain task unless one is already pending.  The exchange
  /// makes the drain a strand: at most one runs or is queued at a time, so
  /// handler invocations for this inbox never overlap and stay FIFO.  The
  /// task pins the inbox (see class comment) — reactors outlive dapplets.
  void maybeScheduleDrain() {
    if (!hasHandler_.load(std::memory_order_acquire) || !poster_) return;
    if (drainScheduled_.exchange(true, std::memory_order_acq_rel)) return;
    poster_([self = shared_from_this()] { self->drain(); });
  }

  /// Runs on a reactor loop: feeds up to kDrainBatch queued deliveries to
  /// the handler, then reschedules itself if more remain — the batch bound
  /// keeps one flooded inbox from starving the other dapplets sharded onto
  /// the same loop.  The handler is copied out and invoked *outside*
  /// `handlerMutex_` (the strand property comes from drainScheduled_, not
  /// the mutex), so install/replace never blocks behind a batch;
  /// `draining_` + `drainCv_` give onMessage(nullptr) its removal barrier.
  void drain() {
    constexpr int kDrainBatch = 64;
    MessageHandler handler;
    {
      std::scoped_lock lock(handlerMutex_);
      handler = handler_;
      if (handler) {
        draining_ = true;
        drainThread_ = std::this_thread::get_id();
      }
    }
    if (handler) {
      try {
        // The hasHandler_ re-check ends the batch early once an uninstall
        // is parked on the barrier — it should wait out one invocation, not
        // the whole batch.
        for (int i = 0;
             i < kDrainBatch && hasHandler_.load(std::memory_order_acquire);
             ++i) {
          auto d = queue_.tryPop();
          if (!d) break;
          handler(std::move(*d));
        }
      } catch (...) {
        // A throwing handler must not strand the strand: release the
        // barrier, clear the flag, let the remaining backlog reschedule,
        // and surface the exception to the reactor loop (which logs it).
        finishDrain();
        drainScheduled_.store(false, std::memory_order_release);
        if (!queue_.empty()) maybeScheduleDrain();
        throw;
      }
      finishDrain();
    }
    drainScheduled_.store(false, std::memory_order_release);
    // Re-check after clearing the flag: a push that lost the exchange race
    // above relies on this tail check to re-arm.
    if (!queue_.empty()) maybeScheduleDrain();
  }

  /// Clears the in-flight-handler marker and wakes a parked uninstall.
  void finishDrain() {
    std::scoped_lock lock(handlerMutex_);
    draining_ = false;
    drainThread_ = std::thread::id{};
    drainCv_.notify_all();
  }

  const std::uint32_t localId_;
  const std::string name_;
  const InboxRef ref_;
  SyncQueue<Delivery> queue_;
  std::mutex handlerMutex_;  ///< guards handler_/draining_/drainThread_
  MessageHandler handler_;   ///< guarded by handlerMutex_
  std::condition_variable drainCv_;  ///< signalled when a batch finishes
  bool draining_ = false;            ///< a handler invocation is in flight
  std::thread::id drainThread_{};    ///< thread running the current batch
  std::atomic<bool> hasHandler_{false};
  std::atomic<bool> drainScheduled_{false};
  std::function<void(std::function<void()>)> poster_;
};

}  // namespace dapple
