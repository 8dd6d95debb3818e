#pragma once
/// \file service.hpp
/// \brief The runtime half every inbox-driven service shares.
///
/// Paper §3.2 hands each inbox's messages, one at a time and in order, to a
/// dispatch thread.  Here that thread is an `Inbox::onMessage` strand on the
/// dapplet's `Reactor`: a service owns one inbox, and `serve()` installs the
/// service's dispatch function as its handler.  Handlers share a loop with
/// every other dapplet on the reactor, so they must not block.
///
/// Callers blocked in a service's API (a barrier arrival, a token request, a
/// take from a delivery queue) wait on `cv` through the dapplet's clock.
/// When the dapplet stops, or the service shuts down, `stopped` is set and
/// every such caller wakes and throws ShutdownError — on the system clock
/// and on a virtual one alike.
///
/// A service reaches a peer inbox through `channel()`: the paper's FIFO link
/// from one outbox to one inbox, created on first use and kept for the
/// dapplet's life.  A send on it raises DeliveryError once a message has not
/// been delivered in time (§3.2); `sendOn()` is the one recovery, for the
/// services whose peers may come back: it resets the failed streams and
/// sends again.

#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <stop_token>
#include <string>
#include <unordered_map>

#include "dapple/core/dapplet.hpp"

namespace dapple {

/// State and plumbing shared by one service; service implementations
/// derive from it.  Thread-safe where noted.
class ServiceCore {
 public:
  /// Creates the service's inbox, named `inboxName`, on `dapplet`.
  ServiceCore(Dapplet& dapplet, const std::string& inboxName);

  ServiceCore(const ServiceCore&) = delete;
  ServiceCore& operator=(const ServiceCore&) = delete;

  /// Installs `dispatch` as the inbox's message handler; messages already
  /// queued are delivered at once.  A dispatch that throws is logged and the
  /// service keeps serving.
  void serve(std::function<void(const Delivery&)> dispatch);

  /// Stops the service: removes the handler (waiting out an invocation in
  /// flight), wakes blocked callers with ShutdownError, and destroys the
  /// inbox.  The owning service calls it once, from its destructor.
  void shutdown();

  /// Waits on `cv`, through the dapplet's clock, until `pred()` holds or
  /// `timeout` passes.  Returns false on timeout and throws ShutdownError
  /// when the service stops first.  The caller holds `lock` on `mutex`.
  template <typename Pred>
  bool waitFor(std::unique_lock<std::mutex>& lock, Duration timeout,
               Pred pred) {
    clock().waitFor(lock, cv, timeout, [&] { return stopped || pred(); });
    if (pred()) return true;
    if (stopped) {
      throw ShutdownError("service '" + inbox->name() + "' stopped");
    }
    return false;
  }

  /// Wakes every caller waiting on `cv`, through the dapplet's clock.
  void notifyAll() { clock().notifyAll(cv); }

  /// This service's outbox bound to `peer` alone, created on first use and
  /// kept for the dapplet's life: one per distinct `InboxRef`.  Thread-safe
  /// whether or not the caller holds `mutex`.  Throws AddressError, and
  /// creates nothing, for an invalid `peer`.
  Outbox& channel(const InboxRef& peer);

  /// Sends `msg` on `box`.  On DeliveryError it resets only the streams
  /// that failed, so a healthy destination keeps its unacknowledged frames,
  /// and sends once more.  Returns false when that send fails too or the
  /// message cannot be sent at all, and logs why unless the dapplet stopped.
  bool sendOn(Outbox& box, const Message& msg);

  ClockSource& clock() const { return d.clockSource(); }

  Dapplet& d;
  Inbox* const inbox;
  mutable std::mutex mutex;
  std::condition_variable cv;
  /// Set when the dapplet stops or shutdown() runs.  Guarded by `mutex`.
  bool stopped = false;

 private:
  void markStopped();

  /// Marks the service stopped when the dapplet's stop token fires.
  std::optional<std::stop_callback<std::function<void()>>> onDappletStop_;

  std::mutex channelMutex_;  ///< guards `channels_` alone
  std::unordered_map<InboxRef, Outbox*> channels_;
};

}  // namespace dapple
