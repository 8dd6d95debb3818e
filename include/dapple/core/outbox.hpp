#pragma once
/// \file outbox.hpp
/// \brief Outboxes: the send side of the paper's communication model.
///
/// Paper §3.2 methods: `add(ipa)` (bind an inbox, creating a FIFO channel),
/// `delete(ipa)` (unbind; throws if not bound), `send(msg)` (copy along
/// every channel; delivery failure raises an exception), `destination()`
/// (the bound list).  One outbox may bind arbitrarily many inboxes and vice
/// versa; each channel is FIFO while inter-channel order is arbitrary.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dapple/core/inbox_ref.hpp"
#include "dapple/serial/message.hpp"
#include "dapple/util/error.hpp"

namespace dapple {

class Dapplet;

/// A send port owned by a dapplet.  All members are thread-safe.
/// Create via `Dapplet::createOutbox`.
class Outbox {
 public:
  Outbox(const Outbox&) = delete;
  Outbox& operator=(const Outbox&) = delete;

  /// Unique id within the dapplet; identifies this outbox's channels on the
  /// wire.
  std::uint64_t id() const { return id_; }

  /// String name ("" when anonymous).
  const std::string& name() const { return name_; }

  // --- the paper's API ---------------------------------------------------

  /// Binds `ref`: appends it to the destination list if not already there
  /// (idempotent, as specified) and establishes a FIFO channel to it.
  void add(const InboxRef& ref);

  /// Unbinds `ref`; throws AddressError when it is not bound (the paper's
  /// `delete`, renamed because `delete` is reserved in C++).
  void remove(const InboxRef& ref);

  /// Unbinds every destination living at `node` (used when a peer dapplet
  /// is declared crashed).  Returns the number of bindings dropped; never
  /// throws on absence.
  std::size_t removeNode(const NodeAddress& node);

  /// Sends a copy of `msg` along every channel.  One logical-clock send
  /// event stamps all copies.  Throws DeliveryError, and sends no copy, if
  /// a previous message on one of the bound channels exceeded the delivery
  /// timeout and that channel has not been reset since.
  void send(const Message& msg);

  /// The list of bound inboxes (the paper's `destination()`).
  std::vector<InboxRef> destinations() const;

  /// Clears a delivery failure (e.g. after a partition heals): resets the
  /// stream of every bound channel, dropping its unacknowledged messages.
  void reset();

  /// Number of bound inboxes.
  std::size_t fanout() const;

  /// Monotonic counter bumped by every add/remove/removeNode; lets callers
  /// detect binding churn without comparing lists.
  std::uint64_t destinationsVersion() const;

 private:
  friend class Dapplet;

  Outbox(Dapplet& owner, std::uint64_t id, std::string name)
      : owner_(owner), id_(id), name_(std::move(name)) {}

  Dapplet& owner_;
  const std::uint64_t id_;
  const std::string name_;

  mutable std::mutex mutex_;
  /// Immutable snapshot, replaced copy-on-write by add/remove/removeNode.
  /// send() grabs a reference under the lock — a pointer bump, not a list
  /// copy — so the send fast path cost is independent of fan-out width.
  std::shared_ptr<const std::vector<InboxRef>> destinations_ =
      std::make_shared<const std::vector<InboxRef>>();
  std::uint64_t version_ = 0;
};

}  // namespace dapple
