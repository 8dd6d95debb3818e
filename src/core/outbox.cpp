#include "dapple/core/outbox.hpp"

#include <algorithm>

#include "dapple/core/dapplet.hpp"

namespace dapple {

void Outbox::add(const InboxRef& ref) {
  if (!ref.valid()) throw AddressError("add: invalid inbox address");
  std::scoped_lock lock(mutex_);
  if (std::find(destinations_->begin(), destinations_->end(), ref) !=
      destinations_->end()) {
    return;  // "appends the specified inbox ... if it is not already on it"
  }
  auto next = std::make_shared<std::vector<InboxRef>>(*destinations_);
  next->push_back(ref);
  destinations_ = std::move(next);
  ++version_;
}

void Outbox::remove(const InboxRef& ref) {
  std::scoped_lock lock(mutex_);
  const auto it =
      std::find(destinations_->begin(), destinations_->end(), ref);
  if (it == destinations_->end()) {
    throw AddressError("delete: " + ref.toString() +
                       " is not bound to this outbox");
  }
  auto next = std::make_shared<std::vector<InboxRef>>(*destinations_);
  next->erase(next->begin() + (it - destinations_->begin()));
  destinations_ = std::move(next);
  ++version_;
}

std::size_t Outbox::removeNode(const NodeAddress& node) {
  std::scoped_lock lock(mutex_);
  auto next = std::make_shared<std::vector<InboxRef>>(*destinations_);
  const std::size_t dropped = std::erase_if(
      *next, [&](const InboxRef& ref) { return ref.node == node; });
  if (dropped != 0) {
    destinations_ = std::move(next);
    ++version_;
  }
  return dropped;
}

void Outbox::send(const Message& msg) {
  std::shared_ptr<const std::vector<InboxRef>> destinations;
  {
    std::scoped_lock lock(mutex_);
    destinations = destinations_;  // ref bump; the list itself is immutable
  }
  owner_.sendFromOutbox(id_, *destinations, msg);
}

void Outbox::reset() {
  std::shared_ptr<const std::vector<InboxRef>> destinations;
  {
    std::scoped_lock lock(mutex_);
    destinations = destinations_;
  }
  for (const InboxRef& dst : *destinations) {
    owner_.transport().resetStream(dst.node, id_);
  }
}

std::vector<InboxRef> Outbox::destinations() const {
  std::scoped_lock lock(mutex_);
  return *destinations_;
}

std::size_t Outbox::fanout() const {
  std::scoped_lock lock(mutex_);
  return destinations_->size();
}

std::uint64_t Outbox::destinationsVersion() const {
  std::scoped_lock lock(mutex_);
  return version_;
}

}  // namespace dapple
