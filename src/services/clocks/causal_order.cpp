#include "dapple/services/clocks/causal_order.hpp"

#include <deque>
#include <list>
#include <mutex>

#include "dapple/core/service.hpp"
#include "dapple/serial/data_message.hpp"

namespace dapple {

namespace {
constexpr const char* kMsg = "cob.msg";

/// Member indices are encoded as "0", "1", ... in the vector clocks so the
/// wire format stays compact and member-count independent.
std::string key(std::size_t index) { return std::to_string(index); }
}  // namespace

struct CausalGroup::Impl : ServiceCore {
  Impl(Dapplet& dapplet, std::string groupName)
      : ServiceCore(dapplet, "cob." + groupName),
        name(std::move(groupName)) {}

  const std::string name;

  bool attached = false;
  std::size_t selfIndex = 0;
  std::vector<Outbox*> peers;

  /// Per-publisher delivery counts: delivered[j] = number of j's messages
  /// this member has delivered (including its own, via self-loopback).
  std::vector<std::uint64_t> delivered;
  /// Number of messages this member has published (its own vector-clock
  /// component on outgoing stamps).
  std::uint64_t sentCount = 0;

  struct Held {
    std::size_t from;
    VectorClock stamp;
    Value payload;
  };
  std::list<Held> holdback;
  std::deque<Delivered> ready;

  Stats stats;

  /// BSS deliverability: m from j is deliverable when m is j's next
  /// message (stamp[j] == delivered[j]+1) and every other component of the
  /// stamp has already been delivered here (stamp[k] <= delivered[k]).
  bool deliverableLocked(const Held& held) const {
    for (std::size_t k = 0; k < delivered.size(); ++k) {
      const std::uint64_t component = held.stamp.at(key(k));
      if (k == held.from) {
        if (component != delivered[k] + 1) return false;
      } else if (component > delivered[k]) {
        return false;
      }
    }
    return true;
  }

  void drainLocked() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto it = holdback.begin(); it != holdback.end();) {
        if (deliverableLocked(*it)) {
          Delivered item;
          item.from = it->from;
          item.seq = it->stamp.at(key(it->from));
          item.payload = std::move(it->payload);
          ++delivered[it->from];
          ready.push_back(std::move(item));
          ++stats.delivered;
          it = holdback.erase(it);
          progressed = true;
          notifyAll();
        } else {
          ++it;
        }
      }
    }
  }

  void dispatch(const Delivery& del) {
    const auto* msg = dynamic_cast<const DataMessage*>(del.message.get());
    if (msg == nullptr || msg->kind() != kMsg) return;
    std::scoped_lock lock(mutex);
    Held held;
    held.from = static_cast<std::size_t>(msg->get("idx").asInt());
    held.stamp = VectorClock::fromValue(msg->get("vc"));
    held.payload = msg->get("value");
    if (!deliverableLocked(held)) ++stats.heldBack;
    holdback.push_back(std::move(held));
    drainLocked();
  }
};

CausalGroup::CausalGroup(Dapplet& dapplet, const std::string& name)
    : impl_(std::make_shared<Impl>(dapplet, name)) {
  impl_->serve(
      [impl = impl_.get()](const Delivery& del) { impl->dispatch(del); });
}

CausalGroup::~CausalGroup() { impl_->shutdown(); }

InboxRef CausalGroup::ref() const { return impl_->inbox->ref(); }

void CausalGroup::attach(const std::vector<InboxRef>& members,
                         std::size_t selfIndex) {
  std::scoped_lock lock(impl_->mutex);
  impl_->selfIndex = selfIndex;
  impl_->delivered.assign(members.size(), 0);
  impl_->peers.resize(members.size(), nullptr);
  for (std::size_t i = 0; i < members.size(); ++i) {
    impl_->peers[i] = &impl_->channel(members[i]);
  }
  impl_->attached = true;
}

void CausalGroup::publish(const Value& payload) {
  std::scoped_lock lock(impl_->mutex);
  if (!impl_->attached) throw SessionError("group not attached");
  // Birman–Schiper–Stephenson stamp: everything delivered here so far
  // causally precedes this message; our own component counts *publishes*
  // so our messages are causally chained even before self-delivery.
  ++impl_->sentCount;
  std::map<std::string, std::uint64_t> counts;
  for (std::size_t k = 0; k < impl_->delivered.size(); ++k) {
    counts[key(k)] =
        k == impl_->selfIndex ? impl_->sentCount : impl_->delivered[k];
  }
  const VectorClock stamp{std::move(counts)};
  DataMessage msg(kMsg);
  msg.set("idx", Value(static_cast<long long>(impl_->selfIndex)));
  msg.set("vc", stamp.toValue());
  msg.set("value", payload);
  ++impl_->stats.published;
  for (Outbox* box : impl_->peers) box->send(msg);
}

CausalGroup::Delivered CausalGroup::take(Duration timeout) {
  std::unique_lock lock(impl_->mutex);
  if (!impl_->waitFor(lock, timeout,
                      [&] { return !impl_->ready.empty(); })) {
    throw TimeoutError("causal group '" + impl_->name + "' take timed out");
  }
  Delivered item = std::move(impl_->ready.front());
  impl_->ready.pop_front();
  return item;
}

std::optional<CausalGroup::Delivered> CausalGroup::tryTake() {
  std::scoped_lock lock(impl_->mutex);
  if (impl_->ready.empty()) return std::nullopt;
  Delivered item = std::move(impl_->ready.front());
  impl_->ready.pop_front();
  return item;
}

CausalGroup::Stats CausalGroup::stats() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->stats;
}

}  // namespace dapple
