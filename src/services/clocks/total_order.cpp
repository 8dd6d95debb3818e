#include "dapple/services/clocks/total_order.hpp"

#include <deque>
#include <map>
#include <mutex>
#include <set>

#include "dapple/core/service.hpp"
#include "dapple/serial/data_message.hpp"

namespace dapple {

namespace {
constexpr const char* kMsg = "tob.msg";
constexpr const char* kAck = "tob.ack";
}  // namespace

struct TotalOrderGroup::Impl : ServiceCore {
  Impl(Dapplet& dapplet, std::string groupName)
      : ServiceCore(dapplet, "tob." + groupName),
        name(std::move(groupName)) {}

  const std::string name;

  bool attached = false;
  std::size_t selfIndex = 0;
  std::vector<Outbox*> peers;

  /// Pending messages keyed by their global order stamp.
  std::map<LamportStamp, Delivered> holdback;
  /// Highest timestamp heard from each member (message or ack).
  std::vector<std::uint64_t> lastHeard;
  /// Timestamps of our own publishes still in self-loopback flight: a
  /// head with a larger stamp must wait for them or members would deliver
  /// their own messages late relative to everyone else.
  std::set<std::uint64_t> ownInFlight;
  /// Messages whose order is settled, ready for take().
  std::deque<Delivered> ready;

  Stats stats;

  void broadcast(const DataMessage& msg) {
    for (Outbox* box : peers) box->send(msg);
  }

  /// Moves every settled holdback message to the ready queue.  A message
  /// is settled when each member has been heard from strictly after it —
  /// FIFO channels then preclude earlier-stamped surprises.
  void drainLocked() {
    while (!holdback.empty()) {
      const auto& [stamp, msg] = *holdback.begin();
      bool settled =
          ownInFlight.empty() || *ownInFlight.begin() > stamp.time;
      for (std::size_t j = 0; settled && j < lastHeard.size(); ++j) {
        if (j == selfIndex) continue;
        if (lastHeard[j] <= stamp.time) settled = false;
      }
      if (!settled) break;
      ready.push_back(holdback.begin()->second);
      holdback.erase(holdback.begin());
      ++stats.delivered;
      notifyAll();
    }
  }

  void dispatch(const Delivery& del) {
    const auto* msg = dynamic_cast<const DataMessage*>(del.message.get());
    if (msg == nullptr) return;
    if (msg->kind() == kMsg) {
      const LamportStamp stamp{
          static_cast<std::uint64_t>(msg->get("ts").asInt()),
          static_cast<std::uint64_t>(msg->get("idx").asInt())};
      DataMessage ack(kAck);
      {
        std::scoped_lock lock(mutex);
        Delivered item;
        item.stamp = stamp;
        item.from = static_cast<std::size_t>(stamp.id);
        item.payload = msg->get("value");
        holdback.emplace(stamp, std::move(item));
        stats.maxQueueDepth =
            std::max<std::uint64_t>(stats.maxQueueDepth, holdback.size());
        if (stamp.id == selfIndex) ownInFlight.erase(stamp.time);
        if (stamp.id < lastHeard.size()) {
          lastHeard[stamp.id] = std::max(lastHeard[stamp.id], stamp.time);
        }
        // The ack timestamp is a fresh clock tick, strictly above the
        // observed message time (the receive already advanced our clock).
        ack.set("ts", Value(static_cast<long long>(d.clock().tick())));
        ack.set("idx", Value(static_cast<long long>(selfIndex)));
        ++stats.acksSent;
        drainLocked();
        // Send under the same lock as publish(): per-channel sends must
        // leave in non-decreasing timestamp order or a later ack could
        // overtake an earlier message on the wire and unblock a peer's
        // queue prematurely.
        broadcast(ack);
      }
    } else if (msg->kind() == kAck) {
      std::scoped_lock lock(mutex);
      const auto from = static_cast<std::size_t>(msg->get("idx").asInt());
      const auto ts = static_cast<std::uint64_t>(msg->get("ts").asInt());
      if (from < lastHeard.size()) {
        lastHeard[from] = std::max(lastHeard[from], ts);
      }
      drainLocked();
    }
  }
};

TotalOrderGroup::TotalOrderGroup(Dapplet& dapplet, const std::string& name)
    : impl_(std::make_shared<Impl>(dapplet, name)) {
  impl_->serve(
      [impl = impl_.get()](const Delivery& del) { impl->dispatch(del); });
}

TotalOrderGroup::~TotalOrderGroup() { impl_->shutdown(); }

InboxRef TotalOrderGroup::ref() const { return impl_->inbox->ref(); }

void TotalOrderGroup::attach(const std::vector<InboxRef>& members,
                             std::size_t selfIndex) {
  std::scoped_lock lock(impl_->mutex);
  impl_->selfIndex = selfIndex;
  impl_->lastHeard.assign(members.size(), 0);
  impl_->peers.resize(members.size(), nullptr);
  for (std::size_t i = 0; i < members.size(); ++i) {
    impl_->peers[i] = &impl_->channel(members[i]);
  }
  impl_->attached = true;
}

LamportStamp TotalOrderGroup::publish(const Value& payload) {
  DataMessage msg(kMsg);
  LamportStamp stamp;
  {
    std::scoped_lock lock(impl_->mutex);
    if (!impl_->attached) throw SessionError("group not attached");
    stamp.time = impl_->d.clock().tick();
    stamp.id = impl_->selfIndex;
    msg.set("ts", Value(static_cast<long long>(stamp.time)));
    msg.set("idx", Value(static_cast<long long>(stamp.id)));
    msg.set("value", payload);
    ++impl_->stats.published;
    impl_->ownInFlight.insert(stamp.time);
    impl_->broadcast(msg);
  }
  return stamp;
}

TotalOrderGroup::Delivered TotalOrderGroup::take(Duration timeout) {
  std::unique_lock lock(impl_->mutex);
  if (!impl_->waitFor(lock, timeout,
                      [&] { return !impl_->ready.empty(); })) {
    throw TimeoutError("total-order group '" + impl_->name +
                       "' take timed out");
  }
  Delivered item = std::move(impl_->ready.front());
  impl_->ready.pop_front();
  return item;
}

std::optional<TotalOrderGroup::Delivered> TotalOrderGroup::tryTake() {
  std::scoped_lock lock(impl_->mutex);
  if (impl_->ready.empty()) return std::nullopt;
  Delivered item = std::move(impl_->ready.front());
  impl_->ready.pop_front();
  return item;
}

TotalOrderGroup::Stats TotalOrderGroup::stats() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->stats;
}

}  // namespace dapple
