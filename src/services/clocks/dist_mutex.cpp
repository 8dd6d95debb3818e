#include "dapple/services/clocks/dist_mutex.hpp"

#include <mutex>
#include <vector>

#include "dapple/core/service.hpp"
#include "dapple/serial/data_message.hpp"

namespace dapple {

namespace {
constexpr const char* kRequest = "ra.request";
constexpr const char* kReply = "ra.reply";
}  // namespace

struct DistributedMutex::Impl : ServiceCore {
  Impl(Dapplet& dapplet, std::string mutexName)
      : ServiceCore(dapplet, "ra." + mutexName), name(std::move(mutexName)) {}

  const std::string name;

  std::vector<Outbox*> peerOutboxes;  // index-aligned; self slot is null
  std::size_t selfIndex = 0;
  std::size_t memberCount = 0;
  bool attached = false;

  // Ricart–Agrawala state.
  bool requesting = false;
  bool inCs = false;
  LamportStamp myStamp;
  std::size_t repliesPending = 0;
  std::vector<std::pair<std::size_t, std::uint64_t>> deferred;  // (idx, ts)

  Stats stats;

  void broadcastRequest() {
    DataMessage msg(kRequest);
    msg.set("ts", Value(static_cast<long long>(myStamp.time)));
    msg.set("idx", Value(static_cast<long long>(selfIndex)));
    for (std::size_t i = 0; i < peerOutboxes.size(); ++i) {
      if (i == selfIndex) continue;
      peerOutboxes[i]->send(msg);
      ++stats.messages;
    }
  }

  void sendReply(std::size_t to, std::uint64_t ackTs) {
    DataMessage msg(kReply);
    msg.set("idx", Value(static_cast<long long>(selfIndex)));
    // Echo of the request timestamp: lets the requester discard replies
    // that belong to an earlier (timed-out) request round.
    msg.set("ack", Value(static_cast<long long>(ackTs)));
    peerOutboxes[to]->send(msg);
    ++stats.messages;
  }

  void onMessage(const Delivery& del) {
    const auto* msg = dynamic_cast<const DataMessage*>(del.message.get());
    if (msg == nullptr) return;
    std::scoped_lock lock(mutex);
    if (msg->kind() == kRequest) {
      const LamportStamp theirs{
          static_cast<std::uint64_t>(msg->get("ts").asInt()),
          static_cast<std::uint64_t>(msg->get("idx").asInt())};
      const auto from = static_cast<std::size_t>(theirs.id);
      // Defer while in the CS, or while our own earlier-stamped request is
      // outstanding ("resolved in favor of the earlier timestamp", ties in
      // favor of the lower id via LamportStamp's ordering).
      const bool mineWins = inCs || (requesting && myStamp < theirs);
      if (mineWins) {
        deferred.emplace_back(from, theirs.time);
        ++stats.requestsDeferred;
      } else {
        sendReply(from, theirs.time);
      }
    } else if (msg->kind() == kReply) {
      const auto ack = static_cast<std::uint64_t>(msg->get("ack").asInt());
      if (requesting && ack == myStamp.time && repliesPending > 0) {
        --repliesPending;
        if (repliesPending == 0) notifyAll();
      }
    }
  }
};

DistributedMutex::DistributedMutex(Dapplet& dapplet, const std::string& name)
    : impl_(std::make_shared<Impl>(dapplet, name)) {
  impl_->serve(
      [impl = impl_.get()](const Delivery& del) { impl->onMessage(del); });
}

DistributedMutex::~DistributedMutex() { impl_->shutdown(); }

InboxRef DistributedMutex::ref() const { return impl_->inbox->ref(); }

void DistributedMutex::attach(const std::vector<InboxRef>& members,
                              std::size_t selfIndex) {
  std::scoped_lock lock(impl_->mutex);
  if (impl_->attached) throw SessionError("mutex already attached");
  impl_->selfIndex = selfIndex;
  impl_->memberCount = members.size();
  impl_->peerOutboxes.resize(members.size(), nullptr);
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i == selfIndex) continue;
    Outbox& box = impl_->d.createOutbox();
    box.add(members[i]);
    impl_->peerOutboxes[i] = &box;
  }
  impl_->attached = true;
}

void DistributedMutex::acquire(Duration timeout) {
  std::unique_lock lock(impl_->mutex);
  if (!impl_->attached) throw SessionError("mutex not attached");
  if (impl_->inCs || impl_->requesting) {
    throw SessionError("mutex is not recursive");
  }
  impl_->requesting = true;
  impl_->myStamp = LamportStamp{impl_->d.clock().tick(), impl_->selfIndex};
  impl_->repliesPending = impl_->memberCount - 1;
  impl_->broadcastRequest();
  bool granted = false;
  try {
    granted = impl_->waitFor(lock, timeout,
                             [&] { return impl_->repliesPending == 0; });
  } catch (const ShutdownError&) {
    impl_->requesting = false;
    throw;
  }
  impl_->requesting = false;
  if (!granted) {
    throw TimeoutError("distributed mutex '" + impl_->name +
                       "' acquire timed out");
  }
  impl_->inCs = true;
  ++impl_->stats.acquisitions;
}

void DistributedMutex::release() {
  std::scoped_lock lock(impl_->mutex);
  if (!impl_->inCs) throw SessionError("release without acquire");
  impl_->inCs = false;
  for (const auto& [to, ts] : impl_->deferred) impl_->sendReply(to, ts);
  impl_->deferred.clear();
}

bool DistributedMutex::held() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->inCs;
}

DistributedMutex::Stats DistributedMutex::stats() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->stats;
}

}  // namespace dapple
