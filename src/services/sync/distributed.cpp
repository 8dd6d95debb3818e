#include "dapple/services/sync/distributed.hpp"

#include <map>
#include <mutex>

#include "dapple/core/service.hpp"
#include "dapple/serial/data_message.hpp"

namespace dapple {

namespace {
constexpr const char* kArrive = "bar.arrive";
constexpr const char* kRelease = "bar.release";

constexpr const char* kPropose = "sav.propose";
constexpr const char* kValue = "sav.value";
constexpr const char* kReject = "sav.reject";
}  // namespace

// ===========================================================================
// DistributedBarrier
// ===========================================================================

struct DistributedBarrier::Impl : ServiceCore {
  Impl(Dapplet& dapplet, std::string barrierName)
      : ServiceCore(dapplet, "bar." + barrierName),
        name(std::move(barrierName)) {}

  const std::string name;

  bool attached = false;
  std::size_t selfIndex = 0;
  std::vector<Outbox*> peers;

  // Member side.
  std::uint64_t nextGeneration = 0;   ///< generation of the next arrive
  std::uint64_t releasedThrough = 0;  ///< highest released generation + 1

  // Coordinator side (selfIndex == 0).
  std::map<std::uint64_t, std::size_t> arrivals;  // generation -> count

  void dispatch(const Delivery& del) {
    const auto* msg = dynamic_cast<const DataMessage*>(del.message.get());
    if (msg == nullptr) return;
    std::scoped_lock lock(mutex);
    if (msg->kind() == kArrive && selfIndex == 0) {
      const auto gen = static_cast<std::uint64_t>(msg->get("gen").asInt());
      if (++arrivals[gen] == peers.size()) {
        arrivals.erase(gen);
        DataMessage release(kRelease);
        release.set("gen", Value(static_cast<long long>(gen)));
        for (Outbox* box : peers) box->send(release);
      }
    } else if (msg->kind() == kRelease) {
      const auto gen = static_cast<std::uint64_t>(msg->get("gen").asInt());
      if (gen + 1 > releasedThrough) {
        releasedThrough = gen + 1;
        notifyAll();
      }
    }
  }
};

DistributedBarrier::DistributedBarrier(Dapplet& dapplet,
                                       const std::string& name)
    : impl_(std::make_shared<Impl>(dapplet, name)) {
  impl_->serve(
      [impl = impl_.get()](const Delivery& del) { impl->dispatch(del); });
}

DistributedBarrier::~DistributedBarrier() { impl_->shutdown(); }

InboxRef DistributedBarrier::ref() const { return impl_->inbox->ref(); }

void DistributedBarrier::attach(const std::vector<InboxRef>& members,
                                std::size_t selfIndex) {
  std::scoped_lock lock(impl_->mutex);
  impl_->selfIndex = selfIndex;
  if (selfIndex == 0) {
    // Coordinator keeps an outbox to every member for RELEASE broadcast.
    impl_->peers.resize(members.size(), nullptr);
    for (std::size_t i = 0; i < members.size(); ++i) {
      Outbox& box = impl_->d.createOutbox();
      box.add(members[i]);
      impl_->peers[i] = &box;
    }
  } else {
    // Plain members only talk to the coordinator.
    impl_->peers.resize(1, nullptr);
    Outbox& box = impl_->d.createOutbox();
    box.add(members[0]);
    impl_->peers[0] = &box;
  }
  impl_->attached = true;
}

std::uint64_t DistributedBarrier::arriveAndWait(Duration timeout) {
  std::unique_lock lock(impl_->mutex);
  if (!impl_->attached) throw SessionError("barrier not attached");
  const std::uint64_t gen = impl_->nextGeneration++;
  DataMessage arrive(kArrive);
  arrive.set("gen", Value(static_cast<long long>(gen)));
  arrive.set("idx", Value(static_cast<long long>(impl_->selfIndex)));
  impl_->peers[0]->send(arrive);  // coordinator (possibly self, loop-back)
  if (!impl_->waitFor(lock, timeout,
                      [&] { return impl_->releasedThrough > gen; })) {
    throw TimeoutError("distributed barrier '" + impl_->name +
                       "' timed out at generation " + std::to_string(gen));
  }
  return gen;
}

// ===========================================================================
// DistributedSingleAssignment
// ===========================================================================

struct DistributedSingleAssignment::Impl : ServiceCore {
  Impl(Dapplet& dapplet, std::string varName)
      : ServiceCore(dapplet, "sav." + varName), name(std::move(varName)) {}

  const std::string name;

  bool attached = false;
  std::size_t selfIndex = 0;
  std::vector<Outbox*> peers;

  std::optional<Value> value;

  // Setter-side: outcome of our own proposal.
  std::optional<bool> proposalWon;

  // Owner side (selfIndex 0 is the serializer).
  bool ownerAssigned = false;

  void dispatch(const Delivery& del) {
    const auto* msg = dynamic_cast<const DataMessage*>(del.message.get());
    if (msg == nullptr) return;
    std::scoped_lock lock(mutex);
    if (msg->kind() == kPropose && selfIndex == 0) {
      const auto from = static_cast<std::size_t>(msg->get("idx").asInt());
      if (ownerAssigned) {
        DataMessage reject(kReject);
        peers.at(from)->send(reject);
        return;
      }
      ownerAssigned = true;
      DataMessage broadcast(kValue);
      broadcast.set("value", msg->get("value"));
      broadcast.set("winner", Value(static_cast<long long>(from)));
      for (Outbox* box : peers) box->send(broadcast);
    } else if (msg->kind() == kValue) {
      if (!value) {
        value.emplace(msg->get("value"));
        const auto winner =
            static_cast<std::size_t>(msg->get("winner").asInt());
        if (winner == selfIndex && !proposalWon) proposalWon = true;
        notifyAll();
      }
    } else if (msg->kind() == kReject) {
      if (!proposalWon) {
        proposalWon = false;
        notifyAll();
      }
    }
  }
};

DistributedSingleAssignment::DistributedSingleAssignment(
    Dapplet& dapplet, const std::string& name)
    : impl_(std::make_shared<Impl>(dapplet, name)) {
  impl_->serve(
      [impl = impl_.get()](const Delivery& del) { impl->dispatch(del); });
}

DistributedSingleAssignment::~DistributedSingleAssignment() {
  impl_->shutdown();
}

InboxRef DistributedSingleAssignment::ref() const {
  return impl_->inbox->ref();
}

void DistributedSingleAssignment::attach(const std::vector<InboxRef>& members,
                                         std::size_t selfIndex) {
  std::scoped_lock lock(impl_->mutex);
  impl_->selfIndex = selfIndex;
  if (selfIndex == 0) {
    impl_->peers.resize(members.size(), nullptr);
    for (std::size_t i = 0; i < members.size(); ++i) {
      Outbox& box = impl_->d.createOutbox();
      box.add(members[i]);
      impl_->peers[i] = &box;
    }
  } else {
    impl_->peers.resize(1, nullptr);
    Outbox& box = impl_->d.createOutbox();
    box.add(members[0]);
    impl_->peers[0] = &box;
  }
  impl_->attached = true;
}

bool DistributedSingleAssignment::set(const Value& value) {
  std::unique_lock lock(impl_->mutex);
  if (!impl_->attached) throw SessionError("variable not attached");
  impl_->proposalWon.reset();
  DataMessage propose(kPropose);
  propose.set("idx", Value(static_cast<long long>(impl_->selfIndex)));
  propose.set("value", value);
  impl_->peers[0]->send(propose);
  if (!impl_->waitFor(lock, seconds(30),
                      [&] { return impl_->proposalWon.has_value(); })) {
    throw TimeoutError("single-assignment set timed out");
  }
  return *impl_->proposalWon;
}

Value DistributedSingleAssignment::get(Duration timeout) const {
  std::unique_lock lock(impl_->mutex);
  if (!impl_->waitFor(lock, timeout,
                      [&] { return impl_->value.has_value(); })) {
    throw TimeoutError("single-assignment '" + impl_->name +
                       "' get timed out");
  }
  return *impl_->value;
}

bool DistributedSingleAssignment::isSet() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->value.has_value();
}

}  // namespace dapple
