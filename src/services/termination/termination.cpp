#include "dapple/services/termination/termination.hpp"

#include <mutex>
#include <optional>

#include "dapple/core/service.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/util/log.hpp"

namespace dapple {

namespace {
constexpr const char* kAck = "td.ack";
}  // namespace

struct TerminationDetector::Impl : ServiceCore {
  explicit Impl(Dapplet& dapplet) : ServiceCore(dapplet, "td.ctl") {}

  bool attached = false;
  std::size_t selfIndex = 0;
  std::size_t rootIndex = 0;
  std::vector<Outbox*> peers;

  // Dijkstra–Scholten node state.
  bool engaged = false;
  bool quiet = true;
  std::optional<std::size_t> parent;
  std::int64_t deficit = 0;
  bool rootTerminated = false;

  Stats stats;

  void sendAck(std::size_t to) {
    DataMessage ack(kAck);
    peers.at(to)->send(ack);
    ++stats.acksSent;
  }

  /// Collapses this node's subtree when it is idle with zero deficit.
  void tryDisengageLocked() {
    if (!engaged || !quiet || deficit != 0) return;
    if (selfIndex == rootIndex) {
      engaged = false;
      rootTerminated = true;
      notifyAll();
      return;
    }
    engaged = false;
    if (parent) {
      const std::size_t p = *parent;
      parent.reset();
      sendAck(p);  // the deferred ack of the engaging message
    }
  }

  void dispatch(const Delivery& del) {
    const auto* msg = dynamic_cast<const DataMessage*>(del.message.get());
    if (msg == nullptr || msg->kind() != kAck) return;
    std::scoped_lock lock(mutex);
    --deficit;
    if (deficit < 0) {
      DAPPLE_LOG(kWarn, "td") << d.name() << ": negative deficit";
      deficit = 0;
    }
    tryDisengageLocked();
  }
};

TerminationDetector::TerminationDetector(Dapplet& dapplet)
    : impl_(std::make_shared<Impl>(dapplet)) {
  impl_->serve(
      [impl = impl_.get()](const Delivery& del) { impl->dispatch(del); });
}

TerminationDetector::~TerminationDetector() { impl_->shutdown(); }

InboxRef TerminationDetector::ref() const { return impl_->inbox->ref(); }

void TerminationDetector::attach(const std::vector<InboxRef>& members,
                                 std::size_t selfIndex,
                                 std::size_t rootIndex) {
  std::scoped_lock lock(impl_->mutex);
  impl_->selfIndex = selfIndex;
  impl_->rootIndex = rootIndex;
  impl_->peers.resize(members.size(), nullptr);
  for (std::size_t i = 0; i < members.size(); ++i) {
    Outbox& box = impl_->d.createOutbox();
    box.add(members[i]);
    impl_->peers[i] = &box;
  }
  impl_->attached = true;
}

void TerminationDetector::start() {
  std::scoped_lock lock(impl_->mutex);
  if (impl_->selfIndex != impl_->rootIndex) {
    throw SessionError("only the root starts the computation");
  }
  impl_->engaged = true;
  impl_->quiet = false;
  impl_->rootTerminated = false;
  ++impl_->stats.engagements;
}

void TerminationDetector::onSend(std::size_t dest) {
  (void)dest;  // DS needs only the count; dest kept for interface symmetry
  std::scoped_lock lock(impl_->mutex);
  ++impl_->deficit;
}

void TerminationDetector::onReceive(std::size_t src) {
  std::scoped_lock lock(impl_->mutex);
  impl_->quiet = false;
  if (!impl_->engaged) {
    // First message engages this member; its ack is deferred until the
    // member's whole subtree has collapsed.
    impl_->engaged = true;
    impl_->parent = src;
    ++impl_->stats.engagements;
  } else {
    impl_->sendAck(src);
  }
}

void TerminationDetector::onQuiet() {
  std::scoped_lock lock(impl_->mutex);
  impl_->quiet = true;
  impl_->tryDisengageLocked();
}

void TerminationDetector::awaitTermination(Duration timeout) {
  std::unique_lock lock(impl_->mutex);
  if (impl_->selfIndex != impl_->rootIndex) {
    throw SessionError("only the root awaits termination");
  }
  if (!impl_->waitFor(lock, timeout,
                      [&] { return impl_->rootTerminated; })) {
    throw TimeoutError("termination detection timed out");
  }
}

bool TerminationDetector::terminated() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->rootTerminated;
}

TerminationDetector::Stats TerminationDetector::stats() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->stats;
}

}  // namespace dapple
