#include "dapple/core/service.hpp"

#include "dapple/util/log.hpp"

namespace dapple {

namespace {
constexpr const char* kLog = "service";
}  // namespace

ServiceCore::ServiceCore(Dapplet& dapplet, const std::string& inboxName)
    : d(dapplet), inbox(&dapplet.createInbox(inboxName)) {
  onDappletStop_.emplace(d.stopToken(), [this] { markStopped(); });
}

void ServiceCore::serve(std::function<void(const Delivery&)> dispatch) {
  inbox->onMessage([this, dispatch = std::move(dispatch)](Delivery del) {
    try {
      dispatch(del);
    } catch (const ShutdownError&) {
      // The dapplet is stopping under us; the backlog drains harmlessly.
    } catch (const std::exception& e) {
      // Error subclasses and standard exceptions alike (a malformed message
      // can surface std::out_of_range): log and keep serving.
      DAPPLE_LOG(kWarn, kLog) << d.name() << ": '" << inbox->name()
                              << "' dispatch error: " << e.what();
    }
  });
}

void ServiceCore::shutdown() {
  // The removal barrier: after this line no dispatch runs again.
  inbox->onMessage(nullptr);
  onDappletStop_.reset();  // waits out a stop callback running right now
  markStopped();
  d.destroyInbox(*inbox);
}

Outbox& ServiceCore::channel(const InboxRef& peer) {
  // Checked before the table is touched, so a malformed ref (one taken from
  // a peer's message, say) leaves neither an entry nor an outbox behind.
  if (!peer.valid()) throw AddressError("channel: invalid inbox address");
  std::scoped_lock lock(channelMutex_);
  Outbox*& box = channels_[peer];
  if (box == nullptr) {
    box = &d.createOutbox();
    box->add(peer);
  }
  return *box;
}

bool ServiceCore::sendOn(Outbox& box, const Message& msg) {
  try {
    try {
      box.send(msg);
    } catch (const DeliveryError&) {
      // A failed stream has already dropped its frames; the healthy ones
      // keep theirs.
      ReliableEndpoint& transport = d.transport();
      for (const InboxRef& dst : box.destinations()) {
        if (transport.probeStream(dst.node, box.id()).failed) {
          transport.resetStream(dst.node, box.id());
        }
      }
      box.send(msg);
    }
    return true;
  } catch (const ShutdownError&) {
    return false;  // the dapplet stopped or crashed under the sender
  } catch (const Error& e) {
    DAPPLE_LOG(kWarn, kLog) << d.name() << ": " << msg.typeName()
                            << " on outbox #" << box.id()
                            << " not sent: " << e.what();
    return false;
  }
}

void ServiceCore::markStopped() {
  std::scoped_lock lock(mutex);
  stopped = true;
  notifyAll();
}

}  // namespace dapple
