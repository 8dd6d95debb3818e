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

void ServiceCore::markStopped() {
  std::scoped_lock lock(mutex);
  stopped = true;
  notifyAll();
}

}  // namespace dapple
