#include "dapple/core/rpc.hpp"

#include <mutex>
#include <optional>

#include "dapple/core/service.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/util/log.hpp"

namespace dapple {

namespace {
constexpr const char* kLog = "rpc";
constexpr const char* kRequestKind = "rpc.req";
constexpr const char* kReplyKind = "rpc.rsp";
}  // namespace

struct RpcServer::Impl : ServiceCore {
  Impl(Dapplet& dapplet, const std::string& inboxName)
      : ServiceCore(dapplet, inboxName) {}

  std::map<std::string, Method> methods;
  Stats stats;

  void serveOne(const Delivery& del) {
    const auto* req = dynamic_cast<const DataMessage*>(del.message.get());
    if (req == nullptr || req->kind() != kRequestKind) {
      DAPPLE_LOG(kDebug, kLog) << d.name() << ": ignoring non-request "
                               << del.message->typeName();
      return;
    }
    const std::string method = req->get("method").asString();
    const Value& args = req->get("args");
    const bool wantsReply = req->has("replyTo");

    Method fn;
    {
      std::scoped_lock lock(mutex);
      const auto it = methods.find(method);
      if (it != methods.end()) fn = it->second;
      if (wantsReply) {
        ++stats.callsServed;
      } else {
        ++stats.notifiesServed;
      }
    }

    Value result;
    std::string error;
    if (!fn) {
      error = "no such method '" + method + "'";
    } else {
      try {
        result = fn(args);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    if (!error.empty()) {
      std::scoped_lock lock(mutex);
      ++stats.errors;
    }
    if (!wantsReply) return;

    DataMessage rsp(kReplyKind);
    rsp.set("id", req->get("id"));
    if (error.empty()) {
      rsp.set("ok", Value(true));
      rsp.set("value", result);
    } else {
      rsp.set("ok", Value(false));
      rsp.set("error", Value(error));
    }
    sendOn(channel(inboxRefFromValue(req->get("replyTo"))), rsp);
  }
};

RpcServer::RpcServer(Dapplet& dapplet, const std::string& inboxName)
    : impl_(std::make_shared<Impl>(dapplet, inboxName)) {
  impl_->serve(
      [impl = impl_.get()](const Delivery& del) { impl->serveOne(del); });
}

RpcServer::~RpcServer() { impl_->shutdown(); }

void RpcServer::bind(const std::string& method, Method fn) {
  std::scoped_lock lock(impl_->mutex);
  impl_->methods[method] = std::move(fn);
}

InboxRef RpcServer::ref() const { return impl_->inbox->ref(); }

RpcServer::Stats RpcServer::stats() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->stats;
}

// ===========================================================================

/// The client is a service too (DESIGN.md §13): its one reply inbox is
/// handled on the dapplet's reactor, which files each reply under its call
/// id; `call()` waits for its own id.
struct RpcClient::Impl : ServiceCore {
  explicit Impl(Dapplet& dapplet)
      : ServiceCore(dapplet, ""), requestOutbox(&dapplet.createOutbox()) {}

  Outbox* const requestOutbox;
  std::uint64_t nextId = 1;  // guarded by `mutex`
  /// Calls in flight: id -> the reply, once it arrives.  Guarded by
  /// `mutex`; a reply to a call that already timed out is dropped.
  std::map<std::uint64_t, std::optional<Value>> calls;

  void onReply(const Delivery& del) {
    const auto* rsp = dynamic_cast<const DataMessage*>(del.message.get());
    if (rsp == nullptr || rsp->kind() != kReplyKind) return;
    const auto id = static_cast<std::uint64_t>(rsp->get("id").asInt());
    std::scoped_lock lock(mutex);
    const auto it = calls.find(id);
    if (it == calls.end()) return;
    it->second = Value(rsp->body());
    notifyAll();
  }
};

RpcClient::RpcClient(Dapplet& dapplet, InboxRef server)
    : impl_(std::make_unique<Impl>(dapplet)) {
  impl_->requestOutbox->add(server);
  impl_->serve(
      [impl = impl_.get()](const Delivery& del) { impl->onReply(del); });
}

RpcClient::~RpcClient() {
  impl_->shutdown();
  impl_->d.destroyOutbox(*impl_->requestOutbox);
}

void RpcClient::addServer(InboxRef server) {
  impl_->requestOutbox->add(server);
}

void RpcClient::notify(const std::string& method, const Value& args) {
  DataMessage req(kRequestKind);
  req.set("method", Value(method));
  req.set("args", args);
  req.set("id", Value(0));
  if (!impl_->sendOn(*impl_->requestOutbox, req)) {
    throw DeliveryError("rpc notify '" + method + "' not sent");
  }
}

Value RpcClient::call(const std::string& method, const Value& args,
                      Duration timeout) {
  Impl& im = *impl_;
  std::unique_lock lock(im.mutex);
  const std::uint64_t id = im.nextId++;
  DataMessage req(kRequestKind);
  req.set("method", Value(method));
  req.set("args", args);
  req.set("id", Value(static_cast<long long>(id)));
  req.set("replyTo", inboxRefToValue(im.inbox->ref()));
  const auto call = im.calls.emplace(id, std::nullopt).first;
  try {
    if (!im.sendOn(*im.requestOutbox, req)) {
      throw DeliveryError("rpc call '" + method + "' not sent");
    }
    im.waitFor(lock, timeout, [&] { return call->second.has_value(); });
  } catch (...) {
    im.calls.erase(call);
    throw;
  }
  const std::optional<Value> reply = std::move(call->second);
  im.calls.erase(call);
  if (!reply) throw TimeoutError("rpc call '" + method + "' timed out");
  return unpack(*reply, method);
}

Value RpcClient::unpack(const Value& rsp, const std::string& method) {
  if (rsp.at("ok").asBool()) return rsp.at("value");
  throw Error("rpc call '" + method + "' failed: " +
              rsp.at("error").asString());
}

}  // namespace dapple
