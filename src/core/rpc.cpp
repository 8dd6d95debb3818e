#include "dapple/core/rpc.hpp"

#include <condition_variable>
#include <mutex>

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

  // Outboxes for replies, one per caller reply-inbox.
  std::map<std::uint64_t, Outbox*> replyOutboxes;

  void sendReply(const InboxRef& target, const DataMessage& msg) {
    Outbox* box = nullptr;
    {
      std::scoped_lock lock(mutex);
      const std::uint64_t key =
          target.node.packed() * 1000003u + target.localId;
      const auto it = replyOutboxes.find(key);
      if (it != replyOutboxes.end()) {
        box = it->second;
      } else {
        box = &d.createOutbox();
        box->add(target);
        replyOutboxes.emplace(key, box);
      }
    }
    box->send(msg);
  }

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
    sendReply(inboxRefFromValue(req->get("replyTo")), rsp);
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

struct RpcClient::Impl {
  Impl(Dapplet& dapplet, InboxRef serverRef)
      : d(dapplet), server(std::move(serverRef)) {}

  Dapplet& d;
  InboxRef server;
  Inbox* replyInbox = nullptr;
  Outbox* requestOutbox = nullptr;

  std::mutex mutex;  // serializes call bookkeeping across threads
  std::condition_variable stashChanged;
  bool someoneReceiving = false;  // leader/follower: one receiver at a time
  std::uint64_t nextId = 1;
  std::map<std::uint64_t, Value> stashedReplies;
};

RpcClient::RpcClient(Dapplet& dapplet, InboxRef server)
    : impl_(std::make_unique<Impl>(dapplet, std::move(server))) {
  impl_->replyInbox = &dapplet.createInbox();
  impl_->requestOutbox = &dapplet.createOutbox();
  impl_->requestOutbox->add(impl_->server);
}

RpcClient::~RpcClient() {
  try {
    impl_->d.destroyInbox(*impl_->replyInbox);
    impl_->d.destroyOutbox(*impl_->requestOutbox);
  } catch (const Error&) {
  }
}

void RpcClient::addServer(InboxRef server) {
  impl_->requestOutbox->add(server);
}

void RpcClient::notify(const std::string& method, const Value& args) {
  DataMessage req(kRequestKind);
  req.set("method", Value(method));
  req.set("args", args);
  req.set("id", Value(0));
  impl_->requestOutbox->send(req);
}

Value RpcClient::call(const std::string& method, const Value& args,
                      Duration timeout) {
  std::uint64_t id = 0;
  {
    std::scoped_lock lock(impl_->mutex);
    id = impl_->nextId++;
  }
  DataMessage req(kRequestKind);
  req.set("method", Value(method));
  req.set("args", args);
  req.set("id", Value(static_cast<long long>(id)));
  req.set("replyTo", inboxRefToValue(impl_->replyInbox->ref()));
  impl_->requestOutbox->send(req);

  // Several threads may call concurrently over the one reply inbox, so a
  // single "leader" drains the inbox into the stash while the others wait
  // on the stash; every arrival wakes everyone to re-check.
  ClockSource& clk = impl_->d.clockSource();
  const TimePoint deadline = clk.now() + timeout;
  std::unique_lock lock(impl_->mutex);
  while (true) {
    const auto it = impl_->stashedReplies.find(id);
    if (it != impl_->stashedReplies.end()) {
      Value rsp = std::move(it->second);
      impl_->stashedReplies.erase(it);
      return unpack(rsp, method);
    }
    if (clk.now() >= deadline) {
      throw TimeoutError("rpc call '" + method + "' timed out");
    }
    if (impl_->someoneReceiving) {
      clk.parkUntil(lock, impl_->stashChanged, deadline);
      continue;
    }
    impl_->someoneReceiving = true;
    lock.unlock();
    std::optional<Delivery> del;
    try {
      del = impl_->replyInbox->receiveFor(milliseconds(20));
    } catch (...) {
      lock.lock();
      impl_->someoneReceiving = false;
      clk.notifyAll(impl_->stashChanged);
      throw;
    }
    lock.lock();
    impl_->someoneReceiving = false;
    if (del) {
      const auto* rsp = dynamic_cast<const DataMessage*>(del->message.get());
      if (rsp != nullptr && rsp->kind() == kReplyKind) {
        const auto rspId =
            static_cast<std::uint64_t>(rsp->get("id").asInt());
        impl_->stashedReplies.emplace(rspId, Value(rsp->body()));
      }
    }
    clk.notifyAll(impl_->stashChanged);
  }
}

Value RpcClient::unpack(const Value& rsp, const std::string& method) {
  if (rsp.at("ok").asBool()) return rsp.at("value");
  throw Error("rpc call '" + method + "' failed: " +
              rsp.at("error").asString());
}

}  // namespace dapple
