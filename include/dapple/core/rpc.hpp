#pragma once
/// \file rpc.hpp
/// \brief RPC on top of inboxes and messages.
///
/// Paper §3.2 "Communication Layer Features": *"Associate an inbox b with
/// an object p.  Messages in b are directions to invoke appropriate methods
/// on p.  Associate a thread with b and p; the thread receives a message
/// from b and then invokes the method specified in the message on p.  Thus
/// the address of the inbox serves as a global pointer to an object
/// associated with the inbox, and messages serve the role of asynchronous
/// RPCs.  Synchronous RPCs are implemented as pairwise asynchronous RPCs."*
///
/// `RpcServer` is the (inbox, object, thread) triple, with the thread being
/// the inbox's `Inbox::onMessage` strand on the dapplet's reactor;
/// `RpcClient` issues `notify` (asynchronous) and `call` (synchronous =
/// request plus reply, correlated by id).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "dapple/core/dapplet.hpp"
#include "dapple/serial/value.hpp"

namespace dapple {

/// Serves methods on an object reachable through one inbox ("the address of
/// the inbox serves as a global pointer").
class RpcServer {
 public:
  using Method = std::function<Value(const Value& args)>;

  /// Creates the serving inbox (named `inboxName`) on `dapplet` and serves
  /// it from the dapplet's reactor.
  explicit RpcServer(Dapplet& dapplet, const std::string& inboxName = "rpc");
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Registers a method.  Methods run one at a time, in arrival order, on a
  /// reactor loop shared with every other dapplet on the reactor, so `fn`
  /// must not block: hand long work to `Dapplet::spawn`.  Exceptions thrown
  /// by `fn` are marshalled back to the synchronous caller as Error.
  void bind(const std::string& method, Method fn);

  /// The global pointer clients use to reach this object.
  InboxRef ref() const;

  struct Stats {
    std::uint64_t callsServed = 0;
    std::uint64_t notifiesServed = 0;
    std::uint64_t errors = 0;
  };
  Stats stats() const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Client stub bound to one remote RpcServer.
///
/// Replies arrive in the client's one reply inbox, handled on the dapplet's
/// reactor.  `call` blocks its caller, so it must not run in a handler, an
/// RPC method or a timer on that dapplet's reactor: the reply it waits for
/// is handled there.
class RpcClient {
 public:
  /// `server` is the target server's inbox ref.
  RpcClient(Dapplet& dapplet, InboxRef server);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Binds an additional server inbox.  `notify` then fans out to every
  /// bound server through the one request outbox (the body is encoded once
  /// and shared, per DESIGN.md §10).  `call` expects a single reply and
  /// should only be used on a client bound to exactly one server.
  void addServer(InboxRef server);

  /// Asynchronous RPC: fire-and-forget method invocation, delivered to
  /// every bound server.
  void notify(const std::string& method, const Value& args);

  /// Synchronous RPC ("pairwise asynchronous"): sends the request and
  /// blocks for the reply.  Throws TimeoutError when no reply arrives in
  /// time and Error when the server reports a failure.
  Value call(const std::string& method, const Value& args,
             Duration timeout = seconds(5));

 private:
  static Value unpack(const Value& rsp, const std::string& method);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dapple
