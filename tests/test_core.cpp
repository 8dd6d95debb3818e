// Tests for the core messaging layer: inboxes, outboxes, dapplets, named
// addressing, the Lamport clock criterion, persistent state, and RPC.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>

#include "dapple/core/directory.hpp"
#include "dapple/core/rpc.hpp"
#include "dapple/core/state.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/serial/data_message.hpp"

namespace dapple {
namespace {

DataMessage msg(const std::string& kind, long long n = 0) {
  DataMessage m(kind);
  m.set("n", Value(n));
  return m;
}

struct Pair {
  SimNetwork net{11};
  Dapplet a{net, "a"};
  Dapplet b{net, "b"};

  ~Pair() {
    a.stop();
    b.stop();
  }
};

// ---------------------------------------------------------------------------
// Inbox (the paper's API)
// ---------------------------------------------------------------------------

TEST(Inbox, IsEmptyAndAwaitNonEmpty) {
  Pair p;
  Inbox& in = p.b.createInbox("in");
  Outbox& out = p.a.createOutbox();
  out.add(in.ref());

  EXPECT_TRUE(in.isEmpty());
  std::thread sender([&] {
    std::this_thread::sleep_for(milliseconds(20));
    out.send(msg("x"));
  });
  in.awaitNonEmpty();  // paper: "suspends execution until nonempty"
  EXPECT_FALSE(in.isEmpty());
  EXPECT_EQ(in.size(), 1u);
  sender.join();
}

TEST(Inbox, ReceiveRemovesHead) {
  Pair p;
  Inbox& in = p.b.createInbox("in");
  Outbox& out = p.a.createOutbox();
  out.add(in.ref());
  out.send(msg("first", 1));
  out.send(msg("second", 2));
  EXPECT_EQ(in.receiveAs<DataMessage>(seconds(2)).get("n").asInt(), 1);
  EXPECT_EQ(in.receiveAs<DataMessage>(seconds(2)).get("n").asInt(), 2);
  EXPECT_TRUE(in.isEmpty());
}

TEST(Inbox, TimedReceiveReportsTimeoutInReturnValue) {
  Pair p;
  Inbox& in = p.b.createInbox("in");
  // Canonical surface: "nothing arrived" is a nullopt, not an exception.
  EXPECT_FALSE(in.receiveFor(milliseconds(30)).has_value());
  // Typed receive expects a decode target, so there the missed deadline IS
  // the failure.
  EXPECT_THROW(in.receiveAs<DataMessage>(milliseconds(30)), TimeoutError);
}

TEST(Inbox, TryReceiveNonBlocking) {
  Pair p;
  Inbox& in = p.b.createInbox("in");
  EXPECT_FALSE(in.tryReceive().has_value());
}

TEST(Inbox, ReceiveForReturnsNulloptOnTimeout) {
  Pair p;
  Inbox& in = p.b.createInbox("in");
  EXPECT_FALSE(in.receiveFor(milliseconds(30)).has_value());

  Outbox& out = p.a.createOutbox();
  out.add(in.ref());
  out.send(msg("x", 7));
  const auto del = in.receiveFor(seconds(2));
  ASSERT_TRUE(del.has_value());
  EXPECT_EQ(del->as<DataMessage>().get("n").asInt(), 7);
}

TEST(Inbox, ReceiveAsExtractsTypedMessage) {
  Pair p;
  Inbox& in = p.b.createInbox("in");
  Outbox& out = p.a.createOutbox();
  out.add(in.ref());
  out.send(msg("typed", 5));
  const DataMessage m = in.receiveAs<DataMessage>(seconds(2));
  EXPECT_EQ(m.get("n").asInt(), 5);
}

TEST(Inbox, QueueHighWaterSurvivesDraining) {
  Pair p;
  Inbox& in = p.b.createInbox("in");
  Outbox& out = p.a.createOutbox();
  out.add(in.ref());
  out.send(msg("a"));
  out.send(msg("b"));
  out.send(msg("c"));
  // Wait until all three are queued, then drain.
  for (int i = 0; i < 200 && in.size() < 3; ++i) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  while (in.tryReceive()) {
  }
  EXPECT_GE(in.queueHighWater(), 3u);
  EXPECT_TRUE(in.isEmpty());
}

TEST(Inbox, StopWakesBlockedReceiverWithShutdown) {
  SimNetwork net(1);
  Dapplet d(net, "d");
  Inbox& in = d.createInbox("in");
  std::thread stopper([&] {
    std::this_thread::sleep_for(milliseconds(30));
    d.stop();
  });
  EXPECT_THROW(in.receive(), ShutdownError);
  stopper.join();
}

TEST(Inbox, DuplicateNameThrows) {
  SimNetwork net(1);
  Dapplet d(net, "d");
  d.createInbox("same");
  EXPECT_THROW(d.createInbox("same"), AddressError);
  d.stop();
}

TEST(Inbox, DestroyedInboxDropsLaterDeliveries) {
  Pair p;
  Inbox& in = p.b.createInbox("in");
  Outbox& out = p.a.createOutbox();
  out.add(in.ref());
  p.b.destroyInbox("in");
  out.send(msg("late"));
  EXPECT_TRUE(p.a.flush(seconds(2)));
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_EQ(p.b.stats().messagesDelivered, 0u);
}

// ---------------------------------------------------------------------------
// Outbox (the paper's API)
// ---------------------------------------------------------------------------

TEST(Outbox, AddIsIdempotent) {
  Pair p;
  Inbox& in = p.b.createInbox("in");
  Outbox& out = p.a.createOutbox();
  out.add(in.ref());
  out.add(in.ref());  // "if it is not already on the list"
  EXPECT_EQ(out.fanout(), 1u);
  out.send(msg("once"));
  EXPECT_TRUE(in.receiveFor(seconds(2)).has_value());
  EXPECT_FALSE(in.receiveFor(milliseconds(100)).has_value());
}

TEST(Outbox, RemoveUnboundThrows) {
  Pair p;
  Inbox& in = p.b.createInbox("in");
  Outbox& out = p.a.createOutbox();
  // paper: delete "otherwise throws an exception"
  EXPECT_THROW(out.remove(in.ref()), AddressError);
  out.add(in.ref());
  out.remove(in.ref());
  EXPECT_EQ(out.fanout(), 0u);
  EXPECT_THROW(out.remove(in.ref()), AddressError);
}

TEST(Outbox, DestinationsReturnsBoundList) {
  Pair p;
  Inbox& in1 = p.b.createInbox("in1");
  Inbox& in2 = p.b.createInbox("in2");
  Outbox& out = p.a.createOutbox();
  out.add(in1.ref());
  out.add(in2.ref());
  const auto dests = out.destinations();
  ASSERT_EQ(dests.size(), 2u);
  EXPECT_EQ(dests[0], in1.ref());
  EXPECT_EQ(dests[1], in2.ref());
}

TEST(Outbox, SendFansOutToAllBoundInboxes) {
  SimNetwork net(2);
  Dapplet a(net, "a");
  Dapplet b(net, "b");
  Dapplet c(net, "c");
  Inbox& inB = b.createInbox("in");
  Inbox& inC = c.createInbox("in");
  Inbox& inA = a.createInbox("self");
  Outbox& out = a.createOutbox();
  out.add(inB.ref());
  out.add(inC.ref());
  out.add(inA.ref());  // self-loop is legal
  out.send(msg("fan", 3));
  EXPECT_EQ(inB.receiveAs<DataMessage>(seconds(2)).get("n").asInt(), 3);
  EXPECT_EQ(inC.receiveAs<DataMessage>(seconds(2)).get("n").asInt(), 3);
  EXPECT_EQ(inA.receiveAs<DataMessage>(seconds(2)).get("n").asInt(), 3);
  a.stop();
  b.stop();
  c.stop();
}

TEST(Outbox, ManyToOneInboxPreservesPerChannelFifo) {
  SimNetwork net(6);
  net.setDefaultLink(
      LinkParams{microseconds(100), microseconds(1500), 0.0, 0.0});
  Dapplet a(net, "a");
  Dapplet b(net, "b");
  Dapplet c(net, "c");
  Inbox& in = c.createInbox("shared");
  Outbox& outA = a.createOutbox();
  Outbox& outB = b.createOutbox();
  outA.add(in.ref());
  outB.add(in.ref());
  for (int i = 0; i < 30; ++i) {
    outA.send(msg("fromA", i));
    outB.send(msg("fromB", i));
  }
  long long lastA = -1;
  long long lastB = -1;
  for (int i = 0; i < 60; ++i) {
    auto got = in.receiveFor(seconds(5));
    ASSERT_TRUE(got.has_value());
    Delivery del = std::move(*got);
    const auto& m = del.as<DataMessage>();
    if (m.kind() == "fromA") {
      EXPECT_EQ(m.get("n").asInt(), lastA + 1);
      lastA = m.get("n").asInt();
    } else {
      EXPECT_EQ(m.get("n").asInt(), lastB + 1);
      lastB = m.get("n").asInt();
    }
  }
  EXPECT_EQ(lastA, 29);
  EXPECT_EQ(lastB, 29);
  a.stop();
  b.stop();
  c.stop();
}

TEST(Outbox, NamedInboxAddressing) {
  Pair p;
  p.b.createInbox("students");
  p.b.createInbox("grades");
  // Bind by (dapplet address, string) with no local id — the paper's
  // "strings as names for inboxes".
  Outbox& out = p.a.createOutbox();
  out.add(InboxRef{p.b.address(), 0, "grades"});
  out.send(msg("toGrades", 1));
  EXPECT_EQ(p.b.inbox("grades").receiveAs<DataMessage>(seconds(2)).kind(),
            "toGrades");
  EXPECT_TRUE(p.b.inbox("students").isEmpty());
}

TEST(Outbox, UnroutableNameIsCountedNotFatal) {
  Pair p;
  Outbox& out = p.a.createOutbox();
  out.add(InboxRef{p.b.address(), 0, "no-such-inbox"});
  out.send(msg("lost"));
  EXPECT_TRUE(p.a.flush(seconds(2)));
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_EQ(p.b.stats().unroutable, 1u);
}

// ---------------------------------------------------------------------------
// Dapplet + clock
// ---------------------------------------------------------------------------

TEST(Dapplet, SnapshotCriterionHoldsOnEveryDelivery) {
  // §4.2: "every message that is sent when the sender's clock is T is
  // received when the receiver's clock exceeds T".
  SimNetwork net(33);
  net.setDefaultLink(
      LinkParams{microseconds(50), microseconds(500), 0.0, 0.0});
  Dapplet a(net, "a");
  Dapplet b(net, "b");
  Inbox& inB = b.createInbox("in");
  Inbox& inA = a.createInbox("in");
  Outbox& outA = a.createOutbox();
  Outbox& outB = b.createOutbox();
  outA.add(inB.ref());
  outB.add(inA.ref());
  std::atomic<bool> ok{true};
  std::thread echo([&] {
    for (int i = 0; i < 100; ++i) {
      auto got = inB.receiveFor(seconds(5));
      if (!got) { ok = false; break; }
      Delivery del = std::move(*got);
      if (del.sentAt >= del.receivedAt) ok = false;
      outB.send(msg("echo", del.as<DataMessage>().get("n").asInt()));
    }
  });
  for (int i = 0; i < 100; ++i) {
    outA.send(msg("ping", i));
    auto got = inA.receiveFor(seconds(5));
    ASSERT_TRUE(got.has_value());
    if (got->sentAt >= got->receivedAt) ok = false;
  }
  echo.join();
  EXPECT_TRUE(ok) << "snapshot criterion violated";
  // Clocks are strictly monotonic and advanced past everything seen.
  EXPECT_GE(a.clock().now(), 200u);
  a.stop();
  b.stop();
}

TEST(Dapplet, SecondDeliveryTapThrowsUntilTheFirstIsCleared) {
  SimNetwork net(34);
  Dapplet d(net, "d");
  Inbox& in = d.createInbox("in");
  Outbox& out = d.createOutbox();
  out.add(in.ref());
  std::atomic<int> firstSaw{0};
  d.setDeliveryTap([&](Inbox&, Delivery&) {
    ++firstSaw;
    return false;
  });
  EXPECT_THROW(d.setDeliveryTap([](Inbox&, Delivery&) { return true; }),
               Error);
  // The failed install left the first tap in place.
  out.send(msg("ping", 1));
  ASSERT_TRUE(in.receiveFor(seconds(5)).has_value());
  EXPECT_EQ(firstSaw.load(), 1);
  d.setDeliveryTap(nullptr);
  EXPECT_NO_THROW(d.setDeliveryTap([](Inbox&, Delivery&) { return false; }));
  d.stop();
}

TEST(LamportClock, Primitives) {
  LamportClock clock;
  EXPECT_EQ(clock.now(), 0u);
  EXPECT_EQ(clock.tick(), 1u);
  EXPECT_EQ(clock.observe(10), 11u);
  EXPECT_EQ(clock.observe(3), 12u);  // max(11,3)+1
  clock.advanceTo(100);
  EXPECT_EQ(clock.now(), 100u);
  clock.advanceTo(50);  // no regression
  EXPECT_EQ(clock.now(), 100u);
}

TEST(Dapplet, StopIsIdempotentAndStopsWorkers) {
  SimNetwork net(1);
  Dapplet d(net, "d");
  std::atomic<bool> stopped{false};
  d.spawn([&](std::stop_token st) {
    while (!st.stop_requested()) {
      std::this_thread::sleep_for(milliseconds(5));
    }
    stopped = true;
  });
  d.stop();
  d.stop();
  EXPECT_TRUE(stopped);
  EXPECT_THROW(d.createInbox("x"), ShutdownError);
  EXPECT_THROW(d.spawn([](std::stop_token) {}), ShutdownError);
}

/// Virtual address-space size of this process, in KiB (/proc/self/status).
long vmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  }
  return -1;
}

// A finished worker is joined and dropped on the next spawn(), so a
// long-lived dapplet running short roles back to back does not keep one
// thread stack (8 MiB of address space) per role it ever ran.
TEST(Dapplet, SpawnReapsFinishedWorkers) {
  SimNetwork net(2);
  Dapplet d(net, "reaper");
  const long before = vmSizeKb();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 2000; ++i) {
    std::promise<void> ran;
    d.spawn([&ran](std::stop_token) { ran.set_value(); });
    ran.get_future().wait();
  }
  EXPECT_LT(vmSizeKb() - before, 256 * 1024)
      << "finished spawn workers were kept until stop()";
  d.stop();
}

TEST(Dapplet, StatsCountTraffic) {
  Pair p;
  Inbox& in = p.b.createInbox("in");
  Outbox& out = p.a.createOutbox();
  out.add(in.ref());
  for (int i = 0; i < 5; ++i) out.send(msg("m", i));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(in.receiveFor(seconds(2)).has_value());
  EXPECT_EQ(p.a.stats().messagesSent, 5u);
  EXPECT_EQ(p.b.stats().messagesDelivered, 5u);
}

// ---------------------------------------------------------------------------
// Directory
// ---------------------------------------------------------------------------

TEST(Directory, PutLookupRemove) {
  Directory dir;
  const InboxRef ref{NodeAddress{1, 2}, 3, "ctl"};
  dir.put("mani", ref);
  EXPECT_TRUE(dir.has("mani"));
  EXPECT_EQ(dir.lookup("mani"), ref);
  EXPECT_THROW(dir.lookup("nobody"), AddressError);
  dir.removeEntry("mani");
  EXPECT_FALSE(dir.has("mani"));
  EXPECT_EQ(dir.size(), 0u);
}

TEST(Directory, ValueRoundTrip) {
  Directory dir;
  dir.put("a", InboxRef{NodeAddress{10, 20}, 30, ""});
  dir.put("b", InboxRef{NodeAddress{11, 21}, 0, "named"});
  Directory back = Directory::fromValue(
      Value::fromWire(dir.toValue().toWire()));
  EXPECT_EQ(back.lookup("a"), dir.lookup("a"));
  EXPECT_EQ(back.lookup("b"), dir.lookup("b"));
  EXPECT_EQ(back.names(), dir.names());
}

// ---------------------------------------------------------------------------
// Persistent state + interference
// ---------------------------------------------------------------------------

TEST(StateStore, PersistsAcrossInstances) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dapple_state_test_" + std::to_string(::getpid()) + ".wire"))
          .string();
  std::filesystem::remove(path);
  {
    StateStore store(path);
    store.put("calendar", Value(ValueList{Value(1), Value(5)}));
    store.put("name", Value("mani"));
  }
  {
    StateStore store(path);  // fresh process, same file
    EXPECT_EQ(store.get("name").asString(), "mani");
    EXPECT_EQ(store.get("calendar").asList().size(), 2u);
    store.erase("name");
  }
  {
    StateStore store(path);
    EXPECT_FALSE(store.has("name"));
    EXPECT_TRUE(store.has("calendar"));
  }
  std::filesystem::remove(path);
}

TEST(StateStore, MissingKeyThrows) {
  StateStore store;
  EXPECT_THROW(store.get("nope"), StateError);
  EXPECT_EQ(store.getOr("nope", Value(7)).asInt(), 7);
}

TEST(AccessSets, InterferenceMatrix) {
  const auto sets = [](std::set<std::string> r, std::set<std::string> w) {
    AccessSets s;
    s.reads = std::move(r);
    s.writes = std::move(w);
    return s;
  };
  // read/read never interferes.
  EXPECT_FALSE(sets({"x"}, {}).interferesWith(sets({"x"}, {})));
  // write/write on the same key interferes.
  EXPECT_TRUE(sets({}, {"x"}).interferesWith(sets({}, {"x"})));
  // write vs read (both directions).
  EXPECT_TRUE(sets({}, {"x"}).interferesWith(sets({"x"}, {})));
  EXPECT_TRUE(sets({"x"}, {}).interferesWith(sets({}, {"x"})));
  // disjoint keys never interfere.
  EXPECT_FALSE(sets({"a"}, {"b"}).interferesWith(sets({"c"}, {"d"})));
}

TEST(InterferenceGuard, AdmitAndRelease) {
  InterferenceGuard guard;
  AccessSets s1;
  s1.writes = {"cal"};
  AccessSets s2;
  s2.reads = {"cal"};
  EXPECT_TRUE(guard.tryClaim("s1", s1));
  EXPECT_FALSE(guard.tryClaim("s2", s2));  // reads what s1 writes
  guard.release("s1");
  EXPECT_TRUE(guard.tryClaim("s2", s2));
  AccessSets s3;
  s3.reads = {"cal"};
  EXPECT_TRUE(guard.tryClaim("s3", s3));  // concurrent readers fine
}

TEST(StateView, EnforcesDeclaredSets) {
  StateStore store;
  store.put("a", Value(1));
  store.put("b", Value(2));
  store.put("c", Value(3));
  AccessSets sets;
  sets.reads = {"a"};
  sets.writes = {"b"};
  StateView view(store, sets);
  EXPECT_EQ(view.get("a").asInt(), 1);   // declared read
  EXPECT_EQ(view.get("b").asInt(), 2);   // writes imply read
  EXPECT_THROW(view.get("c"), StateError);
  view.put("b", Value(20));
  EXPECT_THROW(view.put("a", Value(10)), StateError);
  EXPECT_THROW(view.put("c", Value(30)), StateError);
  EXPECT_EQ(store.get("b").asInt(), 20);
  EXPECT_EQ(store.get("a").asInt(), 1);
}

// ---------------------------------------------------------------------------
// RPC
// ---------------------------------------------------------------------------

struct RpcRig {
  SimNetwork net{21};
  Dapplet serverD{net, "server"};
  Dapplet clientD{net, "client"};
  RpcServer server{serverD};

  ~RpcRig() {
    serverD.stop();
    clientD.stop();
  }
};

TEST(Rpc, SynchronousCallReturnsValue) {
  RpcRig rig;
  rig.server.bind("add", [](const Value& args) {
    return Value(args.at("a").asInt() + args.at("b").asInt());
  });
  RpcClient client(rig.clientD, rig.server.ref());
  ValueMap args;
  args["a"] = Value(2);
  args["b"] = Value(40);
  EXPECT_EQ(client.call("add", Value(args)).asInt(), 42);
  EXPECT_EQ(rig.server.stats().callsServed, 1u);
}

TEST(Rpc, ServerExceptionPropagatesToCaller) {
  RpcRig rig;
  rig.server.bind("boom", [](const Value&) -> Value {
    throw Error("kaput");
  });
  RpcClient client(rig.clientD, rig.server.ref());
  try {
    client.call("boom", Value(ValueMap{}));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("kaput"), std::string::npos);
  }
  EXPECT_EQ(rig.server.stats().errors, 1u);
}

TEST(Rpc, UnknownMethodFails) {
  RpcRig rig;
  RpcClient client(rig.clientD, rig.server.ref());
  EXPECT_THROW(client.call("missing", Value(ValueMap{})), Error);
}

TEST(Rpc, CallTimesOutWhenServerGone) {
  SimNetwork net(22);
  Dapplet clientD(net, "client");
  RpcClient client(clientD, InboxRef{NodeAddress{77, 77}, 1, ""});
  EXPECT_THROW(client.call("x", Value(ValueMap{}), milliseconds(150)),
               TimeoutError);
  clientD.stop();
}

TEST(Rpc, NotifyIsFireAndForget) {
  RpcRig rig;
  std::atomic<int> count{0};
  rig.server.bind("bump", [&](const Value&) {
    ++count;
    return Value();
  });
  RpcClient client(rig.clientD, rig.server.ref());
  for (int i = 0; i < 10; ++i) client.notify("bump", Value(ValueMap{}));
  for (int i = 0; i < 100 && count < 10; ++i) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_EQ(count.load(), 10);
  EXPECT_EQ(rig.server.stats().notifiesServed, 10u);
}

TEST(Rpc, ConcurrentCallersMultiplexCorrectly) {
  RpcRig rig;
  rig.server.bind("id", [](const Value& args) { return args; });
  RpcClient client(rig.clientD, rig.server.ref());
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        ValueMap args;
        args["v"] = Value(t * 1000 + i);
        const Value back = client.call("id", Value(args));
        if (back.at("v").asInt() != t * 1000 + i) ok = false;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok) << "a caller received someone else's reply";
}

// ---------------------------------------------------------------------------
// Mixed-codec interop: the 0xDB frame preamble *is* the negotiation, so a
// binary-configured dapplet and a text-configured dapplet must complete a
// session without any handshake or shared configuration.
// ---------------------------------------------------------------------------

TEST(Codec, TextAndBinaryPeersInteroperateBothDirections) {
  SimNetwork net(31);
  DappletConfig binaryCfg;
  binaryCfg.wireCodec = WireCodec::kBinary;
  Dapplet textPeer(net, "textpeer");
  Dapplet binPeer(net, "binpeer", binaryCfg);

  Inbox& textIn = textPeer.createInbox("in");
  Inbox& binIn = binPeer.createInbox("in");
  Outbox& textOut = textPeer.createOutbox();
  Outbox& binOut = binPeer.createOutbox();
  textOut.add(binIn.ref());
  binOut.add(textIn.ref());

  // Both directions, including a payload that exercises every scalar shape
  // plus nesting — decode auto-detects per frame, so neither side needs to
  // know what the other emits.
  DataMessage fancy("probe");
  fancy.set("i", Value(-12345));
  fancy.set("d", Value(2.5));
  fancy.set("s", Value(std::string(300, 'x')));
  fancy.set("list", Value(ValueList{Value(1), Value(), Value("two")}));
  textOut.send(fancy);
  binOut.send(fancy);

  const DataMessage fromText = binIn.receiveAs<DataMessage>(seconds(2));
  const DataMessage fromBin = textIn.receiveAs<DataMessage>(seconds(2));
  for (const DataMessage* got : {&fromText, &fromBin}) {
    EXPECT_EQ(got->kind(), "probe");
    EXPECT_EQ(got->get("i").asInt(), -12345);
    EXPECT_EQ(got->get("d").asDouble(), 2.5);
    EXPECT_EQ(got->get("s").asString().size(), 300u);
    EXPECT_EQ(got->get("list").asList().at(2).asString(), "two");
  }

  textPeer.stop();
  binPeer.stop();
}

TEST(Codec, RpcAcrossMixedCodecPeers) {
  SimNetwork net(32);
  DappletConfig binaryCfg;
  binaryCfg.wireCodec = WireCodec::kBinary;
  Dapplet serverD(net, "server", binaryCfg);  // binary server,
  Dapplet clientD(net, "client");             // text client
  RpcServer server(serverD);
  server.bind("add", [](const Value& args) {
    return Value(args.at("a").asInt() + args.at("b").asInt());
  });
  RpcClient client(clientD, server.ref());
  ValueMap args;
  args["a"] = Value(20);
  args["b"] = Value(22);
  EXPECT_EQ(client.call("add", Value(args)).asInt(), 42);
  serverD.stop();
  clientD.stop();
}

/// The paper: "the address of the inbox serves as a global pointer to an
/// object" — addresses must be communicable and usable by third parties.
TEST(Rpc, RefTravelsThroughMessages) {
  RpcRig rig;
  rig.server.bind("whoami", [](const Value&) { return Value("object-p"); });
  const Value wireRef =
      Value::fromWire(inboxRefToValue(rig.server.ref()).toWire());
  RpcClient client(rig.clientD, inboxRefFromValue(wireRef));
  EXPECT_EQ(client.call("whoami", Value(ValueMap{})).asString(), "object-p");
}

}  // namespace
}  // namespace dapple
