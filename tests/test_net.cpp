// Tests for the transport layer: addresses, the simulated network's
// delay/loss/duplication/partition behaviours, and real UDP sockets.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "dapple/net/sim.hpp"
#include "dapple/net/udp.hpp"
#include "dapple/util/error.hpp"
#include "dapple/util/time.hpp"

namespace dapple {
namespace {

// ---------------------------------------------------------------------------
// NodeAddress
// ---------------------------------------------------------------------------

TEST(NodeAddress, FormatAndParse) {
  const NodeAddress a{0x7f000001, 8080};
  EXPECT_EQ(a.toString(), "127.0.0.1:8080");
  EXPECT_EQ(NodeAddress::parse("127.0.0.1:8080"), a);
}

TEST(NodeAddress, PackedRoundTrip) {
  const NodeAddress a{0xdeadbeef, 65535};
  EXPECT_EQ(NodeAddress::fromPacked(a.packed()), a);
}

class BadAddress : public ::testing::TestWithParam<const char*> {};

TEST_P(BadAddress, ParseRejects) {
  EXPECT_THROW(NodeAddress::parse(GetParam()), AddressError);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, BadAddress,
    ::testing::Values("", "1.2.3.4", "1.2.3:5", "256.1.1.1:5", "1.2.3.4:",
                      "1.2.3.4:99999", "a.b.c.d:1", "1.2.3.4:5x",
                      "1.2.3.4.5:1"));

TEST(NodeAddress, Ordering) {
  EXPECT_LT((NodeAddress{1, 5}), (NodeAddress{2, 1}));
  EXPECT_LT((NodeAddress{1, 5}), (NodeAddress{1, 6}));
}

// ---------------------------------------------------------------------------
// SimNetwork
// ---------------------------------------------------------------------------

/// Collects payloads with a condition variable for timed waits.
struct Sink {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::string> got;

  Endpoint::Handler handler() {
    return [this](const NodeAddress&, std::string_view payload) {
      std::scoped_lock lock(mutex);
      got.emplace_back(payload);  // the view dies with the callback
      cv.notify_all();
    };
  }

  bool waitForCount(std::size_t n, Duration timeout) {
    std::unique_lock lock(mutex);
    return cv.wait_for(lock, timeout, [&] { return got.size() >= n; });
  }

  std::vector<std::string> snapshot() {
    std::scoped_lock lock(mutex);
    return got;
  }
};

TEST(SimNetwork, DeliversDatagram) {
  SimNetwork net(1);
  auto a = net.open();
  auto b = net.open();
  Sink sink;
  b->setHandler(sink.handler());
  a->send(b->address(), "hi");
  ASSERT_TRUE(sink.waitForCount(1, seconds(2)));
  EXPECT_EQ(sink.snapshot()[0], "hi");
  EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(SimNetwork, AutoAssignedPortsAreUnique) {
  SimNetwork net(1);
  auto a = net.open();
  auto b = net.open();
  auto c = net.openAt(9);
  EXPECT_NE(a->address(), b->address());
  EXPECT_EQ(c->address().host, 9u);
}

TEST(SimNetwork, ExplicitPortConflictThrows) {
  SimNetwork net(1);
  auto a = net.openAt(1, 500);
  EXPECT_THROW(net.openAt(1, 500), AddressError);
}

TEST(SimNetwork, LossDropsRoughlyTheConfiguredFraction) {
  SimNetwork net(77);
  net.setDefaultLink(LinkParams{microseconds(0), microseconds(0), 0.3, 0.0});
  auto a = net.open();
  auto b = net.open();
  Sink sink;
  b->setHandler(sink.handler());
  constexpr int kCount = 2000;
  for (int i = 0; i < kCount; ++i) a->send(b->address(), "x");
  ASSERT_TRUE(net.awaitQuiescent(seconds(5)));
  const auto stats = net.stats();
  EXPECT_EQ(stats.sent, static_cast<std::uint64_t>(kCount));
  EXPECT_NEAR(static_cast<double>(stats.dropped) / kCount, 0.3, 0.05);
}

TEST(SimNetwork, DuplicationInjectsExtraCopies) {
  SimNetwork net(5);
  net.setDefaultLink(LinkParams{microseconds(0), microseconds(0), 0.0, 0.5});
  auto a = net.open();
  auto b = net.open();
  Sink sink;
  b->setHandler(sink.handler());
  constexpr int kCount = 1000;
  for (int i = 0; i < kCount; ++i) a->send(b->address(), "x");
  ASSERT_TRUE(net.awaitQuiescent(seconds(5)));
  const auto stats = net.stats();
  EXPECT_NEAR(static_cast<double>(stats.duplicated) / kCount, 0.5, 0.08);
  EXPECT_EQ(stats.delivered, stats.sent + stats.duplicated);
}

TEST(SimNetwork, JitterReordersDatagrams) {
  SimNetwork net(3);
  net.setDefaultLink(
      LinkParams{microseconds(100), microseconds(2000), 0.0, 0.0});
  auto a = net.open();
  auto b = net.open();
  Sink sink;
  b->setHandler(sink.handler());
  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    a->send(b->address(), std::to_string(i));
  }
  ASSERT_TRUE(sink.waitForCount(kCount, seconds(10)));
  const auto got = sink.snapshot();
  int outOfOrder = 0;
  for (std::size_t i = 1; i < got.size(); ++i) {
    if (std::stoi(got[i]) < std::stoi(got[i - 1])) ++outOfOrder;
  }
  EXPECT_GT(outOfOrder, 0) << "jitter should reorder some datagrams";
}

TEST(SimNetwork, PartitionBlocksTrafficUntilHealed) {
  SimNetwork net(9);
  auto a = net.openAt(1);
  auto b = net.openAt(2);
  Sink sink;
  b->setHandler(sink.handler());

  net.setPartition(1, 2, true);
  a->send(b->address(), "lost");
  ASSERT_TRUE(net.awaitQuiescent(seconds(2)));
  EXPECT_TRUE(sink.snapshot().empty());
  EXPECT_EQ(net.stats().dropped, 1u);

  net.setPartition(1, 2, false);
  a->send(b->address(), "through");
  ASSERT_TRUE(sink.waitForCount(1, seconds(2)));
  EXPECT_EQ(sink.snapshot()[0], "through");
}

TEST(SimNetwork, PerHostLinkOverridesDefault) {
  SimNetwork net(4);
  net.setDefaultLink(LinkParams{microseconds(0), microseconds(0), 0.0, 0.0});
  net.setHostLink(1, 2, LinkParams{microseconds(0), microseconds(0), 1.0,
                                   0.0});  // total loss one way
  auto a = net.openAt(1);
  auto b = net.openAt(2);
  Sink sinkA;
  Sink sinkB;
  a->setHandler(sinkA.handler());
  b->setHandler(sinkB.handler());
  a->send(b->address(), "a->b");  // dropped by host link
  b->send(a->address(), "b->a");  // default link: delivered
  ASSERT_TRUE(net.awaitQuiescent(seconds(2)));
  EXPECT_TRUE(sinkB.snapshot().empty());
  ASSERT_TRUE(sinkA.waitForCount(1, seconds(2)));
}

TEST(SimNetwork, SendToUnknownAddressCountsUndeliverable) {
  SimNetwork net(4);
  auto a = net.open();
  a->send(NodeAddress{42, 42}, "void");
  ASSERT_TRUE(net.awaitQuiescent(seconds(2)));
  EXPECT_EQ(net.stats().undeliverable, 1u);
}

TEST(SimNetwork, ClosedEndpointStopsSendingAndReceiving) {
  SimNetwork net(4);
  auto a = net.open();
  auto b = net.open();
  Sink sink;
  b->setHandler(sink.handler());
  b->close();
  a->send(b->address(), "after-close");
  ASSERT_TRUE(net.awaitQuiescent(seconds(2)));
  EXPECT_TRUE(sink.snapshot().empty());
  a->close();
  a->send(b->address(), "from-closed");  // silently ignored
  EXPECT_EQ(net.stats().sent, 1u);
}

TEST(SimNetwork, DeterministicDropPatternForSameSeed) {
  const auto run = [](std::uint64_t seed) {
    SimNetwork net(seed);
    net.setDefaultLink(
        LinkParams{microseconds(0), microseconds(0), 0.5, 0.0});
    auto a = net.open();
    auto b = net.open();
    Sink sink;
    b->setHandler(sink.handler());
    for (int i = 0; i < 100; ++i) a->send(b->address(), std::to_string(i));
    net.awaitQuiescent(seconds(5));
    auto got = sink.snapshot();
    std::sort(got.begin(), got.end());
    return got;
  };
  EXPECT_EQ(run(123), run(123));
  EXPECT_NE(run(123), run(456));
}

TEST(SimNetwork, DestroyingAnIdleNetworkNeverHangs) {
  // The stop must reach a delivery thread that is between its predicate
  // check and its park; a lost wake-up hangs the join in the destructor.
  // Eight threads oversubscribe the CPU, so a delivery thread is often
  // preempted inside that window.
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 8; ++t) {
    threads.emplace_back([t] {
      for (std::uint64_t i = 0; i < 500; ++i) SimNetwork net(t * 500 + i);
    });
  }
  for (auto& thread : threads) thread.join();
}

TEST(SimNetwork, AwaitQuiescentWaitsForRunningHandlers) {
  SimNetwork net(6);
  auto a = net.open();
  auto b = net.open();
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  b->setHandler([&](const NodeAddress&, std::string_view) {
    started = true;
    std::this_thread::sleep_for(milliseconds(30));
    done = true;
  });
  a->send(b->address(), "slow");
  while (!started) std::this_thread::yield();
  // The queue is empty now, but the popped datagram's handler still runs.
  ASSERT_TRUE(net.awaitQuiescent(seconds(5)));
  EXPECT_TRUE(done) << "awaitQuiescent returned under a running handler";
}

// ---------------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------------

TEST(Udp, LoopbackSendReceive) {
  UdpNetwork net;
  auto a = net.open();
  auto b = net.open();
  EXPECT_EQ(a->address().host, 0x7f000001u);  // 127.0.0.1
  EXPECT_NE(a->address().port, 0);
  Sink sink;
  b->setHandler(sink.handler());
  a->send(b->address(), "over real sockets");
  ASSERT_TRUE(sink.waitForCount(1, seconds(5)));
  EXPECT_EQ(sink.snapshot()[0], "over real sockets");
  a->close();
  b->close();
}

TEST(Udp, ExplicitPortBindAndConflict) {
  UdpNetwork net;
  auto a = net.open(0);
  // Binding the same port twice must fail.
  EXPECT_THROW(net.open(a->address().port), NetworkError);
  a->close();
}

TEST(Udp, OversizedDatagramCountsAsLoss) {
  // One batched send surface: an oversize datagram is dropped and tallied
  // (loss semantics the reliable layer absorbs), never thrown — single
  // send() is just a one-element sendBatch.
  UdpNetwork net;
  auto a = net.open();
  std::string big(70000, 'x');
  const std::uint64_t before = net.stats().sendErrors;
  a->send(a->address(), big);
  EXPECT_EQ(net.stats().sendErrors, before + 1);
  a->close();
}

TEST(Udp, ManyDatagramsArrive) {
  UdpNetwork net;
  auto a = net.open();
  auto b = net.open();
  Sink sink;
  b->setHandler(sink.handler());
  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    a->send(b->address(), std::to_string(i));
    if (i % 50 == 0) std::this_thread::sleep_for(milliseconds(1));
  }
  // UDP on loopback rarely drops, but tolerate a little.
  sink.waitForCount(kCount, seconds(5));
  EXPECT_GE(sink.snapshot().size(), static_cast<std::size_t>(kCount * 9 / 10));
  a->close();
  b->close();
}

}  // namespace
}  // namespace dapple
