// Tests for the observability layer: metric primitives (counters, gauges,
// log2 histograms), the trace ring, snapshot merge/dump, and the end-to-end
// wiring — a lossy SimNetwork run must show up in Dapplet::metrics() as
// retransmits, and a real session must populate the session.* counters.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "dapple/core/session.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/obs/metrics.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/testkit/virtual_clock.hpp"

namespace dapple {
namespace {

using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::TraceRing;

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

TEST(ObsCounter, ExactUnderConcurrentIncrements) {
  MetricsRegistry registry;
  obs::Counter& c = registry.counter("c");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(ObsGauge, RecordMaxIsMonotonicHighWater) {
  obs::Gauge g;
  g.recordMax(5);
  g.recordMax(3);  // lower: ignored
  EXPECT_EQ(g.value(), 5);
  g.recordMax(9);
  EXPECT_EQ(g.value(), 9);
  g.set(2);  // set() is not clamped — it is the "current value" op
  EXPECT_EQ(g.value(), 2);
}

TEST(ObsHistogram, BucketBoundariesAreExactPowersOfTwo) {
  Histogram h;
  // Bucket 0 holds exactly the value 0; bucket i holds [2^(i-1), 2^i).
  h.record(0);                     // bucket 0
  h.record(1);                     // bucket 1
  h.record(2);                     // bucket 2 lower edge
  h.record(3);                     // bucket 2 upper edge
  h.record(4);                     // bucket 3 lower edge
  h.record(7);                     // bucket 3 upper edge
  h.record(8);                     // bucket 4
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 7u);
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 4 + 7 + 8);
  EXPECT_EQ(s.max, 8u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[3], 2u);
  EXPECT_EQ(s.buckets[4], 1u);
  EXPECT_EQ(HistogramSnapshot::bucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucketUpperBound(3), 7u);
  // Conservative quantile: within one bucket (factor of 2) of the truth.
  EXPECT_LE(s.quantile(0.0), 1u);
  EXPECT_EQ(s.quantile(1.0), 15u);  // max 8 lives in bucket 4, bound 15
}

TEST(ObsHistogram, QuantileAndMeanOnUniformSweep) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.mean(), 500.5);
  // p50 of [1,1000] is ~500 → bucket 9 ([256,512)), upper bound 511.
  EXPECT_EQ(s.quantile(0.5), 511u);
  EXPECT_GE(s.quantile(0.99), 511u);
}

TEST(ObsTrace, RingOverwritesOldestAndKeepsSeq) {
  TraceRing ring(4);
  for (int i = 0; i < 6; ++i) {
    ring.emit("test", "e" + std::to_string(i), "", i);
  }
  EXPECT_EQ(ring.emitted(), 6u);
  EXPECT_EQ(ring.overwritten(), 2u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 2u);  // e0, e1 were overwritten
  EXPECT_EQ(events.front().name, "e2");
  EXPECT_EQ(events.back().seq, 5u);
  EXPECT_EQ(events.back().a, 5);
  ring.clear();
  EXPECT_TRUE(ring.events().empty());
  EXPECT_EQ(ring.emitted(), 6u);  // emitted() keeps counting
}

TEST(ObsRegistry, SameNameSameMetricDifferentKindThrows) {
  MetricsRegistry registry;
  obs::Counter& a = registry.counter("x");
  obs::Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(registry.gauge("x"), MetricsError);
  EXPECT_THROW(registry.histogram("x"), MetricsError);
}

TEST(ObsSnapshot, MergeAddsCountersMaxesGaugesAddsHistograms) {
  MetricsSnapshot a;
  a.counters["c"] = 3;
  a.gauges["g"] = 10;
  Histogram ha;
  ha.record(4);
  a.histograms["h"] = ha.snapshot();

  MetricsSnapshot b;
  b.counters["c"] = 5;
  b.gauges["g"] = 7;
  Histogram hb;
  hb.record(4);
  hb.record(100);
  b.histograms["h"] = hb.snapshot();

  a.merge(b);
  EXPECT_EQ(a.counters["c"], 8u);
  EXPECT_EQ(a.gauges["g"], 10);  // max, not sum
  EXPECT_EQ(a.histograms["h"].count, 3u);
  EXPECT_EQ(a.histograms["h"].max, 100u);
  EXPECT_EQ(a.histograms["h"].buckets[3], 2u);  // two 4s

  // Prefixed merge rewrites keys.
  MetricsSnapshot c;
  c.merge(b, "peer.");
  EXPECT_EQ(c.counters.count("peer.c"), 1u);
  EXPECT_EQ(c.counters.count("c"), 0u);
}

TEST(ObsSnapshot, DumpsAreWellFormed) {
  MetricsRegistry registry;
  registry.counter("net.sent").inc(3);
  registry.gauge("queue.depth").set(4);
  registry.histogram("lat_us").record(100);
  const MetricsSnapshot snap = registry.snapshot();
  const std::string text = snap.toText();
  EXPECT_NE(text.find("net.sent"), std::string::npos);
  EXPECT_NE(text.find("queue.depth"), std::string::npos);
  const std::string json = snap.toJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"net.sent\":3"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"lat_us\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end wiring
// ---------------------------------------------------------------------------

TEST(ObsWiring, LossyLinkShowsUpAsRetransmitsAndDrops) {
  SimNetwork net(777);
  net.setDefaultLink(
      LinkParams{microseconds(200), microseconds(300), 0.10, 0.0});
  DappletConfig cfg;
  cfg.reliable.tickInterval = milliseconds(2);
  cfg.reliable.rto = milliseconds(10);
  Dapplet a(net, "a", cfg);
  Dapplet b(net, "b", cfg);
  Inbox& in = b.createInbox("in");
  Outbox& out = a.createOutbox();
  out.add(in.ref());

  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    DataMessage m("n");
    m.set("i", Value(static_cast<long long>(i)));
    out.send(m);
  }
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(in.receiveAs<DataMessage>(seconds(20)).get("i").asInt(), i);
    // FIFO held
  }

  const MetricsSnapshot sender = a.metrics();
  EXPECT_GE(sender.counters.at("reliable.data_sent"),
            static_cast<std::uint64_t>(kMessages));
  EXPECT_GT(sender.counters.at("reliable.retransmits"), 0u)
      << "10% loss must force retransmissions";
  EXPECT_GT(sender.counters.at("net.datagrams_out"), 0u);
  EXPECT_GT(sender.histograms.at("reliable.ack_latency_us").count, 0u);

  const MetricsSnapshot receiver = b.metrics();
  EXPECT_EQ(receiver.counters.at("core.messages_delivered"),
            static_cast<std::uint64_t>(kMessages));
  EXPECT_GT(receiver.gauges.at("core.inbox_queue_hwm"), 0);

  // The fabric's own view: drops happened, and once quiescent the flow
  // conservation invariant holds.
  ASSERT_TRUE(net.awaitQuiescent(seconds(10)));
  const MetricsSnapshot sim = net.metrics();
  EXPECT_GT(sim.counters.at("sim.dropped"), 0u);
  EXPECT_EQ(sim.counters.at("sim.delivered") +
                sim.counters.at("sim.undeliverable"),
            sim.counters.at("sim.sent") - sim.counters.at("sim.dropped") +
                sim.counters.at("sim.duplicated"));

  a.stop();
  b.stop();
}

TEST(ObsWiring, FastRetransmitsCountedOnce) {
  // One frame is lost and, with the retransmission timer pinned out of
  // reach, repaired by fast retransmit alone.  The snapshot must report
  // the transport's own count, not that count plus a second copy.
  testkit::VirtualClock clock;
  SimNetwork::Options netOpts;
  netOpts.clock = &clock;
  SimNetwork net(780, netOpts);
  const LinkParams clean{milliseconds(1), microseconds(0), 0.0, 0.0};
  net.setDefaultLink(clean);
  DappletConfig cfg;
  cfg.clock = &clock;
  cfg.reliable.tickInterval = milliseconds(2);
  cfg.reliable.rto = seconds(10);
  cfg.reliable.minRto = seconds(10);
  cfg.reliable.maxRto = seconds(10);
  cfg.reliable.deliveryTimeout = seconds(60);
  cfg.reliable.initialCwnd = 64;
  cfg.host = 1;
  Dapplet a(net, "a", cfg);
  cfg.host = 2;
  Dapplet b(net, "b", cfg);
  Inbox& in = b.createInbox("in");
  Outbox& out = a.createOutbox();
  out.add(in.ref());

  constexpr int kMessages = 31;
  for (int i = 0; i < kMessages; ++i) {
    net.setHostLink(1, 2, i == 10 ? LinkParams{milliseconds(1),
                                               microseconds(0), 1.0, 0.0}
                                  : clean);
    DataMessage m("n");
    m.set("i", Value(static_cast<long long>(i)));
    out.send(m);
  }
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(in.receiveAs<DataMessage>(seconds(30)).get("i").asInt(), i);
  }

  const std::uint64_t fast = a.transport().stats().fastRetransmits;
  EXPECT_EQ(fast, 1u);
  EXPECT_EQ(a.metrics().counters.at("reliable.fast_retransmits"), fast);
  a.stop();
  b.stop();
}

TEST(ObsWiring, WindowCutsAndCollapsesCountedOnce) {
  // Two losses on one channel.  The first is found by dup-SACK evidence
  // while acks flow: a cut that halves the window.  The second is a frame
  // sent into a dark path, whose timer expires with no ack since: a cut
  // that collapses the window to one frame.  The snapshot reports each
  // count exactly as the transport keeps it.
  testkit::VirtualClock clock;
  SimNetwork::Options netOpts;
  netOpts.clock = &clock;
  SimNetwork net(781, netOpts);
  const LinkParams clean{milliseconds(1), microseconds(0), 0.0, 0.0};
  net.setDefaultLink(clean);
  DappletConfig cfg;
  cfg.clock = &clock;
  cfg.reliable.tickInterval = milliseconds(2);
  cfg.reliable.rto = seconds(10);
  cfg.reliable.minRto = seconds(10);
  cfg.reliable.maxRto = seconds(10);
  cfg.reliable.deliveryTimeout = seconds(60);
  cfg.reliable.initialCwnd = 64;
  cfg.host = 1;
  Dapplet a(net, "a", cfg);
  cfg.host = 2;
  Dapplet b(net, "b", cfg);
  Inbox& in = b.createInbox("in");
  Outbox& out = a.createOutbox();
  out.add(in.ref());

  constexpr int kMessages = 31;
  for (int i = 0; i < kMessages; ++i) {
    net.setHostLink(1, 2, i == 10 ? LinkParams{milliseconds(1),
                                               microseconds(0), 1.0, 0.0}
                                  : clean);
    DataMessage m("n");
    m.set("i", Value(static_cast<long long>(i)));
    out.send(m);
  }
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(in.receiveAs<DataMessage>(seconds(30)).get("i").asInt(), i);
  }
  ASSERT_TRUE(a.flush(seconds(30)));
  clock.sleepFor(milliseconds(50));  // the last acks are home

  net.setPartition(1, 2, true);
  DataMessage dark("n");
  dark.set("i", Value(static_cast<long long>(kMessages)));
  out.send(dark);
  clock.sleepFor(seconds(11));  // one timer expiry into the dark
  net.setPartition(1, 2, false);
  EXPECT_EQ(in.receiveAs<DataMessage>(seconds(30)).get("i").asInt(),
            kMessages);

  const ReliableEndpoint::Stats stats = a.transport().stats();
  EXPECT_EQ(stats.windowCuts, 2u);
  EXPECT_EQ(stats.windowCollapses, 1u);
  const obs::MetricsSnapshot snap = a.metrics();
  EXPECT_EQ(snap.counters.at("reliable.window_cuts"), stats.windowCuts);
  EXPECT_EQ(snap.counters.at("reliable.window_collapses"),
            stats.windowCollapses);
  a.stop();
  b.stop();
}

TEST(ObsWiring, SessionCountersAndPhaseLatencies) {
  SimNetwork net(778);
  Dapplet m0(net, "m0");
  Dapplet m1(net, "m1");
  SessionAgent a0(m0);
  SessionAgent a1(m1);
  for (SessionAgent* agent : {&a0, &a1}) {
    agent->registerApp("noop", [](SessionContext&) {});
  }
  Directory directory;
  directory.put("m0", a0.controlRef());
  directory.put("m1", a1.controlRef());

  Dapplet init(net, "init");
  Initiator initiator(init);
  Initiator::Plan plan;
  plan.app = "noop";
  plan.members.push_back(Initiator::member(directory, "m0", {"in"}));
  plan.members.push_back(Initiator::member(directory, "m1", {"in"}));
  plan.edges.push_back({"m0", "out", "m1", "in"});
  auto result = initiator.establish(plan);
  ASSERT_TRUE(result.ok);
  initiator.awaitCompletion(result.sessionId, seconds(10));
  initiator.terminate(result.sessionId);

  // Members: one INVITE accepted each; sessions complete and unlink.
  const MetricsSnapshot member = m0.metrics();
  EXPECT_EQ(member.counters.at("session.invites_accepted"), 1u);
  EXPECT_EQ(member.counters.at("session.invites_rejected"), 0u);
  EXPECT_EQ(member.counters.at("session.sessions_completed"), 1u);

  // Initiator: all three phase histograms saw one round.
  const MetricsSnapshot initiatorSnap = init.metrics();
  EXPECT_EQ(initiatorSnap.histograms.at("session.invite_round_us").count, 1u);
  EXPECT_EQ(initiatorSnap.histograms.at("session.wire_round_us").count, 1u);
  EXPECT_EQ(initiatorSnap.histograms.at("session.start_round_us").count, 1u);

  // The trace narrates the control plane: an established-session event
  // exists on the initiator's ring.
  bool sawEstablished = false;
  for (const auto& ev : init.trace().events()) {
    if (ev.name == "session.established") sawEstablished = true;
  }
  EXPECT_TRUE(sawEstablished);

  m0.stop();
  m1.stop();
  init.stop();
}

TEST(ObsWiring, FanoutHistogramTracksDestinationCount) {
  SimNetwork net(779);
  Dapplet a(net, "a");
  Dapplet b(net, "b");
  Inbox& in1 = b.createInbox("in1");
  Inbox& in2 = b.createInbox("in2");
  Inbox& in3 = b.createInbox("in3");
  Outbox& out = a.createOutbox();
  out.add(in1.ref());
  out.add(in2.ref());
  out.add(in3.ref());
  out.send(DataMessage("x"));
  ASSERT_TRUE(in1.receiveFor(seconds(5)).has_value());
  ASSERT_TRUE(in2.receiveFor(seconds(5)).has_value());
  ASSERT_TRUE(in3.receiveFor(seconds(5)).has_value());

  const HistogramSnapshot fanout =
      a.metrics().histograms.at("core.fanout");
  EXPECT_EQ(fanout.count, 1u);
  EXPECT_EQ(fanout.max, 3u);

  a.stop();
  b.stop();
}

}  // namespace
}  // namespace dapple
