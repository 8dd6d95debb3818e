// Crash-recovery persistence (DESIGN.md §12): WAL + checkpoint round-trips,
// torn-tail handling, the StateStore corrupt-file fallback, coordinated
// checkpoints, and the full kill -> restart -> REJOIN path, all on a
// VirtualClock so seconds of recovery time cost milliseconds of wall time.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "dapple/core/session.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/services/liveness/liveness.hpp"
#include "dapple/services/recovery/recovery.hpp"
#include "dapple/services/snapshot/snapshot.hpp"
#include "dapple/services/tokens/token_manager.hpp"
#include "dapple/testkit/seed.hpp"
#include "dapple/testkit/virtual_clock.hpp"

namespace dapple {
namespace {

SimNetwork::Options simOn(testkit::VirtualClock& clock) {
  SimNetwork::Options opts;
  opts.clock = &clock;
  return opts;
}

DappletConfig recoveryCfg(testkit::VirtualClock& clock, std::uint32_t host) {
  DappletConfig cfg;
  cfg.clock = &clock;
  cfg.reliable.tickInterval = milliseconds(2);
  cfg.reliable.rto = milliseconds(15);
  cfg.reliable.maxRto = milliseconds(120);
  cfg.reliable.deliveryTimeout = seconds(10);
  cfg.host = host;
  return cfg;
}

/// Fresh per-test scratch directory (tests may use wall-clock identifiers;
/// only the fuzz scenarios must stay deterministic).
std::string tempDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const auto path = std::filesystem::temp_directory_path() /
                    ("dapple_recovery_" + std::to_string(::getpid()) + "_" +
                     tag + "_" + std::to_string(counter.fetch_add(1)));
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path.string();
}

void appendRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

// ---------------------------------------------------------------------------
// WAL unit behaviour
// ---------------------------------------------------------------------------

TEST(Wal, RoundTripPreservesOrderAndSequence) {
  const std::string path = tempDir("wal") + "/w.wal";
  {
    recovery::WriteAheadLog wal(path);
    EXPECT_TRUE(wal.replayAll().records.empty());
    const Value v1(static_cast<std::int64_t>(42));
    const Value v2(std::string("hello world"));
    EXPECT_EQ(1u, wal.append(recovery::WalRecord::kPut, "alpha", &v1, 7));
    EXPECT_EQ(2u, wal.append(recovery::WalRecord::kPut, "beta", &v2, 8));
    EXPECT_EQ(3u, wal.append(recovery::WalRecord::kErase, "alpha", nullptr, 9));
  }
  recovery::WriteAheadLog wal(path);
  auto replay = wal.replayAll();
  ASSERT_EQ(3u, replay.records.size());
  EXPECT_FALSE(replay.tornTail);
  EXPECT_EQ(recovery::WalRecord::kPut, replay.records[0].kind);
  EXPECT_EQ("alpha", replay.records[0].key);
  EXPECT_EQ(42, replay.records[0].value.asInt());
  EXPECT_EQ(7u, replay.records[0].lamport);
  EXPECT_EQ("hello world", replay.records[1].value.asString());
  EXPECT_EQ(recovery::WalRecord::kErase, replay.records[2].kind);
  EXPECT_TRUE(replay.records[2].value.isNull());
  // The sequence continues where the log left off.
  const Value v3(static_cast<std::int64_t>(1));
  EXPECT_EQ(4u, wal.append(recovery::WalRecord::kPut, "gamma", &v3, 10));
}

TEST(Wal, TornTailIsTruncatedAndLogStaysAppendable) {
  const std::string path = tempDir("torn") + "/w.wal";
  {
    recovery::WriteAheadLog wal(path);
    wal.replayAll();
    const Value v(static_cast<std::int64_t>(1));
    wal.append(recovery::WalRecord::kPut, "a", &v, 1);
    wal.append(recovery::WalRecord::kPut, "b", &v, 2);
  }
  // A crash mid-append: frame header promises more bytes than exist.
  appendRaw(path, "u999 u12345 half-a-fra");
  {
    recovery::WriteAheadLog wal(path);
    auto replay = wal.replayAll();
    ASSERT_EQ(2u, replay.records.size());
    EXPECT_TRUE(replay.tornTail);
    EXPECT_GT(replay.truncatedBytes, 0u);
    const Value v(static_cast<std::int64_t>(3));
    wal.append(recovery::WalRecord::kPut, "c", &v, 3);
  }
  // The truncation left a clean log: all three records replay intact.
  recovery::WriteAheadLog wal(path);
  auto replay = wal.replayAll();
  ASSERT_EQ(3u, replay.records.size());
  EXPECT_FALSE(replay.tornTail);
  EXPECT_EQ("c", replay.records[2].key);
}

// A process upgrade that flips the codec must be able to reopen a journal
// written under the old codec: replay auto-detects each frame, appends use
// the new codec, and a log mixing both formats replays in full order.
TEST(Wal, CodecSwitchReplaysOldTextJournalAndMixesFrames) {
  const std::string path = tempDir("codec") + "/w.wal";
  const Value v1(static_cast<std::int64_t>(1));
  const Value v2(std::string("two"));
  {
    recovery::WriteAheadLog wal(path);  // default: text frames
    wal.replayAll();
    wal.append(recovery::WalRecord::kPut, "a", &v1, 1);
    wal.append(recovery::WalRecord::kPut, "b", &v2, 2);
  }
  {
    // Reopen binary-configured over the pre-existing text journal.
    recovery::WriteAheadLog wal(
        path, recovery::WriteAheadLog::Options(true, WireCodec::kBinary));
    auto replay = wal.replayAll();
    ASSERT_EQ(2u, replay.records.size());
    EXPECT_FALSE(replay.tornTail);
    EXPECT_EQ("b", replay.records[1].key);
    EXPECT_EQ("two", replay.records[1].value.asString());
    wal.append(recovery::WalRecord::kPut, "c", &v1, 3);  // binary frame
  }
  // The mixed text+binary log replays in order under either configuration.
  for (const WireCodec codec : {WireCodec::kText, WireCodec::kBinary}) {
    recovery::WriteAheadLog wal(path,
                                recovery::WriteAheadLog::Options(true, codec));
    auto replay = wal.replayAll();
    ASSERT_EQ(3u, replay.records.size());
    EXPECT_FALSE(replay.tornTail);
    EXPECT_EQ("a", replay.records[0].key);
    EXPECT_EQ("c", replay.records[2].key);
    EXPECT_EQ(3u, replay.records[2].seq);
  }
}

TEST(Wal, BinaryTornTailIsTruncatedAndLogStaysAppendable) {
  const std::string path = tempDir("btorn") + "/w.wal";
  const recovery::WriteAheadLog::Options binOpts(true, WireCodec::kBinary);
  const Value v(static_cast<std::int64_t>(1));
  {
    recovery::WriteAheadLog wal(path, binOpts);
    wal.replayAll();
    wal.append(recovery::WalRecord::kPut, "a", &v, 1);
  }
  // A crash mid-append: binary preamble + varint length promising more
  // bytes than the file holds.
  appendRaw(path, std::string(1, kBinaryPreamble) + "\x40partial");
  {
    recovery::WriteAheadLog wal(path, binOpts);
    auto replay = wal.replayAll();
    ASSERT_EQ(1u, replay.records.size());
    EXPECT_TRUE(replay.tornTail);
    wal.append(recovery::WalRecord::kPut, "b", &v, 2);
  }
  recovery::WriteAheadLog wal(path, binOpts);
  auto replay = wal.replayAll();
  ASSERT_EQ(2u, replay.records.size());
  EXPECT_FALSE(replay.tornTail);
  EXPECT_EQ("b", replay.records[1].key);
}

// ---------------------------------------------------------------------------
// StateStore durability (atomic save + corrupt-file fallback)
// ---------------------------------------------------------------------------

TEST(StateStoreDurability, AtomicSaveRoundTripsAndCorruptFileDegrades) {
  const std::string path = tempDir("store") + "/state.db";
  {
    StateStore store(path);
    store.put("k", Value(static_cast<std::int64_t>(5)));
    store.put("s", Value(std::string("v")));
  }
  {
    StateStore store(path);
    EXPECT_EQ(5, store.get("k").asInt());
    EXPECT_EQ("v", store.get("s").asString());
  }
  // Corrupt the image (as a torn write from a pre-atomic-save version
  // would): the store must degrade to empty with a warning, not abort.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "m3 this is not wire text !!";
  }
  std::vector<std::string> warnings;
  StateStore store(path,
                   [&](const std::string& w) { warnings.push_back(w); });
  EXPECT_TRUE(store.keys().empty());
  ASSERT_EQ(1u, warnings.size());
  EXPECT_NE(std::string::npos, warnings[0].find("corrupt"));
  // The bad image is preserved for post-mortem, not silently destroyed.
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  // The degraded store keeps persisting.
  store.put("fresh", Value(static_cast<std::int64_t>(1)));
  StateStore reloaded(path);
  EXPECT_EQ(1, reloaded.get("fresh").asInt());
}

// ---------------------------------------------------------------------------
// DurableState: checkpoint + WAL tail recovery
// ---------------------------------------------------------------------------

TEST(DurableState, ReopenReplaysWalOntoCheckpoint) {
  const std::uint64_t seed = testkit::testSeed(910);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  const std::string dir = tempDir("durable");

  {
    Dapplet d(net, "p1", recoveryCfg(clock, 1));
    recovery::DurableState ds(d, dir);
    EXPECT_FALSE(ds.info().recovered);
    EXPECT_EQ(1u, ds.incarnation());
    ds.store().put("a", Value(static_cast<std::int64_t>(1)));
    ds.store().put("b", Value(std::string("x")));
    ds.store().put("tmp", Value(static_cast<std::int64_t>(3)));
    ds.store().erase("tmp");
    EXPECT_EQ(4u, ds.stats().walAppends);
    d.stop();
  }
  std::uint64_t checkpointAt = 0;
  {
    Dapplet d(net, "p2", recoveryCfg(clock, 2));
    recovery::DurableState ds(d, dir);
    EXPECT_TRUE(ds.info().recovered);
    EXPECT_EQ(2u, ds.incarnation());
    EXPECT_EQ(4u, ds.info().replayedRecords);
    EXPECT_FALSE(ds.info().tornTail);
    EXPECT_EQ(1, ds.store().get("a").asInt());
    EXPECT_EQ("x", ds.store().get("b").asString());
    EXPECT_FALSE(ds.store().has("tmp"));
    // Compact, then journal one more mutation on top of the image.
    ds.checkpoint();
    EXPECT_EQ(1u, ds.stats().checkpoints);
    EXPECT_EQ(0u, ds.stats().walBytes);
    ds.store().put("d", Value(static_cast<std::int64_t>(2)));
    d.stop();
  }
  {
    Dapplet d(net, "p3", recoveryCfg(clock, 3));
    recovery::DurableState ds(d, dir);
    EXPECT_EQ(3u, ds.incarnation());
    EXPECT_GT(ds.info().checkpointAt, 0u);
    checkpointAt = ds.info().checkpointAt;
    EXPECT_EQ(1u, ds.info().replayedRecords);  // just the post-compact put
    EXPECT_EQ(1, ds.store().get("a").asInt());
    EXPECT_EQ(2, ds.store().get("d").asInt());
    // A restarted process must not reissue Lamport times it already used.
    EXPECT_GE(d.clock().now(), checkpointAt);
    d.stop();
  }
}

// Full-stack codec upgrade: a restart that flips `wireCodec` to binary must
// replay the incarnation-1 text journal, journal new mutations in binary,
// and a third (text-again) incarnation must replay the mixed log + the
// binary checkpoint image.
TEST(DurableState, CodecUpgradeAcrossIncarnations) {
  const std::uint64_t seed = testkit::testSeed(915);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  const std::string dir = tempDir("codecup");

  {
    Dapplet d(net, "p1", recoveryCfg(clock, 1));  // text (default)
    recovery::DurableState ds(d, dir);
    ds.store().put("a", Value(static_cast<std::int64_t>(1)));
    d.stop();
  }
  {
    DappletConfig cfg = recoveryCfg(clock, 2);
    cfg.wireCodec = WireCodec::kBinary;
    Dapplet d(net, "p2", cfg);
    recovery::DurableState ds(d, dir);
    EXPECT_TRUE(ds.info().recovered);
    EXPECT_FALSE(ds.info().tornTail);
    EXPECT_EQ(1, ds.store().get("a").asInt());
    ds.store().put("b", Value(std::string("bin")));  // binary WAL frame
    ds.checkpoint();                                 // binary checkpoint image
    ds.store().put("c", Value(static_cast<std::int64_t>(3)));
    d.stop();
  }
  {
    Dapplet d(net, "p3", recoveryCfg(clock, 3));  // back to text
    recovery::DurableState ds(d, dir);
    EXPECT_TRUE(ds.info().recovered);
    EXPECT_FALSE(ds.info().tornTail);
    EXPECT_EQ(1u, ds.info().replayedRecords);  // just the post-compact put
    EXPECT_EQ(1, ds.store().get("a").asInt());
    EXPECT_EQ("bin", ds.store().get("b").asString());
    EXPECT_EQ(3, ds.store().get("c").asInt());
    d.stop();
  }
}

TEST(DurableState, TornWalTailRecoversAppliedPrefix) {
  const std::uint64_t seed = testkit::testSeed(911);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  const std::string dir = tempDir("torn_durable");
  {
    Dapplet d(net, "p1", recoveryCfg(clock, 1));
    recovery::DurableState ds(d, dir);
    ds.store().put("a", Value(static_cast<std::int64_t>(1)));
    ds.store().put("b", Value(static_cast<std::int64_t>(2)));
    d.stop();
  }
  appendRaw(dir + "/state.wal", "u123 u9 torn");
  Dapplet d(net, "p2", recoveryCfg(clock, 2));
  recovery::DurableState ds(d, dir);
  EXPECT_TRUE(ds.info().tornTail);
  EXPECT_EQ(2u, ds.info().replayedRecords);
  EXPECT_EQ(1, ds.store().get("a").asInt());
  EXPECT_EQ(2, ds.store().get("b").asInt());
  d.stop();
}

// ---------------------------------------------------------------------------
// Coordinated checkpoints (CheckpointService + bindCheckpoint)
// ---------------------------------------------------------------------------

TEST(CoordinatedCheckpoint, GlobalCutCompactsEveryMember) {
  const std::uint64_t seed = testkit::testSeed(912);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  const std::string dir0 = tempDir("coord0");
  const std::string dir1 = tempDir("coord1");
  {
    Dapplet d0(net, "m0", recoveryCfg(clock, 1));
    Dapplet d1(net, "m1", recoveryCfg(clock, 2));
    recovery::DurableState ds0(d0, dir0);
    recovery::DurableState ds1(d1, dir1);
    CheckpointService cp0(d0, [&] { return Value(ds0.store().snapshot()); });
    CheckpointService cp1(d1, [&] { return Value(ds1.store().snapshot()); });
    recovery::bindCheckpoint(cp0, ds0);
    recovery::bindCheckpoint(cp1, ds1);
    cp0.attach({cp0.ref(), cp1.ref()}, 0);
    cp1.attach({cp0.ref(), cp1.ref()}, 1);

    ds0.store().put("x", Value(static_cast<std::int64_t>(1)));
    ds1.store().put("y", Value(static_cast<std::int64_t>(2)));
    EXPECT_GT(ds0.stats().walBytes, 0u);
    EXPECT_GT(ds1.stats().walBytes, 0u);

    cp0.take(milliseconds(50), seconds(10));

    // The cut compacted both members: images on disk, logs empty.
    EXPECT_EQ(1u, ds0.stats().checkpoints);
    EXPECT_EQ(1u, ds1.stats().checkpoints);
    EXPECT_EQ(0u, ds0.stats().walBytes);
    EXPECT_EQ(0u, ds1.stats().walBytes);
    d0.stop();
    d1.stop();
  }
  // The checkpoint image alone (no WAL tail) carries member 1's state, and
  // it is stamped with the cut's logical time.
  Dapplet d(net, "m1b", recoveryCfg(clock, 3));
  recovery::DurableState ds(d, dir1);
  EXPECT_TRUE(ds.info().recovered);
  EXPECT_EQ(0u, ds.info().replayedRecords);
  EXPECT_GT(ds.info().checkpointAt, 0u);
  EXPECT_EQ(2, ds.store().get("y").asInt());
  d.stop();
}

// ---------------------------------------------------------------------------
// Kill -> restart -> REJOIN
// ---------------------------------------------------------------------------

constexpr std::int64_t kItems = 6;

Value roleParams(const std::string& role) {
  ValueMap params;
  params["role"] = Value(role);
  return Value(std::move(params));
}

/// One app, two roles.  "feeder" streams numbered items and retries until
/// each is acked; "sum" folds them into durable state exactly once (the
/// journaled lastSeq dedups redelivery across the restart).
void registerPipelineApp(SessionAgent& agent) {
  agent.registerApp("rec.pipeline", [](SessionContext& ctx) {
    const std::string role = ctx.params().at("role").asString();
    if (role == "feeder") {
      Outbox& out = ctx.outbox("out");
      Inbox& ack = ctx.inbox("ack");
      std::int64_t next = 1;
      while (next <= kItems && !ctx.stopToken().stop_requested()) {
        DataMessage item("item");
        item.set("seq", Value(static_cast<long long>(next)));
        try {
          out.send(item);
        } catch (const Error&) {
          out.reset();  // victim down; the rejoin WIRE re-points us
        }
        try {
          if (auto del = ack.receiveFor(milliseconds(200))) {
            const auto* msg =
                dynamic_cast<const DataMessage*>(del->message.get());
            if (msg != nullptr && msg->kind() == "ack") {
              next = std::max<std::int64_t>(next, msg->get("seq").asInt() + 1);
            }
          }
        } catch (const PeerDownError&) {
          // Eviction notice: keep retrying until the member rejoins.
        }
      }
      ctx.setResult(Value(static_cast<long long>(next - 1)));
      return;
    }
    // "sum": resumes from the journaled prefix after a restart.
    Inbox& in = ctx.inbox("in");
    Outbox& out = ctx.outbox("out");
    StateView& state = ctx.state();
    std::int64_t last = state.getOr("rec.lastSeq", Value(0)).asInt();
    std::int64_t sum = state.getOr("rec.sum", Value(0)).asInt();
    while (last < kItems && !ctx.stopToken().stop_requested()) {
      std::optional<Delivery> del;
      try {
        del = in.receiveFor(milliseconds(200));
      } catch (const PeerDownError&) {
        continue;
      }
      if (!del) continue;
      const auto* msg = dynamic_cast<const DataMessage*>(del->message.get());
      if (msg == nullptr || msg->kind() != "item") continue;
      const std::int64_t seq = msg->get("seq").asInt();
      if (seq == last + 1) {  // exactly-once apply
        // Pace each apply in virtual time so the test can crash this member
        // provably mid-stream (item k lands at ~k * 100ms virtual).
        ctx.dapplet().clockSource().sleepFor(milliseconds(100));
        sum += seq;
        last = seq;
        state.put("rec.sum", Value(static_cast<long long>(sum)));
        state.put("rec.lastSeq", Value(static_cast<long long>(last)));
      }
      if (seq <= last) {
        DataMessage ackMsg("ack");
        ackMsg.set("seq", Value(static_cast<long long>(last)));
        try {
          out.send(ackMsg);
        } catch (const Error&) {
          out.reset();
        }
      }
    }
    ctx.setResult(Value(static_cast<long long>(sum)));
  });
}

Initiator::Plan pipelinePlan(const InboxRef& feederCtl,
                             const InboxRef& victimCtl) {
  Initiator::Plan plan;
  plan.app = "rec.pipeline";
  Initiator::MemberPlan feeder;
  feeder.name = "feeder";
  feeder.control = feederCtl;
  feeder.inboxes = {"ack"};
  feeder.params = roleParams("feeder");
  Initiator::MemberPlan victim;
  victim.name = "victim";
  victim.control = victimCtl;
  victim.inboxes = {"in"};
  victim.writeKeys = {"rec.sum", "rec.lastSeq"};
  victim.params = roleParams("sum");
  plan.members = {feeder, victim};
  plan.edges = {{"feeder", "out", "victim", "in"},
                {"victim", "out", "feeder", "ack"}};
  plan.phaseTimeout = seconds(30);
  return plan;
}

/// Parks the (guest) test thread until the paced pipeline is provably
/// mid-stream, returning the victim's durable progress at the crash point.
std::int64_t settleMidStream(testkit::VirtualClock& clock,
                             recovery::DurableState& ds) {
  clock.sleepFor(milliseconds(250));
  const std::int64_t progress =
      ds.store().getOr("rec.lastSeq", Value(0)).asInt();
  EXPECT_GE(progress, 1);
  EXPECT_LT(progress, kItems);
  return progress;
}

/// Kill -> restart -> REJOIN with no failure detector: the restart always
/// wins the race against eviction (the initiator still believes the old
/// process is alive), exercising the idempotent re-registration path — the
/// member must be re-pointed, never duplicated, and survivors must learn the
/// old address is dead.  The director idles for `idle` of virtual time after
/// the restart before it awaits the session.
void rejoinBeforeEviction(std::uint64_t seed, Duration idle) {
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  const std::string dir = tempDir("rejoin");

  Dapplet director(net, "director", recoveryCfg(clock, 1));
  Dapplet feeder(net, "feeder", recoveryCfg(clock, 2));
  SessionAgent feederAgent(feeder);
  registerPipelineApp(feederAgent);

  auto victim = std::make_unique<Dapplet>(net, "victim", recoveryCfg(clock, 3));
  auto vds = std::make_unique<recovery::DurableState>(*victim, dir);
  SessionAgent::Config vcfg;
  vcfg.store = &vds->store();
  vcfg.durableSessions = true;
  vcfg.incarnation = vds->incarnation();
  auto victimAgent = std::make_unique<SessionAgent>(*victim, vcfg);
  registerPipelineApp(*victimAgent);

  Initiator initiator(director);
  auto result = initiator.establish(
      pipelinePlan(feederAgent.controlRef(), victimAgent->controlRef()));
  ASSERT_TRUE(result.ok);

  // Let the pipeline make durable progress, then kill the victim cold.
  const std::int64_t progress = settleMidStream(clock, *vds);
  victim->crash();
  victimAgent.reset();
  vds.reset();
  victim.reset();

  // Restart: same durable directory, new process at a new address.
  auto victim2 =
      std::make_unique<Dapplet>(net, "victim", recoveryCfg(clock, 4));
  auto vds2 = std::make_unique<recovery::DurableState>(*victim2, dir);
  EXPECT_TRUE(vds2->info().recovered);
  EXPECT_EQ(2u, vds2->incarnation());
  // No durable progress lost: the clock keeps running between the progress
  // read and crash(), so recovered state may be ahead, but never behind.
  EXPECT_GE(vds2->store().getOr("rec.lastSeq", Value(0)).asInt(), progress);
  SessionAgent::Config vcfg2;
  vcfg2.store = &vds2->store();
  vcfg2.durableSessions = true;
  vcfg2.incarnation = vds2->incarnation();
  auto victimAgent2 = std::make_unique<SessionAgent>(*victim2, vcfg2);
  registerPipelineApp(*victimAgent2);
  const auto rejoining = victimAgent2->rejoinPersisted();
  ASSERT_EQ(1u, rejoining.size());
  EXPECT_EQ(result.sessionId, rejoining[0]);

  if (idle > Duration::zero()) clock.sleepFor(idle);
  auto results = initiator.awaitCompletion(result.sessionId, seconds(120));
  EXPECT_EQ(kItems * (kItems + 1) / 2, results.at("victim").asInt());
  EXPECT_EQ(kItems, results.at("feeder").asInt());
  // Never evicted, never double-registered: exactly the two planned members.
  EXPECT_EQ(2u, results.size());
  EXPECT_TRUE(initiator.downMembers(result.sessionId).empty());
  EXPECT_EQ(1u, victimAgent2->stats().rejoinsSent);
  EXPECT_EQ(1u, feederAgent.stats().peersRejoined);
  initiator.terminate(result.sessionId);

  victimAgent2.reset();
  vds2.reset();
  victim2->stop();
  feeder.stop();
  director.stop();
}

TEST(Rejoin, KillRestartRejoinBeforeEvictionConverges) {
  const std::uint64_t seed = testkit::testSeed(920);
  DAPPLE_SEED_TRACE(seed);
  rejoinBeforeEviction(seed, Duration::zero());
}

TEST(Rejoin, RejoinIsHandledWhileNobodyAwaitsCompletion) {
  // The initiator answers a REJOIN when it arrives: here the director is
  // away for 5 s, longer than the restarted member's whole retry budget (8
  // REJOINs over 2.8 s, given up at 3.6 s), and only then awaits the
  // session, which must already have healed.
  const std::uint64_t seed = testkit::testSeed(924);
  DAPPLE_SEED_TRACE(seed);
  rejoinBeforeEviction(seed, seconds(5));
}

TEST(Rejoin, RestartAfterEvictionUnEvicts) {
  // With a failure detector the eviction completes first: the victim is in
  // downMembers and survivors dropped its bindings.  The rejoin must then
  // un-evict — clear the verdict, re-wire, and still produce full results.
  const std::uint64_t seed = testkit::testSeed(921);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  const std::string dir = tempDir("unevict");

  LivenessConfig live;
  live.heartbeatInterval = milliseconds(25);
  live.suspectTimeout = milliseconds(200);

  Dapplet director(net, "director", recoveryCfg(clock, 1));
  LivenessMonitor directorMon(director, live);
  Dapplet feeder(net, "feeder", recoveryCfg(clock, 2));
  LivenessMonitor feederMon(feeder, live);
  SessionAgent::Config fcfg;
  fcfg.monitor = &feederMon;
  SessionAgent feederAgent(feeder, fcfg);
  registerPipelineApp(feederAgent);

  auto victim = std::make_unique<Dapplet>(net, "victim", recoveryCfg(clock, 3));
  auto victimMon = std::make_unique<LivenessMonitor>(*victim, live);
  auto vds = std::make_unique<recovery::DurableState>(*victim, dir);
  SessionAgent::Config vcfg;
  vcfg.store = &vds->store();
  vcfg.durableSessions = true;
  vcfg.incarnation = vds->incarnation();
  vcfg.monitor = victimMon.get();
  auto victimAgent = std::make_unique<SessionAgent>(*victim, vcfg);
  registerPipelineApp(*victimAgent);

  Initiator initiator(director, &directorMon);
  auto result = initiator.establish(
      pipelinePlan(feederAgent.controlRef(), victimAgent->controlRef()));
  ASSERT_TRUE(result.ok);

  settleMidStream(clock, *vds);
  victim->crash();
  victimAgent.reset();
  vds.reset();
  victimMon.reset();
  victim.reset();

  // Wait until the detector's verdict lands: the victim is evicted.
  while (initiator.downMembers(result.sessionId).count("victim") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto victim2 =
      std::make_unique<Dapplet>(net, "victim", recoveryCfg(clock, 4));
  auto victimMon2 = std::make_unique<LivenessMonitor>(*victim2, live);
  auto vds2 = std::make_unique<recovery::DurableState>(*victim2, dir);
  EXPECT_EQ(2u, vds2->incarnation());
  SessionAgent::Config vcfg2;
  vcfg2.store = &vds2->store();
  vcfg2.durableSessions = true;
  vcfg2.incarnation = vds2->incarnation();
  vcfg2.monitor = victimMon2.get();
  auto victimAgent2 = std::make_unique<SessionAgent>(*victim2, vcfg2);
  registerPipelineApp(*victimAgent2);
  ASSERT_EQ(1u, victimAgent2->rejoinPersisted().size());

  auto results = initiator.awaitCompletion(result.sessionId, seconds(120));
  EXPECT_EQ(kItems * (kItems + 1) / 2, results.at("victim").asInt());
  EXPECT_EQ(kItems, results.at("feeder").asInt());
  // The eviction verdict was cleared by the rejoin.
  EXPECT_TRUE(initiator.downMembers(result.sessionId).empty());
  initiator.terminate(result.sessionId);

  victimAgent2.reset();
  vds2.reset();
  victimMon2.reset();
  victim2->stop();
  feeder.stop();
  director.stop();
}

constexpr std::int64_t kCountTarget = 5;

void registerCounterApp(SessionAgent& agent) {
  agent.registerApp("rec.count", [](SessionContext& ctx) {
    StateView& state = ctx.state();
    std::int64_t n = state.getOr("rec.counter", Value(0)).asInt();
    while (n < kCountTarget && !ctx.stopToken().stop_requested()) {
      // Paced like the pipeline: one increment per 100ms of virtual time,
      // so a crash at +250ms is guaranteed to interrupt the count.
      ctx.dapplet().clockSource().sleepFor(milliseconds(100));
      ++n;
      state.put("rec.counter", Value(static_cast<long long>(n)));
    }
    ctx.setResult(Value(static_cast<long long>(n)));
  });
}

TEST(Rejoin, TwoConcurrentRestartsBothRecover) {
  const std::uint64_t seed = testkit::testSeed(922);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  const std::string dirs[2] = {tempDir("multi0"), tempDir("multi1")};

  Dapplet director(net, "director", recoveryCfg(clock, 1));
  Initiator initiator(director);

  struct Member {
    std::unique_ptr<Dapplet> dapplet;
    std::unique_ptr<recovery::DurableState> durable;
    std::unique_ptr<SessionAgent> agent;
  };
  auto boot = [&](int index, std::uint32_t host) {
    Member m;
    m.dapplet = std::make_unique<Dapplet>(
        net, "v" + std::to_string(index), recoveryCfg(clock, host));
    m.durable =
        std::make_unique<recovery::DurableState>(*m.dapplet, dirs[index]);
    SessionAgent::Config cfg;
    cfg.store = &m.durable->store();
    cfg.durableSessions = true;
    cfg.incarnation = m.durable->incarnation();
    m.agent = std::make_unique<SessionAgent>(*m.dapplet, cfg);
    registerCounterApp(*m.agent);
    return m;
  };
  Member members[2] = {boot(0, 2), boot(1, 3)};

  Initiator::Plan plan;
  plan.app = "rec.count";
  for (int i = 0; i < 2; ++i) {
    Initiator::MemberPlan mp;
    mp.name = "v" + std::to_string(i);
    mp.control = members[i].agent->controlRef();
    mp.writeKeys = {"rec.counter"};
    mp.params = roleParams("count");
    plan.members.push_back(mp);
  }
  plan.phaseTimeout = seconds(30);
  auto result = initiator.establish(plan);
  ASSERT_TRUE(result.ok);

  clock.sleepFor(milliseconds(250));
  for (auto& m : members) {
    const std::int64_t n =
        m.durable->store().getOr("rec.counter", Value(0)).asInt();
    EXPECT_GE(n, 1);
    EXPECT_LT(n, kCountTarget);
  }
  for (auto& m : members) m.dapplet->crash();
  for (auto& m : members) {
    m.agent.reset();
    m.durable.reset();
    m.dapplet.reset();
  }

  Member restarted[2] = {boot(0, 4), boot(1, 5)};
  for (auto& m : restarted) {
    EXPECT_EQ(2u, m.durable->incarnation());
    ASSERT_EQ(1u, m.agent->rejoinPersisted().size());
  }

  auto results = initiator.awaitCompletion(result.sessionId, seconds(120));
  EXPECT_EQ(kCountTarget, results.at("v0").asInt());
  EXPECT_EQ(kCountTarget, results.at("v1").asInt());
  EXPECT_TRUE(initiator.downMembers(result.sessionId).empty());
  initiator.terminate(result.sessionId);

  for (auto& m : restarted) {
    m.agent.reset();
    m.durable.reset();
    m.dapplet->stop();
  }
  director.stop();
}

// ---------------------------------------------------------------------------
// Token accounting across a restart
// ---------------------------------------------------------------------------

std::string colorHomedAt(std::size_t want, std::size_t members) {
  for (int i = 0; i < 1000; ++i) {
    const std::string c = "c" + std::to_string(i);
    if (TokenManager::homeOfColor(c, members) == want) return c;
  }
  throw TokenError("no colour found");
}

TEST(TokenRecovery, RestartConservesTokensAndRewiresGrants) {
  const std::uint64_t seed = testkit::testSeed(923);
  DAPPLE_SEED_TRACE(seed);
  testkit::VirtualClock clock;
  SimNetwork net(seed, simOn(clock));
  const std::string dir = tempDir("tokens");
  const std::string c0 = colorHomedAt(0, 2);  // homed at the survivor
  const std::string c1 = colorHomedAt(1, 2);  // homed at the victim

  Dapplet a(net, "a", recoveryCfg(clock, 1));
  // Keep the deadlock prober quiet: a requester that already holds tokens
  // of the colour it awaits trips the edge-chasing probe, and here we want
  // the plain timeout-then-retry contract instead.
  TokenConfig aCfg;
  aCfg.probeDelay = seconds(60);
  TokenManager ma(a, aCfg);

  auto b = std::make_unique<Dapplet>(net, "b", recoveryCfg(clock, 2));
  auto bds = std::make_unique<recovery::DurableState>(*b, dir);
  TokenConfig bCfg;
  bCfg.journal = &bds->store();
  auto mb = std::make_unique<TokenManager>(*b, bCfg);

  ma.attach({ma.ref(), mb->ref()}, 0, {{c0, 3}});
  mb->attach({ma.ref(), mb->ref()}, 1, {{c1, 5}});

  // Spread c1 across both members, then kill its home mid-session.
  mb->request({{c1, 2}});
  ma.request({{c1, 2}});
  {
    auto totals = ma.totalTokens();
    EXPECT_EQ(5, totals.at(c1));
    EXPECT_EQ(3, totals.at(c0));
  }
  // Traffic in flight at the kill: this request's home dies before it can
  // answer.  The waiter queue is deliberately not journaled — the caller's
  // contract is timeout-then-retry against the restarted home.
  EXPECT_THROW(ma.request({{c1, 3}}, milliseconds(300)), TimeoutError);

  b->crash();
  mb.reset();
  bds.reset();
  b.reset();

  auto b2 = std::make_unique<Dapplet>(net, "b", recoveryCfg(clock, 3));
  auto bds2 = std::make_unique<recovery::DurableState>(*b2, dir);
  EXPECT_TRUE(bds2->info().recovered);
  TokenConfig b2Cfg;
  b2Cfg.journal = &bds2->store();
  auto mb2 = std::make_unique<TokenManager>(*b2, b2Cfg);
  // Same seed bag as the first boot: the journaled pool must win, or the
  // restart would mint a second batch of every c1 token.
  mb2->attach({ma.ref(), mb2->ref()}, 1, {{c1, 5}});
  EXPECT_EQ(2, mb2->holdsTokens().at(c1));
  ma.rewire(1, mb2->ref());

  // The restarted home still accounts the survivor's 2 and its own 2 as
  // held: only 1 free, so conservation held across the crash.
  mb2->release({{c1, 2}});
  ma.request({{c1, 3}}, seconds(10));  // grants flow from the new address
  EXPECT_EQ(5, ma.holdsTokens().at(c1));
  {
    auto totals = ma.totalTokens();
    EXPECT_EQ(5, totals.at(c1));
    EXPECT_EQ(3, totals.at(c0));
  }
  ma.release({{c1, TokenRequest::kAllTokens}});

  mb2.reset();
  bds2.reset();
  b2->stop();
  a.stop();
}

}  // namespace
}  // namespace dapple
