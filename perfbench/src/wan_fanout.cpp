// wan-fanout: one publisher outbox bound to 8 subscriber inboxes across the
// lossy simulated WAN, in virtual time (paper §3.2: send copies a message
// along every channel).  A shared 2-loop Reactor on the virtual clock, the
// binary codec and Inbox::onMessage handlers.  Closed loop: at most 4
// messages are not yet handled by all 8 subscribers.  Payloads are a seeded
// 3:1 mix of 64 B and 4 KiB.  The publisher is a clock worker, so virtual
// time stands still while it computes and every latency is protocol time.
#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "dapple/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// The published message: a sequence number, the payload's pool index and
/// the payload bytes (each subscriber checks all three).
struct Blob : dapple::MessageBase<Blob> {
  static constexpr std::string_view kTypeName = "perfbench.Blob";
  std::uint64_t seq = 0;
  std::uint64_t index = 0;
  std::string bytes;
  void encodeFields(dapple::WireWriter& w) const override {
    w.writeU64(seq);
    w.writeU64(index);
    w.writeString(bytes);
  }
  void decodeFields(dapple::WireReader& r) override {
    seq = r.readU64();
    index = r.readU64();
    bytes = r.readString();
  }
};
DAPPLE_REGISTER_MESSAGE(Blob);

constexpr int kSubscribers = 8;
constexpr int kMaxOutstanding = 4;
constexpr std::size_t kSmallBytes = 64;
constexpr std::size_t kLargeBytes = 4096;
constexpr std::size_t kPoolPerSize = 16;
constexpr int kWarmupMessages = 64;
/// Slots are reused every kSlots messages; more than kMaxOutstanding, so a
/// slot is free again once its message is handled everywhere.
constexpr std::size_t kSlots = 8;
/// Virtual time a closed-loop wait may take before the run counts as
/// stalled.
constexpr auto kDeadline = std::chrono::seconds(30);

struct SpanNames {
  std::uint32_t publish = spans().intern("fanout.publish");
  std::uint32_t copy = spans().intern("core.copy");
  std::uint32_t handler = spans().intern("app.handler");
};

/// A pool index drawn 3:1 small to large, each from its pool half.
std::size_t drawIndex(dapple::Rng& rng) {
  return (rng.below(4) < 3 ? 0 : kPoolPerSize) + rng.below(kPoolPerSize);
}

struct Rig {
  /// Pool entries [0, kPoolPerSize) are small, the rest large.
  Rig(std::uint64_t seed, const std::vector<std::string>& pool)
      : pool(pool), net(seed, wanOptions(clock)), reactor(reactorOptions()) {
    net.setDefaultLink(kWanLink);
    dapple::DappletConfig cfg;
    cfg.clock = &clock;
    cfg.host = 1;
    cfg.runtime.reactor = &reactor;
    cfg.wireCodec = dapple::WireCodec::kBinary;
    publisher = std::make_unique<dapple::Dapplet>(net, "publisher", cfg);
    out = &publisher->createOutbox("feed");
    for (int i = 0; i < kSubscribers; ++i) {
      cfg.host = static_cast<std::uint32_t>(i + 2);
      subscribers.push_back(std::make_unique<dapple::Dapplet>(
          net, "sub" + std::to_string(i), cfg));
      dapple::Inbox& in = subscribers.back()->createInbox("feed");
      out->add(in.ref());
      in.onMessage([this, i](dapple::Delivery d) { onCopy(i, d); });
    }
    for (std::size_t i = 0; i < pool.size(); ++i) {
      Blob b;
      b.index = i;
      b.bytes = pool[i];
      messages.push_back(std::move(b));
    }
    // Warm-up: streams, windows and RTT estimates are live before the
    // measured phase.
    dapple::Rng rng(0x3a7f);
    for (int i = 0; i < kWarmupMessages; ++i) {
      if (!awaitWindow(kMaxOutstanding - 1)) {
        throw dapple::Error("fan-out warm-up stalled");
      }
      publish(drawIndex(rng), false);
    }
    if (!awaitWindow(0)) throw dapple::Error("fan-out warm-up stalled");
  }

  ~Rig() {
    for (auto& s : subscribers) s->stop();
    publisher->stop();
    reactor.stop();
  }

  dapple::Reactor::Options reactorOptions() {
    dapple::Reactor::Options o;
    o.threads = 2;
    o.clock = &clock;
    return o;
  }

  /// Waits (a clocked wait) until at most `limit` messages are outstanding;
  /// false when nothing completes for kDeadline of virtual time.
  bool awaitWindow(int limit) {
    std::unique_lock lock(mutex);
    return clock.waitFor(lock, cv, kDeadline,
                         [&] { return outstanding <= limit; });
  }

  void publish(std::size_t index, bool traced) {
    const std::uint64_t seq = nextSeq++;
    Slot& slot = slots[seq % kSlots];
    slot.handled.store(0, std::memory_order_relaxed);
    slot.traced.store(traced, std::memory_order_relaxed);
    {
      std::scoped_lock lock(mutex);
      ++outstanding;
    }
    Blob& msg = messages[index];
    msg.seq = seq;
    slot.sentNs.store(virtualNs(clock.now()), std::memory_order_release);
    const std::int64_t w0 = nowNs();
    out->send(msg);
    if (traced) sendUs.push_back(static_cast<double>(nowNs() - w0) * 1e-3);
  }

  void onCopy(int sub, const dapple::Delivery& d) {
    const std::int64_t start = virtualNs(clock.now());
    const Blob& m = d.as<Blob>();
    Subscriber& s = subscriberState[sub];
    if (m.seq != s.nextSeq) ++s.outOfOrder;
    if (m.index >= pool.size() || m.bytes != pool[m.index]) ++s.wrongBytes;
    s.nextSeq = m.seq + 1;
    ++s.received;
    Slot& slot = slots[m.seq % kSlots];
    const std::int64_t sentNs = slot.sentNs.load(std::memory_order_acquire);
    const bool traced = slot.traced.load(std::memory_order_relaxed);
    if (traced) {
      spans().record(m.seq, names.copy, names.publish, sentNs, start);
      spans().record(m.seq, names.handler, names.publish, start,
                     virtualNs(clock.now()));
    }
    if (slot.handled.fetch_add(1, std::memory_order_acq_rel) + 1 !=
        kSubscribers) {
      return;
    }
    const std::int64_t done = virtualNs(clock.now());
    if (traced) {
      spans().record(m.seq, names.publish, SpanLog::kRoot, sentNs, done);
    }
    {
      std::scoped_lock lock(mutex);
      if (measuring) {
        completions.push_back(
            {static_cast<double>(done - sentNs) * 1e-3, traced});
      }
      --outstanding;
    }
    clock.notifyAll(cv);
  }

  std::vector<dapple::Dapplet*> dapplets() const {
    std::vector<dapple::Dapplet*> all{publisher.get()};
    for (const auto& d : subscribers) all.push_back(d.get());
    return all;
  }

  struct Slot {
    std::atomic<int> handled{0};
    std::atomic<std::int64_t> sentNs{0};
    std::atomic<bool> traced{false};
  };
  /// Touched only by its subscriber's handler (a strand).
  struct Subscriber {
    std::uint64_t nextSeq = 0;
    std::uint64_t received = 0;
    std::uint64_t outOfOrder = 0;
    std::uint64_t wrongBytes = 0;
  };

  const std::vector<std::string>& pool;
  // Declared before everything that runs on it, so it is destroyed last.
  dapple::testkit::VirtualClock clock;
  dapple::SimNetwork net;
  dapple::Reactor reactor;
  std::unique_ptr<dapple::Dapplet> publisher;
  dapple::Outbox* out = nullptr;
  std::vector<std::unique_ptr<dapple::Dapplet>> subscribers;
  std::vector<Blob> messages;  ///< one per pool entry, seq set per publish
  std::array<Slot, kSlots> slots;
  std::array<Subscriber, kSubscribers> subscriberState;
  SpanNames names;

  std::uint64_t nextSeq = 0;   ///< publisher thread only
  std::vector<double> sendUs;  ///< wall time in traced Outbox::send calls
  std::mutex mutex;
  std::condition_variable cv;
  int outstanding = 0;
  bool measuring = false;  ///< set for the measured phase
  std::vector<Completion> completions;
};

}  // namespace

Report runWanFanout(const Options& options) {
  Report report;
  reportContext(report, options, "binary", "simulated-wan");
  std::vector<std::string> pool =
      payloadPool(options.seed, kPoolPerSize, kSmallBytes);
  for (std::string& p :
       payloadPool(options.seed + 1, kPoolPerSize, kLargeBytes)) {
    pool.push_back(std::move(p));
  }

  std::unique_ptr<Rig> rig;
  const double setupSeconds = medianSetupSeconds(
      [&] { rig = std::make_unique<Rig>(options.seed, pool); },
      [&] { rig.reset(); });

  const Counters before =
      snapshotCounters(rig->dapplets(), rig->net.metrics(), &rig->reactor);
  const std::uint64_t firstSeq = rig->nextSeq;
  {
    std::scoped_lock lock(rig->mutex);
    rig->measuring = true;
  }
  const Phase phase(options.seconds, options.trace);
  bool stalled = false;
  std::string publishError;
  std::int64_t virtualStartNs = 0, virtualEndNs = 0;
  rig->clock.announceWorker();
  std::thread publisher([&] {
    const dapple::ClockSource::WorkerScope worker(rig->clock);
    dapple::Rng rng(options.seed * 7919u + 17);
    virtualStartNs = virtualNs(rig->clock.now());
    try {
      while (!phase.over()) {
        if (!rig->awaitWindow(kMaxOutstanding - 1)) {
          stalled = true;
          return;
        }
        rig->publish(drawIndex(rng), spans().enabled());
      }
    } catch (const std::exception& e) {
      publishError = e.what();
    }
    stalled = !rig->awaitWindow(0);
    virtualEndNs = virtualNs(rig->clock.now());
  });
  const std::uint64_t threads = threadCount();
  phase.run();
  publisher.join();
  const double wallSeconds = phase.elapsed();
  const Counters after =
      snapshotCounters(rig->dapplets(), rig->net.metrics(), &rig->reactor);
  std::vector<Completion> completions;
  int outstanding = 0;
  {
    std::scoped_lock lock(rig->mutex);
    rig->measuring = false;
    completions = rig->completions;
    outstanding = rig->outstanding;
  }

  // ---- oracles -----------------------------------------------------------
  const std::uint64_t published = rig->nextSeq - firstSeq;
  const std::uint64_t expected = rig->nextSeq;  // warm-up included
  std::uint64_t outOfOrder = 0, wrongBytes = 0, missing = 0, extra = 0;
  for (const auto& s : rig->subscriberState) {
    outOfOrder += s.outOfOrder;
    wrongBytes += s.wrongBytes;
    if (s.received < expected) missing += expected - s.received;
    if (s.received > expected) extra += s.received - expected;
  }
  report.oracle("fifo-per-subscriber", outOfOrder == 0,
                std::to_string(outOfOrder) + " copies out of order");
  report.oracle("payload-byte-equal", wrongBytes == 0,
                std::to_string(wrongBytes) + " copies with other bytes");
  report.oracle("exact-copy-counts", missing == 0 && extra == 0,
                std::to_string(expected) + " messages per subscriber; " +
                    std::to_string(missing) + " missing, " +
                    std::to_string(extra) + " extra");
  report.oracle("publish-no-throw", publishError.empty(),
                publishError.empty() ? "Outbox::send never threw"
                                     : "Outbox::send threw: " + publishError);
  report.oracle("handled-by-deadline", !stalled && outstanding == 0,
                std::to_string(outstanding) + " messages unhandled " +
                    "30 virtual s after the last completion");
  const std::uint64_t attempted = published * kSubscribers;
  report.operations(attempted, missing + outOfOrder + wrongBytes);
  report.info("wall_seconds_of_virtual_run", wallSeconds);

  const double copiesPerVirtualSecond =
      ratio(static_cast<double>(completions.size()) * kSubscribers * 1e9,
            static_cast<double>(virtualEndNs - virtualStartNs));
  const double traceOverheadPct =
      reportClosedLoop(report, phase, setupSeconds, completions,
                       copiesPerVirtualSecond, "fanout", "copies_per_s");

  if (options.trace) {
    LayerInputs in;
    in.traceOverheadPct = traceOverheadPct;
    in.before = before;
    in.after = after;
    in.wallSeconds = wallSeconds;
    in.ops = completions.size() * kSubscribers;
    in.opName = "copies";
    in.threads = threads;

    std::vector<Blob> blobs;
    dapple::Rng rng(options.seed);
    for (std::size_t i = 0; i < 64; ++i) {
      Blob b;
      b.seq = i;
      b.index = drawIndex(rng);
      b.bytes = pool[b.index];
      blobs.push_back(std::move(b));
    }
    std::vector<const dapple::Message*> sample;
    for (const Blob& b : blobs) sample.push_back(&b);
    const SerialCost cost = serialCost(sample, dapple::WireCodec::kBinary);
    in.encodeNs = cost.encodeNs;
    in.decodeNs = cost.decodeNs;

    const std::vector<Span> all = spans().drain();
    in.hopUs = spanDurationsUs(all, rig->names.copy);
    reportLayers(report, in);
    std::vector<double>& send = rig->sendUs;
    const std::string sendBase =
        std::to_string(send.size()) + " traced Outbox::send calls, wall";
    report.extra("core.send_us_p50", percentile(send, 0.5), "us", sendBase);
    report.extra("core.send_us_p99", percentile(send, 0.99), "us", sendBase);
    report.extra("core.copy_latency_us_p50", percentile(in.hopUs, 0.5), "us",
                 "core.hop_us_p50 on this workload: publish -> handler start");
    report.extra("core.copy_latency_us_p99", percentile(in.hopUs, 0.99), "us",
                 "core.hop_us_p99 on this workload");
    finishSpans(report, options, all, "virtual");
  }
  return report;
}

}  // namespace perfbench
