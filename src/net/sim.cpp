#include "dapple/net/sim.hpp"

#include <condition_variable>
#include <map>
#include <mutex>
#include <queue>
#include <set>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dapple/util/error.hpp"
#include "dapple/util/log.hpp"
#include "dapple/util/rng.hpp"

namespace dapple {

namespace {
constexpr const char* kLog = "sim";

using HostPair = std::pair<std::uint32_t, std::uint32_t>;

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

/// Endpoint attached to a SimNetwork.  Delivery is serialized through the
/// per-endpoint mutex so close() can guarantee no handler runs afterwards.
class SimNetwork::EndpointImpl final
    : public Endpoint,
      public std::enable_shared_from_this<SimNetwork::EndpointImpl> {
 public:
  EndpointImpl(Impl& net, NodeAddress addr) : net_(net), addr_(addr) {}

  NodeAddress address() const override { return addr_; }

  void sendBatch(std::vector<Datagram> batch) override;

  void setHandler(Handler handler) override {
    std::scoped_lock lock(mutex_);
    handler_ = std::move(handler);
  }

  void close() override;

  /// Called by the delivery thread.  Holds the endpoint mutex across the
  /// handler call so close() can guarantee no invocation after it returns.
  /// The handler may call send() on this same endpoint (e.g. to ACK):
  /// send() deliberately takes no endpoint lock (closed_ is atomic).
  void deliver(const NodeAddress& src, std::string_view payload) {
    std::scoped_lock lock(mutex_);
    if (closed_.load(std::memory_order_acquire) || !handler_) return;
    handler_(src, payload);
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  Impl& net_;
  const NodeAddress addr_;
  mutable std::mutex mutex_;
  Handler handler_;
  std::atomic<bool> closed_{false};
};

struct SimNetwork::Impl {
  Impl(std::uint64_t seed, const Options& options)
      : rootRng(seed),
        seed(seed),
        timeScale(options.timeScale),
        hashedRandomness(options.hashedLinkRandomness),
        clk(options.clock != nullptr ? options.clock
                                     : &ClockSource::system()) {}

  // ---- shared state, guarded by `mutex` -------------------------------
  mutable std::mutex mutex;
  std::condition_variable wake;
  std::condition_variable quiescent;

  std::unordered_map<NodeAddress, std::weak_ptr<EndpointImpl>> endpoints;
  std::unordered_map<std::uint32_t, std::uint16_t> nextPort;

  LinkParams defaultLink;
  std::map<HostPair, LinkParams> hostLinks;
  std::set<HostPair> partitions;
  std::map<HostPair, Rng> linkRngs;
  Rng rootRng;

  struct Event {
    TimePoint due;
    std::uint64_t hash;  ///< content hash tie-break (0 in sequential mode)
    std::uint64_t seq;
    NodeAddress src;
    NodeAddress dst;
    std::string payload;
    bool operator>(const Event& other) const {
      return std::tie(due, hash, seq) > std::tie(other.due, other.hash,
                                                 other.seq);
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t nextSeq = 0;
  /// A popped batch's handlers are running: not quiescent yet.
  bool delivering = false;

  Stats stats;
  const std::uint64_t seed;
  const double timeScale;
  const bool hashedRandomness;
  ClockSource* const clk;
  /// Hashed mode: ordinal per identical (src, dst, payload) datagram so a
  /// retransmission's fate differs from the original's without depending on
  /// what other traffic interleaved between them.
  std::unordered_map<std::uint64_t, std::uint32_t> occurrences;

  // The delivery thread is last so it is destroyed (joined) first.
  std::jthread worker;

  // ---------------------------------------------------------------------

  Rng& linkRng(HostPair key) {
    auto it = linkRngs.find(key);
    if (it == linkRngs.end()) {
      it = linkRngs.emplace(key, rootRng.split()).first;
    }
    return it->second;
  }

  const LinkParams& linkParams(HostPair key) const {
    const auto it = hostLinks.find(key);
    return it == hostLinks.end() ? defaultLink : it->second;
  }

  void route(const NodeAddress& src, const NodeAddress& dst,
             std::string payload) {
    {
      std::scoped_lock lock(mutex);
      routeLocked(src, dst, std::move(payload));
    }
    clk->notifyAll(wake);
  }

  /// Batched counterpart: every datagram is enqueued under ONE lock
  /// acquisition and the delivery thread is woken once, so a fan-out burst
  /// or retransmission sweep costs O(1) synchronization instead of O(n).
  void routeBatch(const NodeAddress& src, std::vector<Datagram> batch) {
    {
      std::scoped_lock lock(mutex);
      for (Datagram& d : batch) routeLocked(src, d.dst, std::move(d.payload));
    }
    clk->notifyAll(wake);
  }

  /// Loss/duplication/delay decisions + enqueue for one datagram.  Caller
  /// holds `mutex` and wakes the delivery thread afterwards.
  void routeLocked(const NodeAddress& src, const NodeAddress& dst,
                   std::string payload) {
    ++stats.sent;
    const HostPair key{src.host, dst.host};
    if (partitions.count(normalized(key)) != 0) {
      ++stats.dropped;
      return;
    }
    const LinkParams& link = linkParams(key);
    // Sequential mode draws from the shared per-link RNG (historical
    // behaviour, preserved so existing seeded tests replay unchanged);
    // hashed mode derives a private RNG from the datagram's identity so
    // the decision sequence is independent of send interleaving.
    std::uint64_t contentHash = 0;
    Rng hashedRng(0);
    Rng* rng;
    if (hashedRandomness) {
      contentHash = mix64(fnv1a(payload) ^ mix64(src.packed()) ^
                          mix64(mix64(dst.packed())));
      const std::uint32_t ordinal = occurrences[contentHash]++;
      hashedRng = Rng(mix64(seed ^ mix64(contentHash + ordinal)));
      rng = &hashedRng;
    } else {
      rng = &linkRng(key);
    }
    if (rng->chance(link.lossProb)) {
      ++stats.dropped;
      DAPPLE_LOG(kTrace, kLog) << "drop " << src.toString() << " -> "
                               << dst.toString();
      return;
    }
    const int copies = rng->chance(link.dupProb) ? 2 : 1;
    if (copies == 2) ++stats.duplicated;
    for (int i = 0; i < copies; ++i) {
      const auto jitterUs =
          link.jitter.count() > 0
              ? static_cast<std::int64_t>(rng->below(
                    static_cast<std::uint64_t>(link.jitter.count())))
              : 0;
      const double delayUs =
          static_cast<double>(link.delay.count() + jitterUs) * timeScale;
      Event ev;
      ev.due =
          clk->now() + microseconds(static_cast<std::int64_t>(delayUs));
      ev.hash = contentHash;
      ev.seq = nextSeq++;
      ev.src = src;
      ev.dst = dst;
      ev.payload = payload;
      queue.push(std::move(ev));
    }
  }

  static HostPair normalized(HostPair key) {
    return key.first <= key.second ? key
                                   : HostPair{key.second, key.first};
  }

  void run(std::stop_token stop) {
    // Registered as the clock's delivery worker: while this thread is parked
    // waiting for the next due datagram, a virtual clock may jump straight
    // to it, and datagrams due at the same instant as a timer are handled
    // before the timer runs.
    ClockSource::WorkerScope workerScope(*clk,
                                         ClockSource::WorkerKind::kDelivery);
    std::unique_lock lock(mutex);
    while (!stop.stop_requested()) {
      if (queue.empty()) {
        clk->notifyAll(quiescent);
        clk->wait(lock, wake, [this, &stop] {
          return stop.stop_requested() || !queue.empty();
        });
        if (stop.stop_requested()) break;
        continue;
      }
      const TimePoint due = queue.top().due;
      const TimePoint now = clk->now();
      if (due > now) {
        clk->waitUntil(lock, wake, due, [this, &stop, due] {
          return stop.stop_requested() ||
                 (!queue.empty() && queue.top().due < due);
        });
        continue;
      }
      // Collect all due events plus their target endpoints under the lock,
      // then deliver without it so handlers may send.
      std::vector<std::pair<Event, std::shared_ptr<EndpointImpl>>> ready;
      while (!queue.empty() && queue.top().due <= now) {
        Event ev = queue.top();
        queue.pop();
        std::shared_ptr<EndpointImpl> target;
        const auto it = endpoints.find(ev.dst);
        if (it != endpoints.end()) target = it->second.lock();
        if (target) {
          ++stats.delivered;
        } else {
          ++stats.undeliverable;
        }
        ready.emplace_back(std::move(ev), std::move(target));
      }
      delivering = true;
      lock.unlock();
      for (auto& [ev, target] : ready) {
        if (target) target->deliver(ev.src, std::move(ev.payload));
      }
      lock.lock();
      delivering = false;  // an empty queue notifies `quiescent` up top
    }
  }
};

void SimNetwork::EndpointImpl::sendBatch(std::vector<Datagram> batch) {
  // Lock-free closed check: sends may run from inside deliver()'s handler
  // (ACKs), which already holds the endpoint mutex.
  if (closed_.load(std::memory_order_acquire)) return;
  net_.routeBatch(addr_, std::move(batch));
}

void SimNetwork::EndpointImpl::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  {
    // Barrier: wait out any handler currently running in deliver().
    std::scoped_lock lock(mutex_);
    handler_ = nullptr;
  }
  std::scoped_lock netLock(net_.mutex);
  net_.endpoints.erase(addr_);
}

SimNetwork::SimNetwork(std::uint64_t seed, double timeScale)
    : SimNetwork(seed, Options{.timeScale = timeScale}) {}

SimNetwork::SimNetwork(std::uint64_t seed, const Options& options)
    : impl_(std::make_unique<Impl>(seed, options)) {
  // Announce before spawn: a virtual clock must not advance during the
  // window where the delivery thread exists but has not yet registered.
  impl_->clk->announceWorker();
  impl_->worker =
      std::jthread([this](std::stop_token stop) { impl_->run(stop); });
}

SimNetwork::~SimNetwork() {
  // Under the mutex: an idle delivery thread between its predicate check
  // and its park would otherwise miss the stop and never be joined.
  std::scoped_lock lock(impl_->mutex);
  impl_->worker.request_stop();
  impl_->clk->notifyAll(impl_->wake);
}

std::shared_ptr<Endpoint> SimNetwork::open(std::uint16_t port) {
  return openAt(1, port);
}

std::shared_ptr<Endpoint> SimNetwork::openAt(std::uint32_t host,
                                             std::uint16_t port) {
  std::scoped_lock lock(impl_->mutex);
  if (port == 0) {
    std::uint16_t& next = impl_->nextPort[host];
    if (next == 0) next = 1024;
    while (impl_->endpoints.count(NodeAddress{host, next}) != 0) ++next;
    port = next++;
  } else if (impl_->endpoints.count(NodeAddress{host, port}) != 0) {
    throw AddressError("sim port " + std::to_string(port) +
                       " already in use on host " + std::to_string(host));
  }
  const NodeAddress addr{host, port};
  auto ep = std::make_shared<EndpointImpl>(*impl_, addr);
  impl_->endpoints[addr] = ep;
  return ep;
}

void SimNetwork::setDefaultLink(const LinkParams& params) {
  std::scoped_lock lock(impl_->mutex);
  impl_->defaultLink = params;
}

void SimNetwork::setHostLink(std::uint32_t srcHost, std::uint32_t dstHost,
                             const LinkParams& params) {
  std::scoped_lock lock(impl_->mutex);
  impl_->hostLinks[{srcHost, dstHost}] = params;
}

void SimNetwork::setHostLinkBetween(std::uint32_t hostA, std::uint32_t hostB,
                                    const LinkParams& params) {
  std::scoped_lock lock(impl_->mutex);
  impl_->hostLinks[{hostA, hostB}] = params;
  impl_->hostLinks[{hostB, hostA}] = params;
}

void SimNetwork::setPartition(std::uint32_t hostA, std::uint32_t hostB,
                              bool partitioned) {
  std::scoped_lock lock(impl_->mutex);
  const HostPair key = Impl::normalized({hostA, hostB});
  if (partitioned) {
    impl_->partitions.insert(key);
  } else {
    impl_->partitions.erase(key);
  }
}

bool SimNetwork::kill(const NodeAddress& addr) {
  // Grab the shared_ptr under the net lock, close outside it: close() takes
  // the endpoint mutex (handler barrier) and then re-takes the net mutex.
  std::shared_ptr<EndpointImpl> target;
  {
    std::scoped_lock lock(impl_->mutex);
    const auto it = impl_->endpoints.find(addr);
    if (it != impl_->endpoints.end()) target = it->second.lock();
  }
  if (!target) return false;
  target->close();
  return true;
}

std::size_t SimNetwork::killHost(std::uint32_t host) {
  std::vector<std::shared_ptr<EndpointImpl>> targets;
  {
    std::scoped_lock lock(impl_->mutex);
    for (const auto& [addr, weak] : impl_->endpoints) {
      if (addr.host != host) continue;
      if (auto ep = weak.lock()) targets.push_back(std::move(ep));
    }
  }
  for (const auto& ep : targets) ep->close();
  return targets.size();
}

SimNetwork::Stats SimNetwork::stats() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->stats;
}

obs::MetricsSnapshot SimNetwork::metrics() const {
  const Stats s = stats();
  obs::MetricsSnapshot snap;
  snap.counters["sim.sent"] = s.sent;
  snap.counters["sim.delivered"] = s.delivered;
  snap.counters["sim.dropped"] = s.dropped;
  snap.counters["sim.duplicated"] = s.duplicated;
  snap.counters["sim.undeliverable"] = s.undeliverable;
  snap.gauges["sim.in_flight"] = static_cast<std::int64_t>(inFlight());
  return snap;
}

std::size_t SimNetwork::inFlight() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->queue.size();
}

bool SimNetwork::awaitQuiescent(Duration timeout) {
  std::unique_lock lock(impl_->mutex);
  return impl_->clk->waitFor(lock, impl_->quiescent, timeout, [this] {
    return impl_->queue.empty() && !impl_->delivering;
  });
}

}  // namespace dapple
