#pragma once
/// \file dapplet.hpp
/// \brief The dapplet runtime: one process of a collaborative distributed
/// application.
///
/// Paper §3.1: *"A calendar dapplet is a process: it operates in a single
/// address space ... and it communicates with other processes through
/// ports."*  A `Dapplet` owns an endpoint (its IP address + port), a set of
/// inboxes and outboxes, worker threads, the reactor its handlers and timers
/// run on (a shared one, or its own one-loop reactor), and the Lamport clock
/// that the message layer maintains (§4.2).  Several dapplets can live in one OS
/// process (each with its own endpoint), which is how the tests, examples
/// and benches build whole distributed sessions in a single binary over
/// either the simulated network or real UDP sockets.

#include <cstdint>
#include <functional>
#include <memory>
#include <stop_token>
#include <string>
#include <string_view>
#include <vector>

#include "dapple/core/inbox.hpp"
#include "dapple/core/lamport_clock.hpp"
#include "dapple/core/outbox.hpp"
#include "dapple/core/reactor.hpp"
#include "dapple/net/transport.hpp"
#include "dapple/obs/metrics.hpp"
#include "dapple/reliable/reliable.hpp"
#include "dapple/serial/value.hpp"

namespace dapple {

/// Placement and transport tuning for one dapplet.
struct DappletConfig {
  /// Simulated host id (ignored by UdpNetwork).
  std::uint32_t host = 1;
  /// Port to bind; 0 picks one automatically.
  std::uint16_t port = 0;
  /// Ordering-layer parameters (retransmission, delivery timeout).
  ReliableConfig reliable{};

  /// Wire codec for everything this dapplet *sends*: message envelopes,
  /// session control frames, RPC bodies, and (folded into
  /// `reliable.codec` by `normalized()`) the ordering layer's DATA/ACK
  /// frames.  Incoming traffic is always auto-detected per frame from the
  /// preamble byte, so a binary dapplet and a text dapplet interoperate in
  /// one session.  Text is the default (cross-version compat, readable
  /// captures); set `WireCodec::kBinary` for the fast path.
  WireCodec wireCodec = WireCodec::kText;

  /// Failure-detector knobs (consumed by services/liveness): how often a
  /// LivenessMonitor on this dapplet sends heartbeats to watched peers, and
  /// how long a peer may stay silent before it is suspected crashed.
  /// (Nested like `reliable` — one struct per policy domain.  The old flat
  /// `heartbeatInterval`/`suspectTimeout` aliases were removed after one
  /// deprecation release; spell them `liveness.heartbeatInterval` etc.)
  struct LivenessConfig {
    Duration heartbeatInterval = std::chrono::milliseconds(50);
    Duration suspectTimeout = std::chrono::milliseconds(250);
  };
  LivenessConfig liveness{};

  /// Event-driven runtime knobs (one struct per policy domain, like
  /// `reliable` and `liveness`).
  struct RuntimeConfig {
    /// Shared event-loop pool this dapplet schedules on: its reliable-layer
    /// retransmission ticks run on the reactor's timer wheel, and services
    /// (session agent, RPC server, liveness, tokens, ...) handle their
    /// inboxes with `Inbox::onMessage` handlers on its loops.  Many dapplets
    /// share one reactor — that is the point: one process hosts tens of
    /// thousands of dapplets on `hw_concurrency` threads (see bench_swarm).
    /// Null gives the dapplet its own one-loop reactor on its clock.  Must
    /// outlive the dapplet.
    Reactor* reactor = nullptr;
  };
  RuntimeConfig runtime{};

  /// Capacity of the dapplet's trace-event ring (see obs/trace.hpp).
  std::size_t traceCapacity = 512;

  /// Time source for every timer, timeout and sleep in this dapplet (the
  /// reliable layer, inbox waits, liveness, initiator backoff, services).
  /// Null selects `ClockSource::system()`; tests inject a
  /// `testkit::VirtualClock` to run fault scenarios in virtual time.  Must
  /// outlive the dapplet.
  ClockSource* clock = nullptr;

  /// The configuration a dapplet actually runs with: the ordering layer
  /// inherits the dapplet-level codec choice.
  DappletConfig normalized() const {
    DappletConfig out = *this;
    out.reliable.codec = out.wireCodec;
    return out;
  }
};

/// One distributed process.  Thread-safe; typically long-lived relative to
/// the sessions it participates in.
class Dapplet {
 public:
  /// Opens an endpoint on `network` and starts the message layer.
  Dapplet(Network& network, std::string name, DappletConfig config = {});
  ~Dapplet();

  Dapplet(const Dapplet&) = delete;
  Dapplet& operator=(const Dapplet&) = delete;

  /// Human-readable identity used in directories and sessions.
  const std::string& name() const { return name_; }

  /// This dapplet's Internet address (IP + port / simulated host + port).
  NodeAddress address() const;

  /// Total order tie-breaker ("ties are broken in favor of the process with
  /// the lower id", §4.2): the packed endpoint address, unique per dapplet.
  std::uint64_t id() const { return address().packed(); }

  /// The message layer's logical clock (§4.2).
  LamportClock& clock() { return clock_; }

  /// The wall/virtual time source every component of this dapplet waits on
  /// (see DappletConfig::clock).  Never null.
  ClockSource& clockSource() const { return *clockSource_; }

  // --- inboxes -----------------------------------------------------------

  /// Creates an inbox; `name` may be "" for an anonymous inbox or a unique
  /// string name (throws AddressError on duplicates).  The returned
  /// reference stays valid until destroyInbox/stop.
  Inbox& createInbox(const std::string& name = "");

  /// Looks up a named inbox; throws AddressError when absent.
  Inbox& inbox(const std::string& name);

  /// True when a named inbox exists.
  bool hasInbox(const std::string& name) const;

  /// Closes and removes an inbox.  Blocked receivers wake with
  /// ShutdownError.  The caller must ensure no other thread retains the
  /// reference afterwards.
  void destroyInbox(const std::string& name);

  /// Overload for anonymous inboxes.
  void destroyInbox(Inbox& box);

  // --- outboxes ----------------------------------------------------------

  /// Creates an outbox (optionally named; throws AddressError on duplicate
  /// names).  Valid until destroyOutbox/stop.
  Outbox& createOutbox(const std::string& name = "");

  /// Looks up a named outbox; throws AddressError when absent.
  Outbox& outbox(const std::string& name);

  /// True when a named outbox exists.
  bool hasOutbox(const std::string& name) const;

  /// Removes an outbox and drops its bindings.
  void destroyOutbox(const std::string& name);

  /// Overload for anonymous outboxes.
  void destroyOutbox(Outbox& box);

  // --- threads -------------------------------------------------------------

  /// Runs `fn` on a dapplet-owned thread, for application roles and other
  /// work that blocks; the stop token fires at stop().  Workers whose `fn`
  /// has returned are joined and dropped on the next spawn().
  void spawn(std::function<void(std::stop_token)> fn);

  /// Fires when stop() or crash() begins.  Services register
  /// `std::stop_callback`s on it to wake their blocked callers.
  std::stop_token stopToken() const;

  // --- event-driven runtime ------------------------------------------------

  /// The reactor this dapplet schedules on: the one injected via
  /// `DappletConfig::runtime.reactor`, or the dapplet's own one-loop
  /// reactor on its clock, created with the dapplet and stopped by stop().
  Reactor& reactor() const { return *reactor_; }

  /// Runs `fn` once, `delay` from now, on a reactor loop thread.  Callbacks
  /// must not block for long (they share the loop with every other dapplet
  /// on the reactor); use spawn() for blocking work.
  Reactor::TimerHandle after(Duration delay, std::function<void()> fn);

  /// Runs `fn` every `period` on a reactor loop thread, until the handle is
  /// cancelled or the dapplet stops.
  Reactor::TimerHandle every(Duration period, std::function<void()> fn);

  /// Stops the dapplet: closes every inbox (waking blocked receivers with
  /// ShutdownError), fires stopToken() (waking spawned threads and every
  /// service's blocked callers), joins the spawned threads, closes the
  /// endpoint and stops the dapplet's own reactor.  Idempotent.  Must NOT be called from a reactor
  /// callback (a handler or timer running on a loop thread): teardown waits
  /// out the in-flight retransmit tick before destroying the reliable
  /// layer, and from a loop thread that wait degrades to asynchronous
  /// cancellation — a tick on another loop could still be executing while
  /// the endpoint is torn down.  The same constraint applies to ~Dapplet.
  void stop();

  /// Crash-stop fault injection: abruptly closes the endpoint FIRST — no
  /// further packets (data, ACKs, heartbeats, UNLINK handshakes) leave this
  /// process — then tears down inboxes and workers.  Peers see only silence,
  /// exactly as if the process had died.  Idempotent; safe alongside stop().
  void crash();

  // --- service hooks -------------------------------------------------------

  /// Observes (and may consume) every delivery before it is enqueued.
  /// Return true to consume the message — it will not reach the inbox.
  /// Invoked on the transport thread; must be fast.  Used by the snapshot
  /// services to intercept markers and record channel state.  One tap at a
  /// time: throws Error while another is installed; null clears it.
  using DeliveryTap = std::function<bool(Inbox& target, Delivery& delivery)>;
  void setDeliveryTap(DeliveryTap tap);

  /// Blocks until all sent messages have been acknowledged (or timeout).
  bool flush(Duration timeout);

  /// Notified when the reliable layer declares a stream to `dst` dead
  /// (delivery timeout exhausted).  Invoked on the transport tick thread
  /// WITHOUT the dapplet lock, so listeners may reset streams or send.
  /// Listeners cannot be removed; register once per long-lived component.
  using PeerFailureListener = std::function<void(
      const NodeAddress& dst, std::uint64_t outboxId, const std::string& reason)>;
  void addPeerFailureListener(PeerFailureListener listener);

  /// The configuration this dapplet was created with, normalized (note:
  /// `port` is the requested port; use address() for the bound one).
  const DappletConfig& config() const { return config_; }

  // --- observability -------------------------------------------------------

  /// The dapplet-wide metrics registry.  Components (session agent,
  /// services, applications) create named counters/gauges/histograms here at
  /// construction and record wait-free afterwards.
  obs::MetricsRegistry& metricsRegistry() { return metricsRegistry_; }
  const obs::MetricsRegistry& metricsRegistry() const {
    return metricsRegistry_;
  }

  /// Structured trace-event ring (shorthand for metricsRegistry().trace()).
  obs::TraceRing& trace() { return metricsRegistry_.trace(); }

  /// Point-in-time snapshot of every layer's metrics, under one namespace:
  /// `net.*` (transport datagrams), `reliable.*` (retransmits, acks,
  /// delivery latency, reorder depth), `core.*` (sends, deliveries, fan-out,
  /// inbox backlog high-water), plus whatever components registered
  /// (`session.*`, `liveness.*`, `tokens.*`, ...).  Dump with
  /// `metrics().toText()` or `metrics().toJson()`.
  obs::MetricsSnapshot metrics() const;

  struct Stats {
    std::uint64_t messagesSent = 0;       ///< per-channel copies sent
    std::uint64_t messagesDelivered = 0;  ///< enqueued to inboxes
    std::uint64_t unroutable = 0;         ///< no such inbox
    std::uint64_t consumedByTap = 0;
  };
  Stats stats() const;

  /// The ordering layer (exposed for benches and diagnostics).
  ReliableEndpoint& transport() { return *reliable_; }

  /// Introspection: a Value describing this dapplet — name, address,
  /// clock, traffic stats, and every live port with its queue depth /
  /// fan-out.  Serializable, so monitoring tooling can ship it around
  /// like any other message payload.
  Value describe() const;

 private:
  friend class Outbox;

  /// Fan-out send used by Outbox::send.
  void sendFromOutbox(std::uint64_t outboxId,
                      const std::vector<InboxRef>& destinations,
                      const Message& msg);

  void onDeliver(const NodeAddress& src, std::uint64_t streamId,
                 std::string_view payload);
  void onStreamFailure(const NodeAddress& dst, std::uint64_t streamId,
                       const std::string& reason);

  /// The teardown stop() and crash() share: closes every inbox, fires the
  /// stop token and joins spawned workers.  False when already stopped.
  bool beginStop();

  struct Impl;
  const std::string name_;
  const DappletConfig config_;
  ClockSource* clockSource_;
  LamportClock clock_;
  // Declared before reliable_/impl_: both record into the registry during
  // teardown, so it must outlive them.
  obs::MetricsRegistry metricsRegistry_;
  // The dapplet's own reactor when none is injected.  ~Dapplet stops it
  // before any member is destroyed; declared before reliable_ and impl_ so
  // the pointers they hold to it stay valid to the end.
  std::unique_ptr<Reactor> ownedReactor_;
  Reactor* reactor_;
  std::unique_ptr<ReliableEndpoint> reliable_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dapple
