#pragma once
/// \file virtual_clock.hpp
/// \brief Discrete-event virtual time for deterministic tests.
///
/// `VirtualClock` is a `ClockSource` whose timeline only moves when it is
/// safe to move it: every thread registered as a *worker* (transport
/// delivery threads, reactor loops, dapplet-spawned workers) must be
/// parked in a clocked wait.  At that moment nothing in the system can make
/// progress except by time passing, so the clock jumps straight to the
/// earliest pending deadline — a retransmission tick, a heartbeat, a
/// `receiveFor` timeout, a simulated datagram's due time — wakes its
/// waiters, and repeats.  A five-second fault scenario therefore runs in
/// milliseconds of wall time, and "sleeping" tests stop sleeping.
///
/// Threads *not* registered as workers (the test driver) are *guests*:
/// their clocked waits park and wake like everyone else's, but a running
/// guest never blocks advancement.  A guest blocked in `receive(2s)` with
/// nothing due simply has its deadline become the next event.
///
/// `at()`/`after()` schedule callbacks at exact virtual times (on the
/// clock's scheduler thread) — the hook for fault injection: kill a host at
/// t+300ms, heal a partition at t+800ms, with perfect repeatability.
///
/// Events due at the same instant run in a fixed order, not in the order
/// the OS happens to schedule their threads:
///  * delivery workers first (`WorkerKind::kDelivery`, the `SimNetwork`
///    delivery thread): when one is due, the step wakes only the delivery
///    workers; every other waiter and alarm due at that instant waits for
///    the next step, which comes once the delivery workers have parked
///    again — so their handlers have finished;
///  * a registered waiter resumes only when the clock signals it (its
///    deadline was stepped to, or a routed notify).  Reading `now()` past
///    its deadline is not enough: the clock may still be holding it back
///    behind a delivery.
///
/// Two driving modes:
///  * auto-advance (default): a scheduler thread advances whenever the
///    system quiesces.  Existing tests convert by constructing the clock,
///    pointing `DappletConfig::clock` and `SimNetwork` at it, and replacing
///    real sleeps with `clock.sleepFor` — blocking drivers just work.
///  * manual (`Options{.autoAdvance = false}`): the test calls
///    `advanceTo`/`advanceBy`; precise unit-test control.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "dapple/util/time.hpp"

namespace dapple::testkit {

/// Deterministic virtual-time ClockSource.  All members are thread-safe.
class VirtualClock final : public ClockSource {
 public:
  struct Options {
    /// Virtual timeline origin (arbitrary; fixed so runs are comparable).
    TimePoint start = TimePoint{} + std::chrono::hours(1);
    /// Start the scheduler thread that advances on quiescence.
    bool autoAdvance = true;
  };

  VirtualClock();
  explicit VirtualClock(Options options);
  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  /// Tear-down order matters: destroy every component using this clock
  /// (dapplets, networks) before the clock itself.
  ~VirtualClock() override;

  // --- ClockSource --------------------------------------------------------

  TimePoint now() const override;
  void sleepFor(Duration d) override;
  bool waitUntilImpl(std::unique_lock<std::mutex>& lock,
                     std::condition_variable& cv, TimePoint deadline, PredFn pred,
                     void* ctx) override;
  void parkUntil(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                 TimePoint deadline) override;
  void notifyOne(std::condition_variable& cv) override;
  void notifyAll(std::condition_variable& cv) override;
  void interruptAll() override;
  void beginWorker(WorkerKind kind) override;
  void endWorker() override;
  void announceWorker() override;

  // --- scheduling ---------------------------------------------------------

  /// Runs `fn` on the scheduler thread when virtual time reaches `t`
  /// (immediately-due alarms fire at the next advancement step).  `fn` may
  /// block on clocked waits of OTHER threads' making but must not itself
  /// wait on this clock's timeline moving — time is paused while it runs.
  void at(TimePoint t, std::function<void()> fn);

  /// `at(now() + d, fn)`.
  void after(Duration d, std::function<void()> fn);

  // --- manual driving (autoAdvance = false) -------------------------------

  /// Steps through every deadline/alarm due up to `t` in order, then sets
  /// the clock to `t`.  Does not wait for workers to quiesce between steps;
  /// use `settle()` for that.  Delivery workers are still signalled first
  /// at each instant, but without that wait their handlers may overlap the
  /// waiters and alarms of the step after.
  void advanceTo(TimePoint t);
  void advanceBy(Duration d);

  /// Blocks (in real time) until every registered worker is parked in a
  /// clocked wait — i.e. the system can only progress by advancing time.
  /// Returns false if `realTimeout` (wall clock) expires first.
  bool settle(Duration realTimeout = seconds(10));

  /// Number of registered workers (diagnostics).
  std::size_t workerCount() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dapple::testkit
