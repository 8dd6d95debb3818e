#pragma once
/// \file reactor.hpp
/// \brief The event-driven dapplet runtime: a small pool of event-loop
/// threads plus a hashed timer wheel.
///
/// The paper's world-wide system assumes a host serves many dapplets
/// cheaply, but a thread-per-loop runtime burns three-plus threads per
/// dapplet (retransmission timer, liveness heartbeat loop, session dispatch
/// loop).
/// The `Reactor` inverts that: a fixed pool of loop threads (default
/// `hw_concurrency`, configurable down to 1) executes every dapplet as a
/// state machine — message handlers installed with `Inbox::onMessage` and
/// timer callbacks armed with `after`/`every` — so tens of thousands of
/// dapplets share a bounded thread count (`bench_swarm` is the gate).
///
/// Scheduling model:
///  * The pool is sharded: each loop thread owns its own ready queue and its
///    own hashed timer wheel (slot ring + absolute-deadline ticks, the
///    classic "rounds" wheel), so steady-state timer traffic never crosses a
///    shared lock.  `post`/`after`/`every` assign work round-robin; a
///    periodic timer re-arms on its owning loop.
///  * Timers are tick-quantized: a timer armed with delay `d` fires at the
///    first wheel tick at or after `now + d` (1 ms ticks, 256 slots per
///    wheel; a timer further out waits extra revolutions).  Zero-delay
///    timers fire on the next tick.
///  * Every wait is routed through the injected `ClockSource`, and loop
///    threads register as clock workers, so the same reactor runs unmodified
///    under `testkit::VirtualClock` — the virtual clock parks the loops at
///    quiescence and jumps straight to the next wheel deadline, which keeps
///    the testkit and the scenario fuzzer deterministic.
///
/// Callback contract: handlers run on loop threads and must not block
/// indefinitely (a blocked handler stalls every dapplet sharded onto that
/// loop).  Long blocking work belongs on `Dapplet::spawn` threads.  Every
/// dapplet runs on a reactor: a shared one, or its own one-loop reactor.

#include <cstdint>
#include <functional>
#include <memory>

#include "dapple/util/time.hpp"

namespace dapple {

/// Event-loop pool + timer wheel.  All members are thread-safe.
class Reactor {
 public:
  struct Options {
    /// Loop threads; 0 selects `std::thread::hardware_concurrency()`.
    unsigned threads = 0;
    /// Time source for the wheel and all loop waits.  Null selects
    /// `ClockSource::system()`; inject a `testkit::VirtualClock` to run the
    /// reactor in virtual time.  Must outlive the reactor.
    ClockSource* clock = nullptr;
  };

  /// Handle to a scheduled timer.  Default-constructed handles are inert.
  /// Copyable; all copies refer to the same timer.
  class TimerHandle {
   public:
    TimerHandle() = default;

    /// Cancels the timer.  Safe from any thread, including from inside the
    /// timer's own callback (a periodic timer that cancels itself does not
    /// re-arm).  When called from *outside* the timer's callback, cancel()
    /// additionally waits for any in-flight invocation to finish, so after
    /// it returns the callback is guaranteed not to be running and never to
    /// run again — the guarantee teardown paths need before freeing state
    /// the callback captures.  Idempotent.
    void cancel();

    /// True while the timer is scheduled or running (false once cancelled,
    /// once a one-shot has fired, or on a default-constructed handle).
    bool active() const;

   private:
    friend class Reactor;
    struct Timer;
    explicit TimerHandle(std::shared_ptr<Timer> timer)
        : timer_(std::move(timer)) {}
    /// Weak so a callback that captures its own handle (the self-cancel
    /// idiom) cannot keep the timer alive in a reference cycle.
    std::weak_ptr<Timer> timer_;
  };

  /// Default options: hw_concurrency loops, system clock.
  Reactor();
  explicit Reactor(const Options& options);

  /// Stops and joins the pool (see stop()).
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Enqueues `fn` to run as soon as possible on a loop thread.
  void post(std::function<void()> fn);

  /// Runs `fn` once, `delay` from now (rounded up to the next wheel tick).
  TimerHandle after(Duration delay, std::function<void()> fn);

  /// Runs `fn` every `period`, first firing one period from now.  A slow
  /// callback delays subsequent firings rather than bunching them: the next
  /// deadline is pushed past "now" in whole periods, never scheduled in the
  /// past.
  TimerHandle every(Duration period, std::function<void()> fn);

  /// Stops the pool: pending timers are dropped, queued tasks are discarded,
  /// loop threads are joined.  Idempotent.  Callbacks already executing run
  /// to completion before the corresponding loop exits.
  void stop();

  /// Number of loop threads.
  std::size_t threadCount() const;

  /// The clock the wheel runs on (the injected one, or the system clock).
  ClockSource& clock() const;

  struct Stats {
    std::uint64_t tasksRun = 0;       ///< post() callbacks executed
    std::uint64_t timersFired = 0;    ///< timer callbacks executed
    std::uint64_t timersCancelled = 0;  ///< timers removed before firing
    std::size_t timersPending = 0;    ///< currently scheduled timers
  };
  Stats stats() const;

 private:
  struct Loop;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dapple
