#pragma once
/// \file time.hpp
/// \brief Clock aliases, a tiny stopwatch, and the injectable `ClockSource`.
///
/// Every component that sleeps, times out, or schedules (the reliable
/// layer's retransmission timer, `SyncQueue`/`Inbox::receiveFor` deadlines,
/// liveness heartbeats, initiator backoff, `SimNetwork` delivery) reads time
/// and parks threads exclusively through a `ClockSource`.  Production code
/// uses `ClockSource::system()` (a thin veneer over `steady_clock` and the
/// usual condition-variable waits); tests inject
/// `dapple::testkit::VirtualClock`, whose waits park on a discrete-event
/// scheduler so a whole fault scenario runs in virtual time with zero
/// wall-clock sleeps.
///
/// Contract for clocked components: pair every wait with a notify routed
/// through the *same* clock (`notifyOne`/`notifyAll`/`interruptAll`).  A raw
/// `cv.notify_*()` on a condition variable that clocked waiters park on is a
/// lost wakeup under a virtual clock.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <type_traits>

namespace dapple {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using Duration = Clock::duration;

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::seconds;

/// `now + timeout` without signed overflow: anything that would pass
/// `TimePoint::max()` saturates to it (an effectively-infinite deadline).
inline TimePoint saturatingDeadline(TimePoint now, Duration timeout) {
  if (timeout >= TimePoint::max() - now) return TimePoint::max();
  return now + timeout;
}

/// The time abstraction all waiting code is written against.  Callers keep
/// their own mutex/condition-variable pairs; the clock only decides how a
/// wait parks and what "now" means.  All members are thread-safe.
class ClockSource {
 public:
  virtual ~ClockSource() = default;

  /// Current time on this clock's timeline.
  virtual TimePoint now() const = 0;

  /// Blocks the calling thread for `d` on this clock's timeline.
  virtual void sleepFor(Duration d) = 0;

  /// Non-capturing predicate trampoline used by the virtual interface; use
  /// the templated `waitUntil`/`waitFor`/`wait` wrappers below.
  using PredFn = bool (*)(void*);

  /// `cv.wait_until(lock, deadline, pred)` routed through the clock.
  /// Returns `pred()` at exit (false = timed out with pred still false).
  /// `deadline == TimePoint::max()` waits untimed.
  virtual bool waitUntilImpl(std::unique_lock<std::mutex>& lock,
                             std::condition_variable& cv, TimePoint deadline,
                             PredFn pred, void* ctx) = 0;

  /// One `cv.wait_until(lock, deadline)` without a predicate: returns on a
  /// routed notify, on reaching `deadline`, or spuriously.  For manual
  /// re-check loops that interleave timed waits with other conditions.
  virtual void parkUntil(std::unique_lock<std::mutex>& lock,
                         std::condition_variable& cv, TimePoint deadline) = 0;

  /// Notifies waiters parked on `cv` *through this clock*.
  virtual void notifyOne(std::condition_variable& cv) = 0;
  virtual void notifyAll(std::condition_variable& cv) = 0;

  /// Wakes every clocked waiter once so blocked loops re-check their stop
  /// conditions (used by Dapplet::stop/crash).  No-op on the system clock,
  /// where plain timeouts already guarantee progress.
  virtual void interruptAll() {}

  /// A *delivery* worker is a simulated network's delivery thread.  When
  /// several clocked waits fall due at one virtual instant, a virtual clock
  /// resumes the delivery workers first and every other due waiter only
  /// after they have parked again: a datagram due at the same instant as a
  /// retransmission timer is always handled before the timer runs.
  enum class WorkerKind { kOrdinary, kDelivery };

  /// Worker accounting: a *worker* thread is one whose forward progress is
  /// driven purely by messages and timers (transport delivery threads,
  /// reactor loops, spawned dapplet workers).  A virtual clock only
  /// advances time when every registered worker is parked in a clocked wait,
  /// so registration is what makes compute "instantaneous" in virtual time.
  /// No-ops on the system clock.
  virtual void beginWorker(WorkerKind /*kind*/) {}
  virtual void endWorker() {}

  /// Called by the *spawning* thread immediately before it starts a thread
  /// that will `beginWorker()`.  Closes the startup race: between the spawn
  /// and the new thread's registration the worker is invisible, and a
  /// virtual clock that considered that window quiescent could leap
  /// arbitrarily far (e.g. past a delivery timeout before the retransmit
  /// timer ever ran).  An announced-but-unregistered worker blocks
  /// advancement until its `beginWorker()` lands.  Every `beginWorker()`
  /// consumes exactly one announcement (a thread becoming a worker itself
  /// announces first); a virtual clock throws `Error` when none is pending.
  /// No-op on the system clock.
  virtual void announceWorker() {}

  /// RAII worker registration for thread bodies.
  class WorkerScope {
   public:
    explicit WorkerScope(ClockSource& clock,
                         WorkerKind kind = WorkerKind::kOrdinary)
        : clock_(clock) {
      clock_.beginWorker(kind);
    }
    ~WorkerScope() { clock_.endWorker(); }
    WorkerScope(const WorkerScope&) = delete;
    WorkerScope& operator=(const WorkerScope&) = delete;

   private:
    ClockSource& clock_;
  };

  // --- templated sugar over the PredFn interface -------------------------

  template <typename Pred>
  bool waitUntil(std::unique_lock<std::mutex>& lock,
                 std::condition_variable& cv, TimePoint deadline,
                 Pred&& pred) {
    using P = std::remove_reference_t<Pred>;
    return waitUntilImpl(
        lock, cv, deadline, [](void* ctx) { return (*static_cast<P*>(ctx))(); },
        &pred);
  }

  template <typename Rep, typename Period, typename Pred>
  bool waitFor(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
               std::chrono::duration<Rep, Period> timeout, Pred&& pred) {
    return waitUntil(
        lock, cv,
        saturatingDeadline(now(),
                           std::chrono::duration_cast<Duration>(timeout)),
        std::forward<Pred>(pred));
  }

  /// Untimed `cv.wait(lock, pred)` routed through the clock.
  template <typename Pred>
  void wait(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
            Pred&& pred) {
    waitUntil(lock, cv, TimePoint::max(), std::forward<Pred>(pred));
  }

  template <typename Rep, typename Period>
  void parkFor(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
               std::chrono::duration<Rep, Period> timeout) {
    parkUntil(lock, cv,
              saturatingDeadline(now(),
                                 std::chrono::duration_cast<Duration>(timeout)));
  }

  /// The process-wide wall-clock implementation (steady_clock + plain
  /// condition-variable waits).
  static ClockSource& system();
};

/// Monotonic stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  Duration elapsed() const { return Clock::now() - start_; }

  double elapsedSeconds() const {
    return std::chrono::duration<double>(elapsed()).count();
  }

  std::int64_t elapsedMicros() const {
    return std::chrono::duration_cast<microseconds>(elapsed()).count();
  }

 private:
  TimePoint start_;
};

}  // namespace dapple
