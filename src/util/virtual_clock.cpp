#include "dapple/testkit/virtual_clock.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "dapple/util/error.hpp"

namespace dapple::testkit {

namespace {
/// Set for the duration of a registered worker thread's body; decides
/// whether this thread's clocked waits count toward quiescence.
thread_local bool tlsWorker = false;
/// Set while the worker is a delivery worker: its waits resume first.
thread_local bool tlsDelivery = false;
}  // namespace

/// One thread parked in a clocked wait.  Lives on the waiter's stack; the
/// registry only holds pointers between register/unregister.  `signaled` is
/// the lost-wakeup guard: every wake-up routed through the clock sets it
/// under the registry mutex *before* notifying, and the parked thread's
/// condition-variable predicate checks it, so a notify that fires between
/// "decided to park" and "actually parked" is never lost.  It is also the
/// only way a waiter's deadline lets it resume (see waitUntilImpl).
struct Waiter {
  std::condition_variable* cv = nullptr;
  TimePoint deadline = TimePoint::max();
  bool worker = false;
  bool delivery = false;
  std::atomic<bool> signaled{false};
};

struct VirtualClock::Impl {
  explicit Impl(Options opts)
      : nowTicks(opts.start.time_since_epoch().count()) {}

  mutable std::mutex m;
  /// Scheduler and settle() park here; poked on every registry change.
  std::condition_variable_any changed;

  std::atomic<Duration::rep> nowTicks;
  std::vector<Waiter*> waiters;
  std::multimap<TimePoint, std::function<void()>> alarms;
  std::size_t workers = 0;
  /// Workers whose spawn was announced but whose thread has not yet run
  /// `beginWorker()`.  While nonzero the system is never quiescent — the
  /// pending thread is about to do real work the clock cannot see.
  std::size_t announced = 0;

  // Declared last: joined first, while the rest of Impl is still alive.
  std::jthread scheduler;

  TimePoint nowTP() const {
    return TimePoint(Duration(nowTicks.load(std::memory_order_acquire)));
  }

  void setNowLocked(TimePoint t) {
    nowTicks.store(t.time_since_epoch().count(), std::memory_order_release);
  }

  /// True when nothing can happen except by time passing: every registered
  /// worker is parked in a clocked wait and no waiter has been woken but
  /// not yet resumed.
  bool quiescentLocked() const {
    if (announced != 0) return false;
    std::size_t parkedWorkers = 0;
    for (const Waiter* w : waiters) {
      if (w->signaled.load(std::memory_order_acquire)) return false;
      if (w->worker) ++parkedWorkers;
    }
    return parkedWorkers == workers;
  }

  /// Earliest pending deadline or alarm; TimePoint::max() when none.
  TimePoint nextEventLocked() const {
    TimePoint next = TimePoint::max();
    for (const Waiter* w : waiters) {
      if (!w->signaled.load(std::memory_order_acquire)) {
        next = std::min(next, w->deadline);
      }
    }
    if (!alarms.empty()) next = std::min(next, alarms.begin()->first);
    return next;
  }

  static bool dueBy(const Waiter* w, TimePoint t) {
    return w->deadline <= t && !w->signaled.load(std::memory_order_relaxed);
  }

  /// Wakes the waiters whose deadline has been reached, delivery workers
  /// first: while one of them is due, only the delivery workers wake and
  /// every other due waiter stays registered for the next step.  Returns
  /// true when it woke delivery workers.
  bool fireDueWaitersLocked() {
    const TimePoint t = nowTP();
    const bool deliveryFirst =
        std::any_of(waiters.begin(), waiters.end(), [t](const Waiter* w) {
          return w->delivery && dueBy(w, t);
        });
    std::vector<std::condition_variable*> cvs;
    for (Waiter* w : waiters) {
      if (dueBy(w, t) && (w->delivery || !deliveryFirst)) {
        w->signaled.store(true, std::memory_order_release);
        cvs.push_back(w->cv);
      }
    }
    for (std::condition_variable* cv : cvs) cv->notify_all();
    return deliveryFirst;
  }

  std::vector<std::function<void()>> takeDueAlarmsLocked() {
    std::vector<std::function<void()>> due;
    const TimePoint t = nowTP();
    auto it = alarms.begin();
    while (it != alarms.end() && it->first <= t) {
      due.push_back(std::move(it->second));
      it = alarms.erase(it);
    }
    return due;
  }

  void registerWaiter(Waiter* w) {
    {
      std::scoped_lock lock(m);
      waiters.push_back(w);
    }
    changed.notify_all();
  }

  void unregisterWaiter(Waiter* w) {
    {
      std::scoped_lock lock(m);
      waiters.erase(std::find(waiters.begin(), waiters.end(), w));
    }
    changed.notify_all();
  }

  void markAllOn(std::condition_variable& cv) {
    {
      std::scoped_lock lock(m);
      for (Waiter* w : waiters) {
        if (w->cv == &cv) w->signaled.store(true, std::memory_order_release);
      }
    }
    cv.notify_all();
    changed.notify_all();
  }

  /// One advancement step: jump to the earliest event, wake due waiters,
  /// run due alarms (without the registry lock — they call arbitrary code).
  /// `cap` bounds the jump; returns false when no event is pending.
  bool stepLocked(std::unique_lock<std::mutex>& lock, TimePoint cap) {
    const TimePoint next = nextEventLocked();
    if (next == TimePoint::max()) return false;
    const TimePoint target = std::min(next, cap);
    if (target > nowTP()) setNowLocked(target);
    // Woken delivery workers have this instant to themselves: the alarms
    // and other waiters due now go in the next step, which the scheduler
    // takes only once the system is quiescent again — their handlers done.
    if (fireDueWaitersLocked()) return true;
    auto due = takeDueAlarmsLocked();
    if (!due.empty()) {
      lock.unlock();
      for (auto& fn : due) fn();
      lock.lock();
    }
    return next <= cap;
  }

  /// Closes a cross-mutex lost-wakeup race: `signaled` is set and the cv
  /// notified without holding the *waiter's* mutex, so a notify can land in
  /// the instant between the waiter's predicate check and its actual park —
  /// and be lost, with nothing ever notifying that cv again.  Re-notifying
  /// every signaled-but-still-registered waiter (holding the registry lock,
  /// which pins the Waiter and its cv) converts that permanent hang into a
  /// bounded retry.
  void renotifySignaledLocked() {
    for (Waiter* w : waiters) {
      if (w->signaled.load(std::memory_order_acquire)) w->cv->notify_all();
    }
  }

  /// One-shot stall diagnostic: a system that stays non-quiescent for tens
  /// of real seconds has a worker stuck outside the clock (a plain mutex or
  /// un-clocked wait), which freezes virtual time and hangs every virtual
  /// timeout.  Dumping the registry makes that hang diagnosable.
  void dumpStallLocked() const {
    std::fprintf(stderr,
                 "[virtual-clock] STALL: non-quiescent for 20s of real time; "
                 "workers=%zu announced=%zu waiters=%zu now=%lld\n",
                 workers, announced, waiters.size(),
                 static_cast<long long>(nowTicks.load()));
    std::size_t parkedWorkers = 0;
    for (const Waiter* w : waiters) {
      if (w->worker) ++parkedWorkers;
      std::fprintf(stderr,
                   "[virtual-clock]   waiter cv=%p worker=%d signaled=%d "
                   "deadline=%lld\n",
                   static_cast<const void*>(w->cv), w->worker ? 1 : 0,
                   w->signaled.load() ? 1 : 0,
                   w->deadline == TimePoint::max()
                       ? -1LL
                       : static_cast<long long>(
                             w->deadline.time_since_epoch().count()));
    }
    std::fprintf(stderr,
                 "[virtual-clock]   parked workers %zu/%zu, alarms=%zu — "
                 "the %zu unparked worker(s) are blocked outside the clock\n",
                 parkedWorkers, workers, alarms.size(),
                 workers - parkedWorkers);
    std::fflush(stderr);
  }

  void schedulerLoop(std::stop_token stop) {
    std::unique_lock lock(m);
    int stuckIters = 0;
    while (!stop.stop_requested()) {
      const bool ready =
          changed.wait_for(lock, stop, std::chrono::milliseconds(10), [&] {
            return quiescentLocked() && nextEventLocked() != TimePoint::max();
          });
      if (stop.stop_requested()) break;
      if (!ready) {
        renotifySignaledLocked();
        // Idle clocks (no workers, nothing due) are fine; only a registered
        // worker that never parks indicates a wedge.  Report once per stall,
        // after ~20s of real time.
        if (workers > 0 && !quiescentLocked()) {
          if (++stuckIters == 2000) dumpStallLocked();
        } else {
          stuckIters = 0;
        }
        continue;
      }
      stuckIters = 0;
      stepLocked(lock, TimePoint::max());
    }
  }
};

VirtualClock::VirtualClock() : VirtualClock(Options{}) {}

VirtualClock::VirtualClock(Options options)
    : impl_(std::make_unique<Impl>(options)) {
  if (options.autoAdvance) {
    impl_->scheduler = std::jthread(
        [impl = impl_.get()](std::stop_token stop) {
          impl->schedulerLoop(stop);
        });
  }
}

VirtualClock::~VirtualClock() {
  if (impl_->scheduler.joinable()) {
    impl_->scheduler.request_stop();
    impl_->changed.notify_all();
  }
}

TimePoint VirtualClock::now() const { return impl_->nowTP(); }

bool VirtualClock::waitUntilImpl(std::unique_lock<std::mutex>& lock,
                                 std::condition_variable& cv,
                                 TimePoint deadline, PredFn pred, void* ctx) {
  for (;;) {
    if (pred(ctx)) return true;
    if (now() >= deadline) return pred(ctx);
    Waiter w;
    w.cv = &cv;
    w.deadline = deadline;
    w.worker = tlsWorker;
    w.delivery = tlsDelivery;
    impl_->registerWaiter(&w);
    // Once registered, the deadline lets this thread resume only through
    // the clock's signal, never by reading `now() >= deadline`: at an
    // instant where a delivery is due too, the clock holds this waiter back
    // until the delivery's handlers are done.  `pred` in the park predicate
    // is belt-and-braces: a stray un-routed notify still makes progress.
    cv.wait(lock, [&] {
      return w.signaled.load(std::memory_order_acquire) || pred(ctx);
    });
    impl_->unregisterWaiter(&w);
  }
}

void VirtualClock::parkUntil(std::unique_lock<std::mutex>& lock,
                             std::condition_variable& cv, TimePoint deadline) {
  if (now() >= deadline) return;
  Waiter w;
  w.cv = &cv;
  w.deadline = deadline;
  w.worker = tlsWorker;
  w.delivery = tlsDelivery;
  impl_->registerWaiter(&w);
  cv.wait(lock, [&] { return w.signaled.load(std::memory_order_acquire); });
  impl_->unregisterWaiter(&w);
}

void VirtualClock::sleepFor(Duration d) {
  std::mutex mx;
  std::condition_variable cv;
  std::unique_lock lock(mx);
  const TimePoint deadline = saturatingDeadline(now(), d);
  while (now() < deadline) parkUntil(lock, cv, deadline);
}

/// Virtual notifyOne deliberately wakes every waiter on the cv: waiters
/// re-check their predicates anyway, and "exactly one" semantics would make
/// wake-up order schedule-dependent — the opposite of what tests want.
void VirtualClock::notifyOne(std::condition_variable& cv) {
  impl_->markAllOn(cv);
}

void VirtualClock::notifyAll(std::condition_variable& cv) {
  impl_->markAllOn(cv);
}

void VirtualClock::interruptAll() {
  std::vector<std::condition_variable*> cvs;
  {
    std::scoped_lock lock(impl_->m);
    for (Waiter* w : impl_->waiters) {
      w->signaled.store(true, std::memory_order_release);
      cvs.push_back(w->cv);
    }
  }
  for (std::condition_variable* cv : cvs) cv->notify_all();
  impl_->changed.notify_all();
}

void VirtualClock::beginWorker(WorkerKind kind) {
  {
    std::scoped_lock lock(impl_->m);
    // Consuming someone else's announcement would let the clock advance
    // while that announced thread is still starting.
    if (impl_->announced == 0) {
      throw Error("VirtualClock: beginWorker() without a pending "
                  "announceWorker()");
    }
    --impl_->announced;
    ++impl_->workers;
  }
  tlsWorker = true;
  tlsDelivery = kind == WorkerKind::kDelivery;
  impl_->changed.notify_all();
}

void VirtualClock::announceWorker() {
  {
    std::scoped_lock lock(impl_->m);
    ++impl_->announced;
  }
  impl_->changed.notify_all();
}

void VirtualClock::endWorker() {
  tlsWorker = false;
  tlsDelivery = false;
  {
    std::scoped_lock lock(impl_->m);
    --impl_->workers;
  }
  impl_->changed.notify_all();
}

void VirtualClock::at(TimePoint t, std::function<void()> fn) {
  {
    std::scoped_lock lock(impl_->m);
    impl_->alarms.emplace(t, std::move(fn));
  }
  impl_->changed.notify_all();
}

void VirtualClock::after(Duration d, std::function<void()> fn) {
  at(saturatingDeadline(now(), d), std::move(fn));
}

void VirtualClock::advanceTo(TimePoint t) {
  std::unique_lock lock(impl_->m);
  impl_->renotifySignaledLocked();
  while (impl_->stepLocked(lock, t)) {
  }
  if (t > impl_->nowTP()) {
    impl_->setNowLocked(t);
    impl_->fireDueWaitersLocked();
  }
}

void VirtualClock::advanceBy(Duration d) {
  advanceTo(saturatingDeadline(now(), d));
}

bool VirtualClock::settle(Duration realTimeout) {
  std::unique_lock lock(impl_->m);
  const TimePoint deadline = Clock::now() + realTimeout;  // real time
  while (!impl_->quiescentLocked()) {
    if (Clock::now() >= deadline) return false;
    impl_->renotifySignaledLocked();
    impl_->changed.wait_for(lock, std::chrono::milliseconds(10),
                            [&] { return impl_->quiescentLocked(); });
  }
  return true;
}

std::size_t VirtualClock::workerCount() const {
  std::scoped_lock lock(impl_->m);
  return impl_->workers;
}

}  // namespace dapple::testkit
