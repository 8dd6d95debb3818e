#include "dapple/core/reactor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "dapple/util/log.hpp"

namespace dapple {

namespace {
constexpr const char* kLog = "reactor";
constexpr std::uint64_t kNoTick = std::numeric_limits<std::uint64_t>::max();
/// Wheel tick quantum: timer deadlines are rounded up to the next tick.
constexpr Duration kTick = milliseconds(1);
/// Slots per loop's wheel; a timer further out waits extra revolutions.
constexpr std::size_t kWheelSlots = 256;
}  // namespace

/// One scheduled timer.  Owned by its loop's wheel while scheduled (and by
/// the fire batch while executing); handles hold weak references.
struct Reactor::TimerHandle::Timer {
  std::function<void()> fn;
  std::uint64_t deadlineTick = 0;  ///< absolute wheel tick
  std::uint64_t periodTicks = 0;   ///< 0 = one-shot
  std::uint64_t seq = 0;           ///< arm order, deterministic fire tie-break
  std::shared_ptr<Loop> owner;
  std::atomic<bool> cancelled{false};
  std::atomic<bool> scheduled{false};
};

/// One event-loop shard: a ready queue plus a hashed timer wheel, serviced
/// by one thread.  Shared-owned by the reactor and by every timer armed on
/// it, so a straggling TimerHandle can still cancel safely after the
/// reactor is gone.
struct Reactor::Loop {
  using Timer = Reactor::TimerHandle::Timer;

  Loop() : slots(kWheelSlots) {}

  mutable std::mutex m;
  std::condition_variable cv;      ///< loop wakeups (tasks, timers, stop)
  std::condition_variable idleCv;  ///< signalled when a callback finishes
  std::deque<std::function<void()>> ready;
  std::vector<std::vector<std::shared_ptr<Timer>>> slots;
  std::uint64_t currentTick = 0;  ///< last tick the wheel advanced through
  std::size_t timerCount = 0;
  std::uint64_t earliest = kNoTick;  ///< min-deadline hint (see earliestDirty)
  bool earliestDirty = false;
  bool timersChanged = false;  ///< set on insert; re-evaluates a timed park
  bool stopping = false;
  Timer* running = nullptr;  ///< timer whose callback is executing now
  std::size_t cancelWaiters = 0;  ///< cancel() calls parked on idleCv
  std::uint64_t nextSeq = 0;
  ClockSource* clk = nullptr;
  // Stats.
  std::uint64_t tasksRun = 0;
  std::uint64_t timersFired = 0;
  std::uint64_t timersCancelled = 0;
  // Last member: joined before the rest is torn down.
  std::jthread thread;

  /// Caller holds `m`.  Deadline ticks are clamped forward so a timer is
  /// never inserted into a slot the wheel has already swept past.
  void insertLocked(const std::shared_ptr<Timer>& t) {
    if (t->deadlineTick <= currentTick) t->deadlineTick = currentTick + 1;
    slots[t->deadlineTick % slots.size()].push_back(t);
    ++timerCount;
    if (!earliestDirty) earliest = std::min(earliest, t->deadlineTick);
    timersChanged = true;
  }

  /// Caller holds `m`.  Earliest pending deadline, recomputed lazily after
  /// an expiry sweep invalidates the hint.
  std::uint64_t nextDueTick() {
    if (timerCount == 0) {
      earliest = kNoTick;
      earliestDirty = false;
      return kNoTick;
    }
    if (earliestDirty) {
      std::uint64_t e = kNoTick;
      for (const auto& slot : slots) {
        for (const auto& t : slot) e = std::min(e, t->deadlineTick);
      }
      earliest = e;
      earliestDirty = false;
    }
    return earliest;
  }

  /// Caller holds `m`.  Advances the wheel to `nowTick` and removes every
  /// timer due at or before it, returned in deterministic
  /// (deadline, arm-order) order.  When the loop slept past a whole wheel
  /// revolution, one full sweep replaces the per-tick walk.
  std::vector<std::shared_ptr<Timer>> collectExpired(std::uint64_t nowTick) {
    std::vector<std::shared_ptr<Timer>> out;
    if (timerCount != 0) {
      auto takeDue = [&](std::vector<std::shared_ptr<Timer>>& slot) {
        for (auto it = slot.begin(); it != slot.end();) {
          if ((*it)->deadlineTick <= nowTick) {
            out.push_back(std::move(*it));
            it = slot.erase(it);
          } else {
            ++it;
          }
        }
      };
      if (nowTick - currentTick >= slots.size()) {
        for (auto& slot : slots) takeDue(slot);
      } else {
        for (std::uint64_t t = currentTick + 1; t <= nowTick; ++t) {
          takeDue(slots[t % slots.size()]);
        }
      }
      timerCount -= out.size();
      if (!out.empty()) earliestDirty = true;
      std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
        return std::tie(a->deadlineTick, a->seq) <
               std::tie(b->deadlineTick, b->seq);
      });
    }
    currentTick = nowTick;
    return out;
  }
};

struct Reactor::Impl {
  /// Set while a thread executes a reactor loop; TimerHandle::cancel uses it
  /// to avoid self-deadlocking waits from inside callbacks.
  static thread_local Loop* currentLoop;

  ClockSource* clk = nullptr;
  TimePoint epoch{};
  std::vector<std::shared_ptr<Loop>> loops;
  std::atomic<std::size_t> rr{0};
  std::atomic<bool> stopped{false};

  std::uint64_t tickOf(TimePoint when) const {
    if (when <= epoch) return 0;
    if (when == TimePoint::max()) return kNoTick / 2;
    const auto diff = static_cast<std::uint64_t>((when - epoch).count());
    const auto g = static_cast<std::uint64_t>(kTick.count());
    return (diff + g - 1) / g;
  }

  std::uint64_t ticksOf(Duration d) const {
    if (d <= Duration::zero()) return 1;
    const auto g = static_cast<std::uint64_t>(kTick.count());
    const auto n = (static_cast<std::uint64_t>(d.count()) + g - 1) / g;
    return n == 0 ? 1 : n;
  }

  TimePoint timeOf(std::uint64_t tick) const {
    const auto maxTicks = static_cast<std::uint64_t>(
        (TimePoint::max() - epoch).count() /
        kTick.count());
    if (tick >= maxTicks) return TimePoint::max();
    return epoch + kTick * static_cast<std::int64_t>(tick);
  }

  const std::shared_ptr<Loop>& pick() {
    return loops[rr.fetch_add(1) % loops.size()];
  }

  TimerHandle arm(Duration delay, std::uint64_t periodTicks,
                  std::function<void()> fn);
  void runLoop(Loop& loop, std::stop_token stop);
};

thread_local Reactor::Loop* Reactor::Impl::currentLoop = nullptr;

void Reactor::Impl::runLoop(Loop& loop, std::stop_token stop) {
  ClockSource::WorkerScope workerScope(*clk);
  currentLoop = &loop;
  std::unique_lock lock(loop.m);
  while (true) {
    // Run the tasks queued so far, then look at the wheel: tasks that
    // re-post themselves (an inbox draining a flood) must not starve the
    // timers sharing the loop, such as a dapplet's retransmission tick.
    for (std::size_t batch = loop.ready.size();
         batch != 0 && !stop.stop_requested(); --batch) {
      auto fn = std::move(loop.ready.front());
      loop.ready.pop_front();
      ++loop.tasksRun;
      lock.unlock();
      try {
        fn();
      } catch (const std::exception& e) {
        DAPPLE_LOG(kWarn, kLog) << "posted task threw: " << e.what();
      } catch (...) {
        DAPPLE_LOG(kWarn, kLog) << "posted task threw";
      }
      lock.lock();
    }
    if (stop.stop_requested()) break;

    const std::uint64_t due = loop.nextDueTick();
    if (due == kNoTick) {
      clk->wait(lock, loop.cv, [&] {
        return stop.stop_requested() || !loop.ready.empty() ||
               loop.timerCount > 0;
      });
      continue;
    }
    const TimePoint target = timeOf(due);
    if (clk->now() < target) {
      loop.timersChanged = false;
      clk->waitUntil(lock, loop.cv, target, [&] {
        return stop.stop_requested() || !loop.ready.empty() ||
               loop.timersChanged;
      });
      continue;  // re-evaluate: tasks, an earlier timer, or the deadline
    }

    auto fired = loop.collectExpired(tickOf(clk->now()));
    for (std::size_t fi = 0; fi < fired.size(); ++fi) {
      const auto& t = fired[fi];
      if (stop.stop_requested()) {
        // Stop mid-batch: the rest of the batch was already pulled off the
        // wheel, so stop()'s slot sweep cannot reach it — retire it here or
        // TimerHandle::active() would report these timers live forever.
        for (; fi < fired.size(); ++fi) {
          fired[fi]->scheduled.store(false, std::memory_order_release);
        }
        break;
      }
      if (t->cancelled.load(std::memory_order_acquire)) {
        t->scheduled.store(false, std::memory_order_release);
        ++loop.timersCancelled;
        continue;
      }
      loop.running = t.get();
      ++loop.timersFired;
      lock.unlock();
      try {
        t->fn();
      } catch (const std::exception& e) {
        DAPPLE_LOG(kWarn, kLog) << "timer callback threw: " << e.what();
      } catch (...) {
        DAPPLE_LOG(kWarn, kLog) << "timer callback threw";
      }
      lock.lock();
      loop.running = nullptr;
      // Notify only a parked cancel(): under a virtual clock every routed
      // notify also wakes the clock's scheduler, once per timer fired.
      if (loop.cancelWaiters != 0) clk->notifyAll(loop.idleCv);
      const bool rearm = t->periodTicks != 0 &&
                         !t->cancelled.load(std::memory_order_acquire) &&
                         !loop.stopping;
      if (rearm) {
        // Fixed-rate with catch-up skipping: land on the next multiple of
        // the period past the wheel's current tick, never in the past.
        std::uint64_t next = t->deadlineTick + t->periodTicks;
        if (next <= loop.currentTick) {
          const std::uint64_t behind = loop.currentTick - t->deadlineTick;
          next = t->deadlineTick +
                 (behind / t->periodTicks + 1) * t->periodTicks;
        }
        t->deadlineTick = next;
        loop.insertLocked(t);
      } else {
        // A periodic that stops because it was cancelled (possibly from
        // inside its own callback) is a cancellation, not a fire-out.
        if (t->periodTicks != 0 &&
            t->cancelled.load(std::memory_order_acquire)) {
          ++loop.timersCancelled;
        }
        t->scheduled.store(false, std::memory_order_release);
      }
    }
  }
  currentLoop = nullptr;
}

Reactor::TimerHandle Reactor::Impl::arm(Duration delay,
                                        std::uint64_t periodTicks,
                                        std::function<void()> fn) {
  const std::shared_ptr<Loop>& loop = pick();
  auto timer = std::make_shared<TimerHandle::Timer>();
  timer->fn = std::move(fn);
  timer->periodTicks = periodTicks;
  timer->owner = loop;
  const TimePoint deadline = saturatingDeadline(clk->now(), delay);
  {
    std::scoped_lock lock(loop->m);
    if (loop->stopping) return TimerHandle{};
    timer->seq = loop->nextSeq++;
    timer->deadlineTick = tickOf(deadline);
    timer->scheduled.store(true, std::memory_order_release);
    loop->insertLocked(timer);
  }
  clk->notifyOne(loop->cv);
  return TimerHandle(std::move(timer));
}

Reactor::Reactor() : Reactor(Options()) {}

Reactor::Reactor(const Options& options) : impl_(std::make_unique<Impl>()) {
  impl_->clk =
      options.clock != nullptr ? options.clock : &ClockSource::system();
  impl_->epoch = impl_->clk->now();
  unsigned threads = options.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  impl_->loops.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    auto loop = std::make_shared<Loop>();
    loop->clk = impl_->clk;
    impl_->loops.push_back(std::move(loop));
  }
  // Announce before spawn: under a virtual clock the window between thread
  // creation and worker registration must not look quiescent.
  for (auto& loop : impl_->loops) {
    impl_->clk->announceWorker();
    loop->thread = std::jthread([impl = impl_.get(), raw = loop.get()](
                                    std::stop_token stop) {
      impl->runLoop(*raw, stop);
    });
  }
}

Reactor::~Reactor() { stop(); }

void Reactor::stop() {
  if (impl_->stopped.exchange(true)) return;
  for (auto& loop : impl_->loops) {
    {
      std::scoped_lock lock(loop->m);
      loop->stopping = true;
    }
    loop->thread.request_stop();
    impl_->clk->notifyAll(loop->cv);
  }
  for (auto& loop : impl_->loops) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  for (auto& loop : impl_->loops) {
    std::scoped_lock lock(loop->m);
    for (auto& slot : loop->slots) {
      for (auto& t : slot) t->scheduled.store(false, std::memory_order_release);
      slot.clear();
    }
    loop->timerCount = 0;
    loop->earliest = kNoTick;
    loop->ready.clear();
  }
}

void Reactor::post(std::function<void()> fn) {
  const std::shared_ptr<Loop>& loop = impl_->pick();
  {
    std::scoped_lock lock(loop->m);
    if (loop->stopping) return;
    loop->ready.push_back(std::move(fn));
  }
  impl_->clk->notifyOne(loop->cv);
}

Reactor::TimerHandle Reactor::after(Duration delay, std::function<void()> fn) {
  return impl_->arm(delay, 0, std::move(fn));
}

Reactor::TimerHandle Reactor::every(Duration period, std::function<void()> fn) {
  return impl_->arm(period, impl_->ticksOf(period), std::move(fn));
}

std::size_t Reactor::threadCount() const { return impl_->loops.size(); }

ClockSource& Reactor::clock() const { return *impl_->clk; }

Reactor::Stats Reactor::stats() const {
  Stats out;
  for (const auto& loop : impl_->loops) {
    std::scoped_lock lock(loop->m);
    out.tasksRun += loop->tasksRun;
    out.timersFired += loop->timersFired;
    out.timersCancelled += loop->timersCancelled;
    out.timersPending += loop->timerCount;
  }
  return out;
}

void Reactor::TimerHandle::cancel() {
  auto t = timer_.lock();
  if (!t) return;
  t->cancelled.store(true, std::memory_order_release);
  auto loop = t->owner;
  if (!loop) return;
  // From a reactor loop thread the wait below would self-deadlock (the
  // running callback IS this thread, or two loops could wait on each
  // other), so cancellation is asynchronous there: the flag alone
  // guarantees no further firing and no re-arm.
  if (Impl::currentLoop != nullptr) return;
  std::unique_lock lock(loop->m);
  ++loop->cancelWaiters;
  loop->clk->wait(lock, loop->idleCv,
                  [&] { return loop->running != t.get(); });
  --loop->cancelWaiters;
}

bool Reactor::TimerHandle::active() const {
  auto t = timer_.lock();
  if (!t) return false;
  return t->scheduled.load(std::memory_order_acquire) &&
         !t->cancelled.load(std::memory_order_acquire);
}

}  // namespace dapple
