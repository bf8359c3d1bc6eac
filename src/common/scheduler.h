// Backend-neutral scheduling surface. ProtocolEnv implementations, the
// network model, the virtual-CPU processor, and fault/telemetry plumbing
// all need "what time is it" plus "run this later (maybe cancellable)" —
// and nothing else. Scheduler is that contract. One event-queue core
// (common/event_queue.h: an EventHeap plus a TimerSlab) sits under three
// thin implementations, each with its own clock and strict event order:
//  - sim::Simulator            (one global queue, (when, seq) order)
//  - sim::ShardedSimulator     (a queue per shard, (when, origin, oseq)
//                               order, lookahead windows; via NodeScheduler)
//  - realnet::TimerWheel       (metal timers, (deadline, seq) order, advanced
//                               by an epoll EventLoop)
// Callers hold a Scheduler& and stop naming the backend type, so the same
// host code runs on one global clock, a shard-local clock, or wall time.
//
// Handles are (slot, gen) pairs into the core's TimerSlab: cancel() on a
// fired/stale handle is a no-op, detected via the slot's generation
// counter, which bumps when the event leaves the queue. A TimerHandle must
// not outlive its Scheduler.
#pragma once

#include <cstdint>
#include <utility>

#include "common/event_fn.h"
#include "common/sim_time.h"

namespace marlin {

class Scheduler;

/// Cancellation handle for a scheduled event. Default-constructed handles
/// are inert; cancelling an already-fired event (or one whose slot was
/// recycled for a newer event) is a no-op.
class TimerHandle {
 public:
  TimerHandle() = default;
  inline void cancel();
  inline bool active() const;

 private:
  friend class Scheduler;
  TimerHandle(Scheduler* sched, std::uint32_t slot, std::uint32_t gen)
      : sched_(sched), slot_(slot), gen_(gen) {}
  Scheduler* sched_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Current time on this scheduler's clock: virtual sim time for the
  /// simulated backends, the monotonic clock for realnet.
  virtual TimePoint now() const = 0;

  /// Fire-and-forget scheduling: no cancellation handle, no slab slot.
  /// Negative delays clamp to zero. Prefer this when the handle would be
  /// dropped — it is the allocation-free hot path on the sim backends.
  void post(Duration delay, EventFn fn) {
    if (delay < Duration::zero()) delay = Duration::zero();
    post_at(now() + delay, std::move(fn));
  }
  virtual void post_at(TimePoint when, EventFn fn) = 0;

  /// Schedules `fn` and returns a cancellation handle (costs a slab slot).
  /// Negative delays clamp to zero.
  TimerHandle schedule(Duration delay, EventFn fn) {
    if (delay < Duration::zero()) delay = Duration::zero();
    return schedule_at(now() + delay, std::move(fn));
  }
  virtual TimerHandle schedule_at(TimePoint when, EventFn fn) = 0;

 protected:
  friend class TimerHandle;

  /// Slab hooks backing TimerHandle: same (slot, gen) protocol in every
  /// backend, so the handle type is shared rather than per-engine.
  virtual void cancel_timer(std::uint32_t slot, std::uint32_t gen) = 0;
  virtual bool timer_active(std::uint32_t slot, std::uint32_t gen) const = 0;

  /// Mints a handle owned by this scheduler (TimerHandle's ctor is
  /// private; only Scheduler implementations create live handles).
  TimerHandle make_handle(std::uint32_t slot, std::uint32_t gen) {
    return TimerHandle(this, slot, gen);
  }
};

inline void TimerHandle::cancel() {
  if (sched_ != nullptr) sched_->cancel_timer(slot_, gen_);
}

inline bool TimerHandle::active() const {
  return sched_ != nullptr && sched_->timer_active(slot_, gen_);
}

}  // namespace marlin
