// The metal timers driving the pacemaker and reconnect backoff on the real
// runtime: the realnet user of the shared event-queue core
// (common/event_queue.h) that sim::Simulator and the sharded engine's
// shards also run on — one EventHeap ordered by (deadline, seq) and one
// TimerSlab for cancellable timers. It implements marlin::Scheduler
// (common/scheduler.h) with the same post/schedule_at and (slot, gen)
// cancellation protocol as the simulated engines, so host code written
// against Scheduler& runs on either transport. Single-threaded: owned and
// advanced by one EventLoop; now() is the time of the last advance (the
// loop advances every iteration, so it trails the monotonic clock by at
// most one epoll wait). The class name is historical: the timers are a
// heap, not a hashed wheel.
#pragma once

#include <cstdint>

#include "common/event_queue.h"
#include "common/histogram.h"
#include "common/scheduler.h"
#include "common/sim_time.h"

namespace marlin::realnet {

/// Cancellation handles are the shared generation-counted kind; the alias
/// keeps the historical realnet::TimerHandle spelling working.
using TimerHandle = marlin::TimerHandle;

class TimerWheel final : public marlin::Scheduler {
 public:
  /// Time of the last advance() — the loop iteration's timestamp.
  TimePoint now() const override { return last_advance_; }

  /// Schedules `fn` at absolute time `when` (clamped to now for past
  /// deadlines: they fire on the next advance, never synchronously).
  TimerHandle schedule_at(TimePoint when, EventFn fn) override;

  /// Fire-and-forget: same clamp, no slab slot.
  void post_at(TimePoint when, EventFn fn) override {
    push(when, TimerSlab::kNoSlot, std::move(fn));
  }

  /// Fires every pending timer with deadline <= now, in (deadline, seq)
  /// order. The due set is collected before any callback runs, so a timer
  /// a callback arms — even one already past due — waits for the next
  /// advance. Callbacks may schedule/cancel freely.
  void advance(TimePoint now);

  /// Nanoseconds until the earliest pending deadline, clamped to >= 0;
  /// -1 when no timers are pending (epoll_wait's "block forever"). Reaps
  /// cancelled timers off the head, then reads it.
  std::int64_t next_timeout_ns(TimePoint now);

  std::size_t pending() const { return queue_.size(); }

  // -- instrumentation -------------------------------------------------------
  /// Total timers fired (cancelled entries excluded).
  std::uint64_t fired() const { return fired_; }

  /// When set, every fired timer records `advance_now - deadline` (how late
  /// the wheel ran it). Non-owning; the histogram must outlive the wheel or
  /// be detached with nullptr. Wheel and histogram live on the loop thread.
  void set_fire_drift_histogram(LatencyHistogram* h) { drift_hist_ = h; }

 protected:
  void cancel_timer(std::uint32_t slot, std::uint32_t gen) override {
    slots_.cancel(slot, gen);
  }
  bool timer_active(std::uint32_t slot, std::uint32_t gen) const override {
    return slots_.active(slot, gen);
  }

 private:
  struct Timer {
    TimePoint deadline;
    std::uint64_t seq;   // tie-break: FIFO among same-deadline timers
    std::uint32_t slot;  // TimerSlab::kNoSlot for post()ed timers
    EventFn fn;

    static bool earlier(const Timer& a, const Timer& b) {
      if (a.deadline != b.deadline) return a.deadline < b.deadline;
      return a.seq < b.seq;
    }
  };

  void push(TimePoint when, std::uint32_t slot, EventFn fn);

  EventHeap<Timer> queue_;
  TimerSlab slots_;
  std::uint64_t next_seq_ = 0;
  TimePoint last_advance_;
  std::uint64_t fired_ = 0;
  LatencyHistogram* drift_hist_ = nullptr;
};

}  // namespace marlin::realnet
