// Deterministic discrete-event simulator: a virtual clock plus an ordered
// event queue. Everything in the testbed (network transmission, CPU
// charging, protocol timers) is an event here, so whole cluster runs replay
// bit-identically from a seed.
//
// Simulator is the single-queue user of the shared event-queue core
// (common/event_queue.h): one EventHeap ordered by the strict (when, seq)
// total order the golden traces pin, and one TimerSlab for schedule()d
// events. post and schedule share the seq counter, so same-instant events
// run in submission order whichever API queued them. The engine is
// allocation-lean (see docs/PERFORMANCE.md): post()ed events carry no
// cancellation state, and callbacks live in a small-buffer EventFn, so
// steady-state posting allocates nothing.
//
// The sharded engine (simnet/sharded.h) and the metal timers
// (realnet/timer_wheel.h) drive the same core under their own orders;
// hosts written against marlin::Scheduler& run unchanged on all three.
#pragma once

#include <cstdint>

#include "common/event_fn.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "common/scheduler.h"
#include "common/sim_time.h"

namespace marlin::sim {

/// Scheduled-event handles are the shared generation-counted kind; the
/// alias keeps the historical sim::TimerHandle spelling working.
using TimerHandle = marlin::TimerHandle;

class Simulator final : public marlin::Scheduler {
 public:
  explicit Simulator(std::uint64_t seed) : rng_(seed) {}

  TimePoint now() const override { return now_; }
  Rng& rng() { return rng_; }

  /// schedule()/post() (delay-relative, negative clamps to zero) are
  /// inherited from Scheduler and funnel into the two overrides below.
  TimerHandle schedule_at(TimePoint when, EventFn fn) override;

  /// Fire-and-forget scheduling: no cancellation handle, no slab slot, and
  /// (for inline-storable callbacks) no allocation at all.
  void post_at(TimePoint when, EventFn fn) override;

  /// Pre-sizes the event heap and cancellation slab so steady state never
  /// grows them in the hot loop. Sizing heuristic lives with the caller
  /// (Cluster knows n and fanout); extra calls only ever grow capacity.
  void reserve(std::size_t events, std::size_t timers) {
    queue_.reserve(events);
    slots_.reserve(timers);
  }

  /// Runs the earliest pending event; returns false when the queue is empty.
  bool step();

  /// Runs events until the clock would pass `deadline` (inclusive); events
  /// scheduled exactly at the deadline do run.
  void run_until(TimePoint deadline);
  void run_for(Duration d) { run_until(now_ + d); }

  /// Drains the queue completely. Guard against livelock with max_events.
  void run(std::uint64_t max_events = ~0ull);

  std::uint64_t events_executed() const { return executed_; }
  std::size_t pending_events() const { return queue_.size(); }

 protected:
  void cancel_timer(std::uint32_t slot, std::uint32_t gen) override {
    slots_.cancel(slot, gen);
  }
  bool timer_active(std::uint32_t slot, std::uint32_t gen) const override {
    return slots_.active(slot, gen);
  }

 private:
  struct Event {
    TimePoint when;
    std::uint64_t seq;   // tie-break: FIFO among same-time events
    std::uint32_t slot;  // TimerSlab::kNoSlot for post()ed events
    EventFn fn;

    /// Strict (when, seq) order: both keys combined are unique.
    static bool earlier(const Event& a, const Event& b) {
      if (a.when != b.when) return a.when < b.when;
      return a.seq < b.seq;
    }
  };

  void push(TimePoint when, std::uint32_t slot, EventFn fn);
  /// Pops and runs the head. Precondition: reaped and non-empty.
  void run_head();

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  EventHeap<Event> queue_;
  TimerSlab slots_;
  Rng rng_;
};

}  // namespace marlin::sim
