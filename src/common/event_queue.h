// The event-queue core every marlin::Scheduler (common/scheduler.h) drives:
// the legacy simulator (simnet/simulator.h), each shard of the partitioned
// engine (simnet/sharded.h) and the metal timers (realnet/timer_wheel.h)
// are thin layers over the two pieces here.
//
//  - EventHeap<Event>: a 4-ary min-heap over a flat vector. Relative to a
//    binary std::priority_queue its sift paths are half as deep, the
//    backing store is reused across events (no allocation once warm), and
//    sifts MOVE events through a hole instead of copying them, so a
//    callback that captured a payload is never duplicated on its way to
//    execution. Each engine keeps its own record and order: the record's
//    `static bool earlier(a, b)` must be a strict total order (unique
//    keys), so the pop order is a function of the keys alone, independent
//    of heap internals — which is what lets goldens pin it.
//  - TimerSlab: the generation-counted cancellation slots behind
//    TimerHandle's (slot, gen) protocol. Only schedule()d events take a
//    slot; post()ed events carry kNoSlot and no cancellation state at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace marlin {

template <typename Event>
class EventHeap {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const Event& top() const { return heap_.front(); }

  /// Only ever grows capacity.
  void reserve(std::size_t events) {
    if (heap_.capacity() < events) heap_.reserve(events);
  }

  void push(Event ev) {
    // Sift up with a hole. An event no earlier than its parent (the common
    // case: most events land after the head) stays where push_back put it;
    // otherwise it is held aside while parents move down, then placed once.
    std::size_t hole = heap_.size();
    heap_.push_back(std::move(ev));
    if (hole == 0) return;
    std::size_t parent = (hole - 1) / kArity;
    if (!Event::earlier(heap_[hole], heap_[parent])) return;
    Event moving = std::move(heap_[hole]);
    do {
      heap_[hole] = std::move(heap_[parent]);
      hole = parent;
      if (hole == 0) break;
      parent = (hole - 1) / kArity;
    } while (Event::earlier(moving, heap_[parent]));
    heap_[hole] = std::move(moving);
  }

  /// Removes and returns the earliest event. Precondition: !empty().
  Event pop() {
    Event top = std::move(heap_.front());
    Event last = std::move(heap_.back());
    heap_.pop_back();
    if (heap_.empty()) return top;
    // Sift down with a hole at the root, placing `last` at its final spot.
    std::size_t hole = 0;
    const std::size_t size = heap_.size();
    for (;;) {
      const std::size_t first = hole * kArity + 1;
      if (first >= size) break;
      const std::size_t limit = first + kArity < size ? first + kArity : size;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < limit; ++c) {
        if (Event::earlier(heap_[c], heap_[best])) best = c;
      }
      if (!Event::earlier(heap_[best], last)) break;
      heap_[hole] = std::move(heap_[best]);
      hole = best;
    }
    heap_[hole] = std::move(last);
    return top;
  }

 private:
  static constexpr std::size_t kArity = 4;
  std::vector<Event> heap_;
};

class TimerSlab {
 public:
  /// Slot of a post()ed event: never cancellable, always runs.
  static constexpr std::uint32_t kNoSlot = ~0u;

  /// Takes a slot for a newly scheduled event; its handle is
  /// (slot, gen(slot)).
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    slots_.push_back(Slot{});
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  std::uint32_t gen(std::uint32_t slot) const { return slots_[slot].gen; }

  /// Recycles the slot of an event leaving the queue (about to fire, or
  /// reaped as cancelled) and returns whether the event should run. The
  /// generation rule: a slot's gen bumps exactly here, so every handle
  /// minted for the event goes stale before the slot can be reused — a
  /// free slot's gen matches no outstanding handle.
  bool release(std::uint32_t slot) {
    if (slot == kNoSlot) return true;
    Slot& s = slots_[slot];
    const bool live = !s.cancelled;
    s.cancelled = false;
    ++s.gen;
    free_.push_back(slot);
    return live;
  }

  /// No-op for a stale handle (fired, reaped, or recycled slot).
  void cancel(std::uint32_t slot, std::uint32_t gen) {
    Slot& s = slots_[slot];
    if (s.gen == gen) s.cancelled = true;
  }

  bool active(std::uint32_t slot, std::uint32_t gen) const {
    const Slot& s = slots_[slot];
    return s.gen == gen && !s.cancelled;
  }

  /// The cancelled-head check: pops cancelled events off the front of
  /// `heap`, recycling their slots, so its top (if any) is live. Reaping
  /// never advances a clock.
  template <typename Event>
  void reap(EventHeap<Event>& heap) {
    while (!heap.empty() && heap.top().slot != kNoSlot &&
           slots_[heap.top().slot].cancelled) {
      release(heap.pop().slot);
    }
  }

  /// Only ever grows capacity.
  void reserve(std::size_t timers) {
    if (slots_.capacity() < timers) {
      slots_.reserve(timers);
      free_.reserve(timers);
    }
  }

 private:
  struct Slot {
    std::uint32_t gen = 0;
    bool cancelled = false;
  };

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace marlin
