#include "simnet/simulator.h"

#include <cassert>
#include <utility>

namespace marlin::sim {

void Simulator::push(TimePoint when, std::uint32_t slot, EventFn fn) {
  assert(when >= now_ && "cannot schedule into the past");
  queue_.push(Event{when, next_seq_++, slot, std::move(fn)});
}

TimerHandle Simulator::schedule_at(TimePoint when, EventFn fn) {
  const std::uint32_t slot = slots_.acquire();
  push(when, slot, std::move(fn));
  return make_handle(slot, slots_.gen(slot));
}

void Simulator::post_at(TimePoint when, EventFn fn) {
  push(when, TimerSlab::kNoSlot, std::move(fn));
}

void Simulator::run_head() {
  Event ev = queue_.pop();
  slots_.release(ev.slot);
  assert(ev.when >= now_);
  now_ = ev.when;
  ++executed_;
  ev.fn();
}

bool Simulator::step() {
  slots_.reap(queue_);
  if (queue_.empty()) return false;
  run_head();
  return true;
}

void Simulator::run_until(TimePoint deadline) {
  for (slots_.reap(queue_); !queue_.empty() && queue_.top().when <= deadline;
       slots_.reap(queue_)) {
    run_head();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
}

}  // namespace marlin::sim
