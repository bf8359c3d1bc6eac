#include "realnet/timer_wheel.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace marlin::realnet {

void TimerWheel::push(TimePoint when, std::uint32_t slot, EventFn fn) {
  queue_.push(Timer{std::max(when, last_advance_), next_seq_++, slot,
                    std::move(fn)});
}

TimerHandle TimerWheel::schedule_at(TimePoint when, EventFn fn) {
  const std::uint32_t slot = slots_.acquire();
  push(when, slot, std::move(fn));
  return make_handle(slot, slots_.gen(slot));
}

void TimerWheel::advance(TimePoint now) {
  if (now < last_advance_) now = last_advance_;
  last_advance_ = now;
  // Collect the due set before running any callback: a timer a callback
  // arms, even one already past due, waits for the next advance.
  std::vector<Timer> due;
  for (slots_.reap(queue_); !queue_.empty() && queue_.top().deadline <= now;
       slots_.reap(queue_)) {
    due.push_back(queue_.pop());
  }
  for (Timer& t : due) {
    // A callback earlier in this pass may have cancelled `t`.
    if (!slots_.release(t.slot)) continue;
    ++fired_;
    if (drift_hist_ != nullptr) drift_hist_->record(now - t.deadline);
    t.fn();
  }
}

std::int64_t TimerWheel::next_timeout_ns(TimePoint now) {
  slots_.reap(queue_);
  if (queue_.empty()) return -1;
  return std::max<std::int64_t>((queue_.top().deadline - now).as_nanos(), 0);
}

}  // namespace marlin::realnet
