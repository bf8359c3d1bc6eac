// One marlin::Scheduler contract, checked against all three users of the
// shared event-queue core (common/event_queue.h): the legacy simulator, a
// node's facade on the sharded engine, and the metal timers. Per-engine
// behaviour (windows, shard clocks, the epoll loop) stays in simnet_test,
// sharded_test and realnet_test.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/scheduler.h"
#include "realnet/timer_wheel.h"
#include "simnet/sharded.h"
#include "simnet/simulator.h"

namespace marlin {
namespace {

TimePoint at_ms(std::int64_t ms) {
  return TimePoint::origin() + Duration::millis(ms);
}

// Each harness exposes the Scheduler under test and a way to move its clock
// to `t`, running everything due by then.
struct LegacyEngine {
  static constexpr const char* kName = "Legacy";
  static constexpr bool kMetal = false;
  sim::Simulator sim{1};
  Scheduler& sched() { return sim; }
  void run_until(TimePoint t) { sim.run_until(t); }
};

struct ShardedEngine {
  static constexpr const char* kName = "Sharded";
  static constexpr bool kMetal = false;
  static sim::ShardedSimulator::Config config() {
    sim::ShardedSimulator::Config cfg;
    cfg.shards = 2;
    cfg.workers = 1;
    cfg.lookahead = Duration::millis(1);
    return cfg;
  }
  sim::ShardedSimulator engine{config()};
  Scheduler& sched() { return *engine.node_scheduler(1); }
  void run_until(TimePoint t) { engine.run_until(t); }
};

struct MetalTimers {
  static constexpr const char* kName = "Metal";
  static constexpr bool kMetal = true;
  realnet::TimerWheel wheel;
  Scheduler& sched() { return wheel; }
  void run_until(TimePoint t) { wheel.advance(t); }
};

template <typename Engine>
class SchedulerContract : public ::testing::Test {
 protected:
  Engine engine_;
  Scheduler& sched() { return engine_.sched(); }
  void run_until(TimePoint t) { engine_.run_until(t); }
};

struct EngineName {
  template <typename Engine>
  static std::string GetName(int) {
    return Engine::kName;
  }
};

using Engines = ::testing::Types<LegacyEngine, ShardedEngine, MetalTimers>;
TYPED_TEST_SUITE(SchedulerContract, Engines, EngineName);

TYPED_TEST(SchedulerContract, StaleHandleCannotCancelRecycledSlot) {
  Scheduler& s = this->sched();
  int first = 0;
  int second = 0;
  TimerHandle stale = s.schedule_at(at_ms(1), [&] { ++first; });
  this->run_until(at_ms(2));
  ASSERT_EQ(first, 1);
  // The fired timer's slot is free, so this one takes it over.
  TimerHandle fresh = s.schedule_at(at_ms(3), [&] { ++second; });
  EXPECT_FALSE(stale.active());
  stale.cancel();
  EXPECT_TRUE(fresh.active());
  this->run_until(at_ms(4));
  EXPECT_EQ(second, 1);
}

TYPED_TEST(SchedulerContract, CancelAfterFireIsNoop) {
  Scheduler& s = this->sched();
  int fired = 0;
  TimerHandle h = s.schedule_at(at_ms(1), [&] { ++fired; });
  this->run_until(at_ms(2));
  ASSERT_EQ(fired, 1);
  h.cancel();
  h.cancel();
  EXPECT_FALSE(h.active());
  TimerHandle next = s.schedule_at(at_ms(3), [&] { fired += 10; });
  EXPECT_TRUE(next.active());
  this->run_until(at_ms(4));
  EXPECT_EQ(fired, 11);
}

TYPED_TEST(SchedulerContract, ActiveTracksTheTimerLifecycle) {
  Scheduler& s = this->sched();
  TimerHandle inert;
  EXPECT_FALSE(inert.active());

  bool cancelled_ran = false;
  TimerHandle cancelled =
      s.schedule_at(at_ms(5), [&] { cancelled_ran = true; });
  EXPECT_TRUE(cancelled.active());
  this->run_until(at_ms(4));
  EXPECT_TRUE(cancelled.active());  // armed, not yet due
  cancelled.cancel();
  EXPECT_FALSE(cancelled.active());

  bool fired_ran = false;
  TimerHandle fired = s.schedule_at(at_ms(6), [&] { fired_ran = true; });
  EXPECT_TRUE(fired.active());
  this->run_until(at_ms(6));
  EXPECT_FALSE(fired.active());
  EXPECT_TRUE(fired_ran);
  EXPECT_FALSE(cancelled_ran);
}

TYPED_TEST(SchedulerContract, SameInstantEventsFromOnePosterRunFifo) {
  Scheduler& s = this->sched();
  std::vector<int> order;
  // From outside any event, through both APIs...
  s.post_at(at_ms(1), [&] { order.push_back(0); });
  s.schedule_at(at_ms(1), [&] { order.push_back(1); });
  s.post_at(at_ms(1), [&] { order.push_back(2); });
  // ...and from inside one.
  s.post_at(at_ms(1), [&] {
    order.push_back(3);
    s.schedule_at(at_ms(2), [&] { order.push_back(4); });
    s.post_at(at_ms(2), [&] { order.push_back(5); });
    s.schedule_at(at_ms(2), [&] { order.push_back(6); });
  });
  this->run_until(at_ms(1));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  this->run_until(at_ms(2));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TYPED_TEST(SchedulerContract, TimerArmedInsideACallbackForNow) {
  // Sim engines run a timer armed for the current instant within the same
  // run. Metal collects its due set before running any callback, so even a
  // past deadline armed from a callback waits for the next advance().
  Scheduler& s = this->sched();
  bool inner = false;
  s.schedule_at(at_ms(5), [&] {
    const TimePoint when =
        TypeParam::kMetal ? s.now() - Duration::millis(1) : s.now();
    s.schedule_at(when, [&] { inner = true; });
  });
  this->run_until(at_ms(10));
  EXPECT_EQ(inner, !TypeParam::kMetal);
  this->run_until(at_ms(11));
  EXPECT_TRUE(inner);
}

}  // namespace
}  // namespace marlin
