// Single-threaded epoll reactor: fd readiness, monotonic timers,
// and a thread-safe post() queue (eventfd wakeup). Each replica/client
// host owns one EventLoop on its own thread; everything that host does —
// consensus callbacks, timers, socket I/O — runs on that loop thread, so
// hosts need no internal locking (the same single-threaded discipline the
// simulator enforces globally, applied per node).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "common/histogram.h"
#include "common/sim_time.h"
#include "realnet/clock.h"
#include "realnet/timer_wheel.h"

namespace marlin::realnet {

/// Receiver of fd readiness events (a socket, a listener). Non-owning
/// registration: the handler must outlive its registration.
class FdHandler {
 public:
  virtual ~FdHandler() = default;
  /// `events` is the epoll bitmask (EPOLLIN | EPOLLOUT | ...).
  virtual void on_fd_event(int fd, std::uint32_t events) = 0;
};

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // -- fd registration (loop thread only) ------------------------------------
  void add_fd(int fd, std::uint32_t events, FdHandler* handler);
  void mod_fd(int fd, std::uint32_t events);
  void del_fd(int fd);

  // -- timers (loop thread only) ---------------------------------------------
  TimerHandle schedule_at(TimePoint when, EventFn fn) {
    return wheel_.schedule_at(when, std::move(fn));
  }
  TimerHandle schedule(Duration delay, EventFn fn) {
    return wheel_.schedule_at(mono_now() + delay, std::move(fn));
  }
  /// Fire-and-forget (no handle, no slab slot; mirrors Simulator::post).
  void post_after(Duration delay, EventFn fn) {
    wheel_.post_at(mono_now() + delay, std::move(fn));
  }

  /// The loop's timers as a backend-neutral Scheduler: lets
  /// hosts written against marlin::Scheduler& run on the real transport.
  marlin::Scheduler& scheduler() { return wheel_; }

  // -- cross-thread ----------------------------------------------------------
  /// Enqueues `fn` to run on the loop thread; safe from any thread and
  /// from within loop callbacks. The loop is woken if blocked in epoll.
  void post(std::function<void()> fn);

  /// Requests run() to return after the current iteration (any thread).
  void stop();

  // -- driving ---------------------------------------------------------------
  /// Runs until stop(). Must be called from the thread that owns the loop.
  void run();

  /// Single iteration with bounded wait; exposed for tests and for drain
  /// loops ("run until this condition or deadline").
  void run_once(Duration max_wait);

  /// True when called from the thread currently inside run()/run_once().
  bool on_loop_thread() const;

  /// Installed once per loop (loop thread only, or before it starts):
  /// invoked at the end of every run_once iteration, after fd handlers,
  /// timers, and posted tasks — the egress-coalescing point where the
  /// transport flushes everything the iteration queued, just before the
  /// loop blocks again. Pass nullptr to uninstall.
  void set_tick_handler(std::function<void()> fn) { tick_ = std::move(fn); }

  // -- instrumentation -------------------------------------------------------
  // Non-owning histogram hooks (loop-thread writes only): the caller wires
  // them to registry-owned histograms before the loop thread starts and
  // must keep them alive until the loop stops. Left unset, recording is
  // skipped entirely.
  /// Active time per run_once iteration (epoll return → iteration end),
  /// decimated 1-in-8 so long runs don't grow an unbounded sample vector.
  void set_iteration_histogram(LatencyHistogram* h) { iter_hist_ = h; }
  /// post() enqueue → callback run latency (eventfd wake-to-run).
  void set_wake_histogram(LatencyHistogram* h) { wake_hist_ = h; }
  /// Forwards to the timer wheel's fire-drift histogram.
  void set_timer_drift_histogram(LatencyHistogram* h) {
    wheel_.set_fire_drift_histogram(h);
  }

  std::uint64_t iterations() const { return iterations_; }
  std::uint64_t posted_tasks_run() const { return posted_run_; }
  std::uint64_t timers_fired() const { return wheel_.fired(); }

 private:
  struct PostedTask {
    TimePoint enqueued;
    std::function<void()> fn;
  };

  void drain_posted();
  void wake();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd
  TimerWheel wheel_;
  std::unordered_map<int, FdHandler*> handlers_;

  std::mutex posted_mu_;
  std::deque<PostedTask> posted_;
  std::function<void()> tick_;

  std::atomic<bool> stop_{false};
  std::atomic<const void*> loop_thread_{nullptr};

  LatencyHistogram* iter_hist_ = nullptr;
  LatencyHistogram* wake_hist_ = nullptr;
  std::uint64_t iterations_ = 0;
  std::uint64_t posted_run_ = 0;
};

}  // namespace marlin::realnet
