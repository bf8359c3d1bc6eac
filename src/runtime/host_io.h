// The narrow I/O seam under the shared hosts. runtime::ReplicaHost and
// runtime::ClientHost hold every piece of host logic once (protocol
// construction, store recovery, deliver, write-ahead voting, the view-timer
// policy, send/broadcast, the client loop); a HostIo supplies the world
// they run in. There are exactly two implementations:
//
//  * runtime::SimIo (sim_io.h) — sim::Network plus a SequentialProcessor.
//    run() posts a virtual-CPU task; charges made inside it accumulate, and
//    frames sent inside it leave the node only when the task's full charge
//    has elapsed. That flush barrier is what makes write-ahead voting hold
//    in simulation, and its event order is what the golden traces pin.
//  * realnet::MetalIo (realnet/metal_io.h) — TcpTransport plus EventLoop.
//    run() is inline, charge() is a no-op (wall time is real), and
//    persist_state's KVStore write returns before the protocol resumes, so
//    every vote is durable before its frame reaches the transport.
#pragma once

#include <cstdint>
#include <functional>

#include "common/payload.h"
#include "common/scheduler.h"

namespace marlin::runtime {

/// The host side of the seam: where an adapter hands inbound frames.
class FrameHandler {
 public:
  virtual void on_message(std::uint32_t from, Payload payload) = 0;

 protected:
  ~FrameHandler() = default;
};

class HostIo {
 public:
  HostIo() = default;
  HostIo(const HostIo&) = delete;
  HostIo& operator=(const HostIo&) = delete;
  virtual ~HostIo() = default;

  /// Registers `host` as this node's receiver (sim: joins the network in
  /// node-id order; metal: installs the transport handler).
  virtual void attach(FrameHandler& host) = 0;

  /// The node's clock: virtual time in simulation, mono_now() on metal.
  virtual TimePoint now() const = 0;
  /// The node's timers (the home scheduler, or the loop's timer wheel).
  virtual marlin::Scheduler& timers() = 0;

  /// Runs one unit of protocol work (see the file comment).
  virtual void run(std::function<void()> task) = 0;
  /// Sends one frame to node `to` (replicas 0..n-1, then clients).
  virtual void send(std::uint32_t to, Payload wire) = 0;

  /// Charges modeled CPU time to the running task.
  virtual void charge(Duration cpu) = 0;
  /// True when charge() models time (sim); metal traces and metrics carry
  /// no modeled-cost fields.
  virtual bool models_cpu() const = 0;
  /// Total CPU time charged so far.
  virtual Duration charged() const = 0;

  /// Arms a timer `delay` from now() on timers(). Metal's wheel clock only
  /// advances once per loop iteration, so the deadline is taken from now().
  TimerHandle after(Duration delay, EventFn fn) {
    return timers().schedule_at(now() + delay, std::move(fn));
  }
};

}  // namespace marlin::runtime
