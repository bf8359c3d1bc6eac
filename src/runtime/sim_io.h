// Simulation adapter for the shared hosts: a node on sim::Network whose
// protocol work runs on a SequentialProcessor. Each run() is one CPU task;
// the modeled charges it accumulates delay both the processor's next task
// and the task's outgoing frames, which are staged and handed to the
// network in one event when the charge has elapsed. Sends made outside a
// task (client requests) go to the network immediately.
#pragma once

#include <cassert>
#include <utility>
#include <vector>

#include "runtime/host_io.h"
#include "simnet/network.h"
#include "simnet/processor.h"

namespace marlin::runtime {

class SimIo final : public HostIo, public sim::NetworkNode {
 public:
  /// `sched` is the node's home scheduler: the shared simulator on the
  /// single-queue engine, its shard's clock on the partitioned one.
  SimIo(marlin::Scheduler& sched, sim::Network& net)
      : sched_(sched), net_(net), cpu_(sched) {}

  void attach(FrameHandler& host) override {
    host_ = &host;
    node_ = net_.add_node(this, &sched_);
  }
  TimePoint now() const override { return sched_.now(); }
  marlin::Scheduler& timers() override { return sched_; }

  void run(std::function<void()> task) override {
    cpu_.post([this, task = std::move(task)]() -> Duration {
      assert(!in_task_);
      in_task_ = true;
      pending_charge_ = Duration::zero();
      outbox_.clear();
      task();
      const Duration cost = pending_charge_;
      // Outputs leave the node when the CPU work completes.
      flush_outbox(sched_.now() + cost);
      in_task_ = false;
      return cost;
    });
  }

  void send(std::uint32_t to, Payload wire) override {
    if (in_task_) {
      outbox_.emplace_back(to, std::move(wire));
    } else {
      net_.send(node_, to, std::move(wire));
    }
  }

  void charge(Duration cpu) override { pending_charge_ += cpu; }
  bool models_cpu() const override { return true; }
  Duration charged() const override { return cpu_.total_busy(); }

  void on_message(sim::NodeId from, Payload payload) override {
    host_->on_message(from, std::move(payload));
  }

 private:
  void flush_outbox(TimePoint at) {
    if (outbox_.empty()) return;
    std::vector<std::pair<sim::NodeId, Payload>> pending;
    pending.swap(outbox_);
    sched_.post_at(at, [this, pending = std::move(pending)]() mutable {
      for (auto& [to, wire] : pending) net_.send(node_, to, std::move(wire));
    });
  }

  marlin::Scheduler& sched_;
  sim::Network& net_;
  sim::SequentialProcessor cpu_;
  FrameHandler* host_ = nullptr;
  sim::NodeId node_ = 0;
  // Charge and staged frames of the task currently executing.
  Duration pending_charge_;
  std::vector<std::pair<sim::NodeId, Payload>> outbox_;
  bool in_task_ = false;
};

}  // namespace marlin::runtime
