// Metal adapter for the shared hosts (runtime/host_io.h): the node's
// TcpTransport for frames and its EventLoop's timer wheel for timers.
// Protocol work, signature verification included, runs inline on the loop
// thread; wall time is real, so charges are dropped (the hosts still count
// them in metrics).
#pragma once

#include "realnet/clock.h"
#include "realnet/tcp_transport.h"
#include "runtime/host_io.h"

namespace marlin::realnet {

class MetalIo final : public runtime::HostIo {
 public:
  MetalIo(EventLoop& loop, TcpTransport& transport)
      : loop_(loop), transport_(transport) {}

  void attach(runtime::FrameHandler& host) override {
    transport_.set_handler([&host](std::uint32_t from, Payload payload) {
      host.on_message(from, std::move(payload));
    });
  }
  TimePoint now() const override { return mono_now(); }
  marlin::Scheduler& timers() override { return loop_.scheduler(); }
  void run(std::function<void()> task) override { task(); }
  void send(std::uint32_t to, Payload wire) override {
    transport_.send(to, std::move(wire));
  }
  void charge(Duration) override {}
  bool models_cpu() const override { return false; }
  Duration charged() const override { return Duration::zero(); }

 private:
  EventLoop& loop_;
  TcpTransport& transport_;
};

}  // namespace marlin::realnet
