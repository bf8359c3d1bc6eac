// Metal adapter for the shared hosts (runtime/host_io.h): the node's
// TcpTransport for frames, its EventLoop's timer wheel for timers, and
// optionally a VerifyPool for off-loop signature pre-verification.
// Protocol work runs inline on the loop thread; wall time is real, so
// charges are dropped (the hosts still count them in metrics).
#pragma once

#include "realnet/clock.h"
#include "realnet/tcp_transport.h"
#include "realnet/verify_pool.h"
#include "runtime/host_io.h"

namespace marlin::realnet {

class MetalIo final : public runtime::HostIo {
 public:
  /// `verify_pool` null (the default) verifies inline on the loop thread.
  MetalIo(EventLoop& loop, TcpTransport& transport,
          VerifyPool* verify_pool = nullptr)
      : loop_(loop), transport_(transport), verify_pool_(verify_pool) {}

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
  common::VerifyExecutor& verifier() override {
    if (verify_pool_ != nullptr) return *verify_pool_;
    return common::InlineVerifyExecutor::instance();
  }

 private:
  EventLoop& loop_;
  TcpTransport& transport_;
  VerifyPool* verify_pool_;
};

}  // namespace marlin::realnet
