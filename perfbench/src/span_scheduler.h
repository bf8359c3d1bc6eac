// Outside-in tracing for the simulated workloads. A SpanScheduler is the
// marlin::Scheduler a node is bound to in a traced run: it forwards every
// post/schedule to the real engine unchanged and wraps the callback in a
// wall-clock span labelled with the posting node. Virtual time, event order
// and handles all come from the engine, so a traced run commits exactly
// what an untraced run with the same seed commits (the benchmark checks
// this through the commit digest).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/payload.h"
#include "common/scheduler.h"

namespace perfbench {

/// What a span's node was doing when its callback ran.
enum class Role : std::uint8_t { kControl, kLeader, kFollower, kClient };
inline constexpr std::size_t kRoleCount = 4;
const char* role_name(Role r);

/// Node id used for the control lane (faults, network-wide timers).
inline constexpr std::uint32_t kControlNode = 0xffffffffu;

/// Keeps spans in memory: per-role totals for every span, plus the first
/// `keep` spans verbatim for writing out once the run is over.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t keep) : keep_(keep) { kept_.reserve(keep); }

  /// Maps a node to its role at the time its callback runs.
  void set_classifier(std::function<Role(std::uint32_t node)> classify) {
    classify_ = std::move(classify);
  }

  void record(std::uint32_t node, std::uint64_t start_ns, std::uint64_t end_ns);

  std::uint64_t busy_ns(Role r) const {
    return busy_[static_cast<std::size_t>(r)];
  }
  std::uint64_t total_busy_ns() const;

  /// Callbacks wrapped so far; each wrap costs one heap allocation, which
  /// the benchmark subtracts from the program's allocation counts.
  void note_wrap() { ++wraps_; }
  std::uint64_t wraps() const { return wraps_; }

  /// Writes the kept spans as CSV (node,role,start_ns,duration_ns).
  bool write_csv(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t node;
    Role role;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
  };

  std::size_t keep_;
  std::vector<Span> kept_;
  std::array<std::uint64_t, kRoleCount> busy_{};
  std::uint64_t wraps_ = 0;
  std::function<Role(std::uint32_t)> classify_;
};

class SpanScheduler final : public marlin::Scheduler {
 public:
  SpanScheduler(marlin::Scheduler& inner, SpanRecorder& recorder,
                std::uint32_t node)
      : inner_(inner), recorder_(recorder), node_(node) {}
  SpanScheduler(const SpanScheduler&) = delete;
  SpanScheduler& operator=(const SpanScheduler&) = delete;

  marlin::TimePoint now() const override { return inner_.now(); }
  void post_at(marlin::TimePoint when, marlin::EventFn fn) override {
    inner_.post_at(when, wrap(std::move(fn)));
  }
  marlin::TimerHandle schedule_at(marlin::TimePoint when,
                                  marlin::EventFn fn) override {
    return inner_.schedule_at(when, wrap(std::move(fn)));
  }

 protected:
  // Handles are minted by the inner engine and point at it, so these are
  // never reached through a SpanScheduler.
  void cancel_timer(std::uint32_t, std::uint32_t) override {}
  bool timer_active(std::uint32_t, std::uint32_t) const override {
    return false;
  }

 private:
  marlin::EventFn wrap(marlin::EventFn fn);

  marlin::Scheduler& inner_;
  SpanRecorder& recorder_;
  std::uint32_t node_;
};

/// Samples delivered payloads (installed through
/// sim::Network::set_delivery_probe) for the decode-cost replay: counts
/// every delivery per message kind and keeps a strided sample of each.
class DeliverySampler {
 public:
  static constexpr std::size_t kKinds = 256;

  explicit DeliverySampler(std::size_t per_kind, std::uint64_t stride)
      : per_kind_(per_kind), stride_(stride) {}

  void observe(const marlin::Payload& p);

  std::uint64_t delivered(std::size_t kind) const { return seen_[kind]; }
  const std::vector<marlin::Payload>& samples(std::size_t kind) const {
    return samples_[kind];
  }

 private:
  std::size_t per_kind_;
  std::uint64_t stride_;
  std::array<std::uint64_t, kKinds> seen_{};
  std::array<std::vector<marlin::Payload>, kKinds> samples_;
};

}  // namespace perfbench
