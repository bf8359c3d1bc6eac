// The only place the benchmark names a concrete event engine. Everything
// else drives the cluster through runtime::Cluster and marlin::Scheduler,
// so an engine refactor edits this file alone.
#pragma once

#include <cstdint>
#include <memory>

#include "runtime/cluster.h"
#include "simnet/simulator.h"

namespace perfbench {

class Engine {
 public:
  explicit Engine(std::uint64_t seed) : sim_(seed) {}

  marlin::Scheduler& scheduler() { return sim_; }
  marlin::Rng& setup_rng() { return sim_.rng(); }
  marlin::TimePoint now() const { return sim_.now(); }
  void run_until(marlin::TimePoint t) { sim_.run_until(t); }
  std::uint64_t events_executed() const { return sim_.events_executed(); }

  /// The engine's own composition root (untraced runs).
  std::unique_ptr<marlin::runtime::Cluster> cluster(
      marlin::runtime::ClusterConfig config) {
    return std::make_unique<marlin::runtime::Cluster>(sim_, std::move(config));
  }

  /// Builds through the engine-neutral EngineBinding seam with caller
  /// supplied per-node schedulers (traced runs). Pre-sizes the queue the
  /// way the engine's composition root does, so both paths allocate alike.
  std::unique_ptr<marlin::runtime::Cluster> cluster(
      marlin::runtime::Cluster::EngineBinding binding,
      marlin::runtime::ClusterConfig config) {
    const std::size_t nodes = 3 * config.f + 1 + config.clients.count;
    sim_.reserve(nodes * 64 + 256, nodes * 4 + 64);
    binding.setup_rng = &sim_.rng();
    return std::make_unique<marlin::runtime::Cluster>(binding,
                                                      std::move(config));
  }

 private:
  marlin::sim::Simulator sim_;
};

}  // namespace perfbench
