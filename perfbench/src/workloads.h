// The benchmark's workloads. Each one turns the seed into the ClusterConfig
// the program receives; nothing else about a run depends on the seed.
#pragma once

#include <cstdint>

#include "bench.h"
#include "runtime/cluster.h"

namespace perfbench {

/// One simulated workload: its cluster and the virtual schedule of an
/// episode (one freshly built cluster run to `horizon`).
struct SimSpec {
  marlin::runtime::ClusterConfig config;
  /// Virtual length of one episode.
  marlin::Duration horizon;
  /// Latency samples are taken from completions after this point.
  marlin::Duration warmup;
  /// Plan quiesce point; liveness is checked from here (faulty plans only).
  marlin::Duration quiesce;
  /// Floor on client ops committed per episode.
  std::uint64_t min_ops = 0;
};

/// n=100 on the paper's testbed model (40 ms, 200 Mbps links, 1 Gbps NICs,
/// ECDSA-cost crypto), non-pipelined, batch 32000, 32 clients x 250.
SimSpec sim_paper_n100(std::uint64_t seed);

/// n=4 on a localhost-class model with a leader restart from disk and a
/// follower disk wipe; checkpoints fire during the run.
SimSpec sim_lan_n4_faults(std::uint64_t seed);

/// The fault-free n=4 LAN description: the base of sim-lan-n4-faults and
/// the whole of its metal twin.
marlin::runtime::ClusterConfig lan_n4_config(std::uint64_t seed);

/// Runs a sim workload for `args.seconds` and fills `out`.
void run_sim(const Args& args, const SimSpec& spec, RunResult& out);

/// Runs the fault-free LAN description on realnet::RealCluster over
/// 127.0.0.1 TCP for `seconds` and adds its realnet.* and metal.* per-layer
/// metrics and checks to `out` (the metal twin of sim-lan-n4-faults).
void run_metal_twin(const Args& args, double seconds, RunResult& out);

}  // namespace perfbench
