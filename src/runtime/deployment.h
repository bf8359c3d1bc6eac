// One deployment description and one metrology over both backends: the
// simulated runtime::Cluster and the real-socket realnet::RealCluster
// derive from Deployment, which holds the ClusterConfig and has the only
// body of every measured number — throughput, latency percentiles,
// completed counts, the safety and consistency probes — so a sim row and a
// metal row of the same experiment mean the same thing. A backend supplies
// only host lookup by id and which replicas the consistency check skips.
#pragma once

#include <memory>

#include "faults/fault_plan.h"
#include "runtime/client_host.h"
#include "runtime/replica_host.h"
#include "simnet/network.h"

namespace marlin::runtime {

/// Protocol-level knobs applied uniformly to every replica.
struct ConsensusConfig {
  ProtocolKind protocol = ProtocolKind::kMarlin;
  PacemakerConfig pacemaker;
  std::size_t max_batch_ops = 4000;
  bool pipelined = true;
  bool allow_empty_blocks = false;
  bool disable_happy_path = false;
  bool use_threshold_sigs = false;
  std::uint64_t checkpoint_interval = 5000;
  std::size_t reply_size = 150;
  /// TEST ONLY: disable the write-ahead-voting durability hook on every
  /// replica (simulates a broken build; the cross-restart safety oracle
  /// must catch the resulting double votes).
  bool disable_persistence = false;
};

/// Workload knobs applied uniformly to every closed-loop client.
struct ClientConfig {
  std::uint32_t count = 8;
  std::uint32_t window = 16;
  std::size_t payload_size = 150;
  Duration retransmit_timeout = Duration::seconds(4);
  /// Stop issuing new requests after this many per client (0 = unlimited).
  std::uint64_t max_requests = 0;
};

struct ClusterConfig {
  std::uint32_t f = 1;
  std::uint64_t seed = 42;

  ConsensusConfig consensus;
  ClientConfig clients;
  sim::NetConfig net;
  crypto::CostModel crypto_costs;
  storage::CostModel storage_costs;

  /// Declarative fault timeline, armed at start(). Empty = fault-free run.
  faults::FaultPlan faults;

  /// Shared protocol event trace for all replicas, the network, and
  /// storage. The cluster binds its clock to the simulator. Optional.
  obs::TraceSink* trace = nullptr;
  /// Count outgoing authenticators per replica (decodes every send; used
  /// by the Table I bench and metric snapshots that cross-check it).
  bool count_authenticators = false;
};

/// Host config of replica `id`: the protocol, pacemaker, cost and reply
/// knobs of `config`. Callers add what is per-backend: the trace sink and,
/// on metal, the data dir and sync_writes.
ReplicaHostConfig make_replica_config(const ClusterConfig& config,
                                      ReplicaId id);
/// Host config of client `id` (trace sink left to the caller).
ClientHostConfig make_client_config(const ClusterConfig& config, ClientId id);
/// The cluster's signature suite, seeded from config.seed. Suites built
/// from the same seed are identical.
std::unique_ptr<crypto::SignatureSuite> make_cluster_suite(
    const ClusterConfig& config);
/// Adds replica `id`'s registry into a cluster snapshot: counters add,
/// histograms pool, gauges keep the max — and are re-exported under
/// "replica=<id>", since summed gauges are meaningless.
void merge_replica_metrics(obs::MetricsRegistry& out,
                           const obs::MetricsRegistry& replica, ReplicaId id);

/// n = 3f+1 replicas and config.clients.count closed-loop clients. On
/// metal, only total_completed() is safe while the cluster runs; every
/// other accessor reads node state and is safe only while it is stopped.
class Deployment {
 public:
  explicit Deployment(ClusterConfig config) : config_(std::move(config)) {}
  virtual ~Deployment() = default;

  std::uint32_t n() const { return 3 * config_.f + 1; }
  std::uint32_t f() const { return config_.f; }
  std::uint32_t client_count() const { return config_.clients.count; }
  const ClusterConfig& config() const { return config_; }

  /// Client c starts this long after the replicas: 5 ms lets them enter
  /// view 1, and a 41 ms stagger keeps synchronized closed-loop clients
  /// from refilling in lockstep "generations" that quantize throughput.
  static Duration client_start_delay(ClientId c) {
    return Duration::millis(5) + Duration::millis(41) * std::int64_t{c};
  }

  /// Sets the window on every client and replica counter (before start()).
  void set_measurement_window(TimePoint start, TimePoint end);
  /// Completed (f+1-acked) operations per second inside the window.
  double client_throughput() const;
  /// Pooled client latency percentile / mean (ms).
  double latency_ms(double percentile) const;
  double mean_latency_ms() const;
  /// Operations completed since start, window or not. Safe while running.
  std::uint64_t total_completed() const;
  /// Operations completed inside the measurement window.
  std::uint64_t completed_in_window() const;
  /// Any replica flagged a local safety violation.
  bool any_safety_violation() const;
  /// The checked replicas agree on committed prefixes: for every pair, the
  /// lower committed hash is on the higher one's chain.
  bool committed_heights_consistent() const;
  /// Lowest committed height over the present replicas (0 if none).
  Height min_committed_height() const;

 protected:
  /// The backend's hosts by id, or null when the host is absent (a metal
  /// replica that failed to build or relaunch).
  virtual ReplicaHost* replica_host(ReplicaId id) const = 0;
  virtual ClientHost* client_host(ClientId id) const = 0;
  /// Replicas committed_heights_consistent() leaves out. None by default:
  /// a stopped or killed metal replica's final state stays readable.
  virtual bool skip_consistency(ReplicaId /*id*/) const { return false; }

  ClusterConfig config_;

 private:
  LatencyHistogram merged_latency() const;
};

}  // namespace marlin::runtime
