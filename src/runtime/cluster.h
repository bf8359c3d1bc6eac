// Full simulated deployment: n replicas + m closed-loop clients over one
// simnet Network, sharing a signature suite, with an optional declarative
// fault plan executed by a faults::FaultController. This is the testbed
// every integration test, example, and benchmark drives. Its config and
// metrology come from runtime::Deployment (deployment.h), shared with the
// real-socket realnet::RealCluster.
#pragma once

#include <memory>
#include <vector>

#include "faults/fault_controller.h"
#include "runtime/deployment.h"
#include "simnet/sharded.h"

namespace marlin::runtime {

class Cluster final : public Deployment {
 public:
  /// How a cluster binds to an event engine. The composition root (the
  /// ctor taking a concrete engine) fills this in; everything downstream —
  /// processes, network, faults — sees only Scheduler&.
  struct EngineBinding {
    /// Control lane: fault actions, trace clock, anything that must not
    /// race shard execution. On the single-queue engine this is the
    /// simulator itself.
    marlin::Scheduler* control = nullptr;
    /// Home scheduler per node id (replicas 0..n-1, clients n..n+m-1).
    std::function<marlin::Scheduler*(sim::NodeId)> node_sched;
    /// Setup-time randomness source; forked in a fixed order (network
    /// first, then clients in id order) that the golden traces pin.
    Rng* setup_rng = nullptr;
    /// Per-node trace sink override (shard-local sinks), or null for the
    /// shared config trace.
    std::function<obs::TraceSink*(sim::NodeId)> node_trace;
    /// Give each network sender its own rng stream (required when senders
    /// run concurrently on the partitioned engine).
    bool per_sender_net_rng = false;
  };

  Cluster(sim::Simulator& sim, ClusterConfig config);
  /// Partitioned-engine composition root: nodes bind to their home-shard
  /// schedulers and trace sinks, the control lane runs faults, network
  /// randomness splits per sender, and the shard heaps are pre-sized from
  /// the cluster's fanout. Requires engine.lookahead() <= net.one_way_delay
  /// (the conservative-window safety condition).
  Cluster(sim::ShardedSimulator& engine, ClusterConfig config);
  Cluster(const EngineBinding& engine, ClusterConfig config);

  /// Arms the fault plan, then starts all replicas, then all clients.
  void start();

  ReplicaHost& replica(ReplicaId i) { return *replicas_[i]; }
  const ReplicaHost& replica(ReplicaId i) const { return *replicas_[i]; }
  ClientHost& client(ClientId i) { return *clients_[i]; }
  sim::Network& network() { return *net_; }

  /// Crash-stop a replica (it neither sends nor receives from now on).
  /// Prefer expressing faults in the config's FaultPlan; these imperative
  /// hooks remain for interactive exploration.
  void crash_replica(ReplicaId i) { net_->set_node_down(i, true); }
  /// Crash-and-revive from disk: rebuilds replica i's protocol instance
  /// from its persisted consensus state (WAL replay + checkpoint) and
  /// reconnects it. With `wipe`, the disk is erased first (amnesia) — the
  /// replica rejoins with empty state and catches up via state transfer.
  /// On a recovery error (e.g. corrupted store) the replica stays down.
  Status restart_replica(ReplicaId i, bool wipe = false);
  /// Switches a replica's outbound wire behaviour (kHonest reverts).
  void set_byzantine(ReplicaId i, faults::ByzantineMode mode) {
    replicas_[i]->set_byzantine_mode(mode);
  }

  /// The controller executing this run's fault plan (always present; a
  /// fault-free cluster simply holds an empty plan).
  const faults::FaultController& faults() const { return *faults_; }

  /// The leader of the highest view any live replica is currently in.
  ReplicaId current_leader() const;
  ViewNumber max_view() const;

  /// Cluster-wide metrics snapshot: per-replica registries merged
  /// additively (gauges re-labeled "replica=N"), aggregate client latency
  /// ("client.latency"), and per-node / per-kind network traffic.
  void export_metrics(obs::MetricsRegistry& out) const;

 private:
  ReplicaHost* replica_host(ReplicaId id) const override {
    return replicas_[id].get();
  }
  ClientHost* client_host(ClientId id) const override {
    return clients_[id].get();
  }
  /// Network-down (crash-stopped) replicas are not held to agreement.
  bool skip_consistency(ReplicaId id) const override {
    return net_->is_down(static_cast<sim::NodeId>(id));
  }
  void build(const EngineBinding& engine);

  marlin::Scheduler* control_ = nullptr;
  std::function<marlin::Scheduler*(sim::NodeId)> sched_of_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<crypto::SignatureSuite> suite_;
  std::vector<std::unique_ptr<ReplicaHost>> replicas_;
  std::vector<std::unique_ptr<ClientHost>> clients_;
  std::unique_ptr<faults::FaultController> faults_;
};

}  // namespace marlin::runtime
