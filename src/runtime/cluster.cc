#include "runtime/cluster.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "runtime/sim_io.h"

namespace marlin::runtime {

namespace {

/// Pre-sizes an engine's event heaps and timer slabs, split over `shards`
/// queues, from the cluster's fanout: a leader broadcast plus replies
/// keeps O(n) messages in flight per protocol phase, and clients add a
/// window each; 64 events/node absorbs several overlapping phases plus
/// CPU/storage charging events. Capacity only: pop order is unaffected.
template <typename Engine>
void reserve_for_fanout(Engine& engine, const ClusterConfig& config,
                        std::size_t shards) {
  const std::size_t nodes = 3 * config.f + 1 + config.clients.count;
  engine.reserve(nodes * 64 / shards + 256, nodes * 4 / shards + 64);
}

}  // namespace

Cluster::Cluster(sim::Simulator& sim, ClusterConfig config)
    : Deployment(std::move(config)) {
  EngineBinding engine;
  engine.control = &sim;
  engine.node_sched = [&sim](sim::NodeId) { return &sim; };
  engine.setup_rng = &sim.rng();
  reserve_for_fanout(sim, config_, 1);
  build(engine);
}

Cluster::Cluster(sim::ShardedSimulator& engine, ClusterConfig config)
    : Deployment(std::move(config)) {
  // Conservative-window safety: no message may arrive sooner than one
  // lookahead after it was sent.
  assert(engine.lookahead() <= config_.net.one_way_delay);
  EngineBinding binding;
  binding.control = &engine.control();
  binding.node_sched = [&engine](sim::NodeId id) {
    return engine.node_scheduler(id);
  };
  binding.setup_rng = &engine.rng();
  if (engine.tracing()) {
    binding.node_trace = [&engine](sim::NodeId id) {
      return engine.node_trace(id);
    };
    // Control-lane records (fault injections) go to the engine's own
    // barrier-phase sink unless the caller supplied one.
    if (config_.trace == nullptr) config_.trace = engine.control_trace();
  }
  binding.per_sender_net_rng = true;
  reserve_for_fanout(engine, config_, engine.shards());
  build(binding);
}

Cluster::Cluster(const EngineBinding& engine, ClusterConfig config)
    : Deployment(std::move(config)) {
  build(engine);
}

void Cluster::build(const EngineBinding& engine) {
  control_ = engine.control;
  sched_of_ = engine.node_sched;
  const std::uint32_t n = this->n();
  // Fork order (network stream first, client streams later, in id order)
  // is part of the determinism contract the golden traces pin.
  net_ = std::make_unique<sim::Network>(*control_, config_.net,
                                        engine.setup_rng->fork());
  if (config_.trace) {
    config_.trace->set_clock(
        [sched = control_] { return sched->now(); });
    net_->set_trace(config_.trace);
  }

  suite_ = make_cluster_suite(config_);

  for (ReplicaId r = 0; r < n; ++r) {
    ReplicaHostConfig rc = make_replica_config(config_, r);
    rc.trace = engine.node_trace ? engine.node_trace(r) : config_.trace;
    replicas_.push_back(std::make_unique<ReplicaHost>(
        std::make_unique<SimIo>(*sched_of_(r), *net_), *suite_, rc));
    assert(replicas_.back()->ok().is_ok());
    replicas_.back()->set_count_authenticators(config_.count_authenticators);
    if (engine.node_trace) net_->set_node_trace(r, engine.node_trace(r));
  }

  for (ClientId c = 0; c < config_.clients.count; ++c) {
    ClientHostConfig cc = make_client_config(config_, c);
    const sim::NodeId node = n + c;
    cc.trace = engine.node_trace ? engine.node_trace(node) : config_.trace;
    clients_.push_back(std::make_unique<ClientHost>(
        std::make_unique<SimIo>(*sched_of_(node), *net_), cc,
        engine.setup_rng->fork()));
    if (engine.node_trace) net_->set_node_trace(node, engine.node_trace(node));
  }

  if (engine.per_sender_net_rng) net_->split_rng_per_sender();

  faults::FaultHooks hooks;
  hooks.current_leader = [this] { return current_leader(); };
  hooks.max_view = [this] { return max_view(); };
  hooks.set_byzantine = [this](ReplicaId r, faults::ByzantineMode m) {
    set_byzantine(r, m);
  };
  hooks.restart_replica = [this](ReplicaId r, bool wipe) {
    return restart_replica(r, wipe);
  };
  faults_ = std::make_unique<faults::FaultController>(
      *control_, *net_, config_.faults, std::move(hooks), n, config_.trace);
}

void Cluster::start() {
  faults_->arm();
  for (auto& r : replicas_) r->start();
  // Each client start is posted on the client's home scheduler so it runs
  // on the client's shard (the global queue, when there is only one).
  for (ClientId c = 0; c < client_count(); ++c) {
    ClientHost* client = clients_[c].get();
    sched_of_(n() + c)->post(client_start_delay(c),
                             [client] { client->start(); });
  }
}

Status Cluster::restart_replica(ReplicaId i, bool wipe) {
  Status s = replicas_[i]->restart(wipe);
  // Reconnect only on success: a replica that cannot recover its store
  // stays crash-stopped instead of rejoining with partial state.
  if (s.is_ok()) net_->set_node_down(i, false);
  return s;
}

ReplicaId Cluster::current_leader() const {
  return static_cast<ReplicaId>(max_view() % n());
}

ViewNumber Cluster::max_view() const {
  ViewNumber v = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (net_->is_down(static_cast<sim::NodeId>(i))) continue;
    v = std::max(v, replicas_[i]->current_view());
  }
  return v;
}

void Cluster::export_metrics(obs::MetricsRegistry& out) const {
  char label[32];
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    merge_replica_metrics(out, replicas_[r]->metrics(),
                          static_cast<ReplicaId>(r));
    std::snprintf(label, sizeof label, "replica=%zu", r);
    out.counter("replica.authenticators_sent", label) =
        replicas_[r]->traffic().authenticators_sent;
  }
  for (const auto& c : clients_) {
    out.latency("client.latency").merge_from(c->latency());
  }
  net_->export_metrics(out);
}

}  // namespace marlin::runtime
