#include "runtime/deployment.h"

#include <algorithm>
#include <cstdio>

namespace marlin::runtime {

// ---------------------------------------------------------------------------
// Metrology
// ---------------------------------------------------------------------------

void Deployment::set_measurement_window(TimePoint start, TimePoint end) {
  for (ClientId c = 0; c < client_count(); ++c) {
    if (ClientHost* h = client_host(c)) h->completed().set_window(start, end);
  }
  for (ReplicaId r = 0; r < n(); ++r) {
    if (ReplicaHost* h = replica_host(r)) {
      h->committed_ops().set_window(start, end);
    }
  }
}

double Deployment::client_throughput() const {
  double total = 0;
  for (ClientId c = 0; c < client_count(); ++c) {
    if (ClientHost* h = client_host(c)) {
      total += h->completed().rate_per_second();
    }
  }
  return total;
}

LatencyHistogram Deployment::merged_latency() const {
  LatencyHistogram merged;
  for (ClientId c = 0; c < client_count(); ++c) {
    if (ClientHost* h = client_host(c)) merged.merge_from(h->latency());
  }
  return merged;
}

double Deployment::latency_ms(double percentile) const {
  return merged_latency().percentile(percentile).as_millis_f();
}

double Deployment::mean_latency_ms() const {
  return merged_latency().mean().as_millis_f();
}

std::uint64_t Deployment::total_completed() const {
  std::uint64_t total = 0;
  for (ClientId c = 0; c < client_count(); ++c) {
    if (const ClientHost* h = client_host(c)) total += h->completed_total();
  }
  return total;
}

std::uint64_t Deployment::completed_in_window() const {
  std::uint64_t total = 0;
  for (ClientId c = 0; c < client_count(); ++c) {
    if (ClientHost* h = client_host(c)) total += h->completed().in_window();
  }
  return total;
}

bool Deployment::any_safety_violation() const {
  for (ReplicaId r = 0; r < n(); ++r) {
    const ReplicaHost* h = replica_host(r);
    if (h != nullptr && h->protocol().safety_violated()) return true;
  }
  return false;
}

bool Deployment::committed_heights_consistent() const {
  std::vector<const consensus::ReplicaBase*> checked;
  for (ReplicaId r = 0; r < n(); ++r) {
    const ReplicaHost* h = replica_host(r);
    if (h != nullptr && !skip_consistency(r)) checked.push_back(&h->protocol());
  }
  for (std::size_t i = 0; i < checked.size(); ++i) {
    for (std::size_t j = i + 1; j < checked.size(); ++j) {
      const auto& a = *checked[i];
      const auto& b = *checked[j];
      const auto& lo = a.committed_height() <= b.committed_height() ? a : b;
      const auto& hi = a.committed_height() <= b.committed_height() ? b : a;
      if (lo.committed_height() == 0) continue;
      if (!hi.store().extends(hi.committed_hash(), lo.committed_hash())) {
        return false;
      }
    }
  }
  return true;
}

Height Deployment::min_committed_height() const {
  Height min = 0;
  bool first = true;
  for (ReplicaId r = 0; r < n(); ++r) {
    const ReplicaHost* h = replica_host(r);
    if (h == nullptr) continue;
    const Height height = h->protocol().committed_height();
    min = first ? height : std::min(min, height);
    first = false;
  }
  return min;
}

// ---------------------------------------------------------------------------
// One config mapping for both backends
// ---------------------------------------------------------------------------

ReplicaHostConfig make_replica_config(const ClusterConfig& config,
                                      ReplicaId id) {
  const ConsensusConfig& cons = config.consensus;
  ReplicaHostConfig rc;
  rc.replica.id = id;
  rc.replica.quorum = QuorumParams::for_f(config.f);
  rc.replica.max_batch_ops = cons.max_batch_ops;
  rc.replica.pipelined = cons.pipelined;
  rc.replica.allow_empty_blocks = cons.allow_empty_blocks;
  rc.replica.disable_happy_path = cons.disable_happy_path;
  rc.replica.use_threshold_sigs = cons.use_threshold_sigs;
  rc.protocol = cons.protocol;
  rc.crypto_costs = config.crypto_costs;
  rc.storage_costs = config.storage_costs;
  rc.pacemaker = cons.pacemaker;
  rc.checkpoint_interval = cons.checkpoint_interval;
  rc.reply_size = cons.reply_size;
  rc.disable_persistence = cons.disable_persistence;
  return rc;
}

ClientHostConfig make_client_config(const ClusterConfig& config, ClientId id) {
  ClientHostConfig cc;
  cc.id = id;
  cc.quorum = QuorumParams::for_f(config.f);
  cc.window = config.clients.window;
  cc.payload_size = config.clients.payload_size;
  cc.retransmit_timeout = config.clients.retransmit_timeout;
  cc.max_requests = config.clients.max_requests;
  return cc;
}

std::unique_ptr<crypto::SignatureSuite> make_cluster_suite(
    const ClusterConfig& config) {
  Bytes seed_bytes(8);
  for (int i = 0; i < 8; ++i) {
    seed_bytes[i] = static_cast<std::uint8_t>(config.seed >> (8 * i));
  }
  return crypto::make_fast_suite(3 * config.f + 1, seed_bytes);
}

void merge_replica_metrics(obs::MetricsRegistry& out,
                           const obs::MetricsRegistry& replica, ReplicaId id) {
  out.merge_from(replica);
  char label[32];
  std::snprintf(label, sizeof label, "replica=%u", id);
  for (const auto& [key, value] : replica.gauges()) {
    out.gauge(key.name, label) = value;
  }
}

}  // namespace marlin::runtime
