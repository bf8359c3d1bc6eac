// Wires a consensus protocol instance into the simulated world: network
// node, single-threaded CPU with the crypto/storage cost models, KV-store
// persistence with periodic checkpointing, pacemaker timers, client
// replies, and metrology counters. One instance per replica.
#pragma once

#include <array>
#include <memory>

#include "common/histogram.h"
#include "consensus/hotstuff.h"
#include "faults/byzantine.h"
#include "consensus/marlin.h"
#include "crypto/cost_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/pacemaker.h"
#include "simnet/network.h"
#include "simnet/processor.h"
#include "storage/cost_model.h"
#include "storage/kvstore.h"

namespace marlin::runtime {

enum class ProtocolKind { kMarlin, kHotStuff };

struct ReplicaProcessConfig {
  consensus::ReplicaConfig replica;
  ProtocolKind protocol = ProtocolKind::kMarlin;
  crypto::CostModel crypto_costs;
  storage::CostModel storage_costs;
  PacemakerConfig pacemaker;
  /// Checkpoint (compaction / GC) every this many committed blocks — the
  /// paper uses 5000.
  std::uint64_t checkpoint_interval = 5000;
  /// Reply wire bytes charged per committed request (paper: 150).
  std::size_t reply_size = 150;
  /// Node id of client #0; client c lives at node client_base + c.
  sim::NodeId client_base = 0;
  /// Shared event trace (usually the cluster's); nullptr disables tracing.
  obs::TraceSink* trace = nullptr;
  /// TEST ONLY: skip the write-ahead-voting flush. Simulates a broken build
  /// that forgets durability — the cross-restart safety oracle must catch
  /// the resulting double votes. Never enable outside tests.
  bool disable_persistence = false;
};

/// Outgoing-authenticator counter (Table I instrumentation). Per-kind
/// message/byte breakdowns live in sim::NodeNetStats — the network counts
/// every frame once at the wire instead of a parallel path here.
struct TrafficStats {
  std::uint64_t authenticators_sent = 0;

  void reset() { *this = TrafficStats{}; }
};

class ReplicaProcess final : public sim::NetworkNode,
                             public consensus::ProtocolEnv {
 public:
  /// `sched` is the replica's home scheduler: the shared simulator on the
  /// single-queue engine, its shard's clock on the partitioned one.
  ReplicaProcess(marlin::Scheduler& sched, sim::Network& net,
                 const crypto::SignatureSuite& suite,
                 ReplicaProcessConfig config);

  /// Registers with the network; must be called for all replicas (ids in
  /// order) before start().
  sim::NodeId attach();
  void start();

  /// Crash-recovery: destroys the protocol instance (txpool, vote
  /// collectors, QC caches — all volatile state), drops the outbox and
  /// timers, resets the pacemaker, reopens the DB (WAL replay +
  /// checkpoint), and reconstructs the protocol from the persisted
  /// consensus state. With `wipe` the disk is lost too (amnesia): the
  /// replica restarts from genesis state and must catch up via state
  /// transfer. Returns kCorruption et al. if the store fails to reopen,
  /// in which case the replica stays dead.
  Status restart(bool wipe);

  // -- NetworkNode -----------------------------------------------------------
  void on_message(sim::NodeId from, Payload payload) override;

  // -- ProtocolEnv -----------------------------------------------------------
  void send(ReplicaId to, const types::Envelope& env) override;
  void broadcast(const types::Envelope& env) override;
  void deliver(const types::Block& block,
               const std::vector<types::Operation>& executable) override;
  void entered_view(ViewNumber v) override;
  void progressed() override;
  void persist_state(const consensus::PersistentState& state) override;
  obs::TraceSink* trace_sink() override { return config_.trace; }
  marlin::Scheduler* scheduler() override { return &sim_; }
  TimePoint now() const override { return sim_.now(); }
  void charge_signs(std::uint32_t count) override;
  void charge_verifies(std::uint32_t count) override;
  void charge_hash_bytes(std::size_t bytes) override;
  void charge_pairings(std::uint32_t count) override;
  void charge_threshold_signs(std::uint32_t count) override;
  void charge_combine_shares(std::uint32_t count) override;

  // -- accessors / metrology -------------------------------------------------
  consensus::ReplicaBase& protocol() { return *protocol_; }
  const consensus::ReplicaBase& protocol() const { return *protocol_; }
  consensus::MarlinReplica* marlin();
  consensus::HotStuffReplica* hotstuff();

  WindowedCounter& committed_ops() { return committed_ops_; }
  const TrafficStats& traffic() const { return traffic_; }
  void reset_traffic() { traffic_.reset(); }

  /// Per-replica metrics (crypto charge counters, commit counters,
  /// storage gauges). Cluster::export_metrics aggregates these.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Enable per-authenticator counting (decodes outgoing messages; used by
  /// the Table I bench only).
  void set_count_authenticators(bool on) { count_authenticators_ = on; }

  /// Routes every outgoing envelope through a faults::ByzantineBox from now
  /// on (kHonest reverts). The local state machine stays honest — only the
  /// wire behaviour changes.
  void set_byzantine_mode(faults::ByzantineMode mode) {
    byzantine_.set_mode(mode);
  }
  faults::ByzantineMode byzantine_mode() const { return byzantine_.mode(); }
  const faults::ByzantineBox& byzantine() const { return byzantine_; }

  ViewNumber current_view() const { return protocol_->current_view(); }
  std::uint64_t checkpoints_run() const { return checkpoints_run_; }
  std::uint64_t restarts() const { return restarts_; }
  /// The replica's storage environment. Recovery tests reach through this
  /// to corrupt the on-disk state (torn WAL tails, flipped CRC bytes)
  /// before calling restart().
  storage::Env& db_env() { return *db_env_; }
  Duration cpu_busy() const { return cpu_.total_busy(); }

  /// Last time this replica entered a new view (view-change latency
  /// measurements start here).
  TimePoint last_view_entry() const { return last_view_entry_; }
  TimePoint last_commit_time() const { return last_commit_time_; }
  /// First commit observed since the last view entry (valid iff
  /// committed_in_current_view()).
  TimePoint first_commit_in_view() const { return first_commit_in_view_; }
  bool committed_in_current_view() const { return commit_seen_in_view_; }

 private:
  void make_protocol();
  void run_protocol_task(std::function<void()> body);
  /// Stages (or sends) one frame: env's own refcounted buffer, so a
  /// broadcast's n destinations share one serialization; the modeled
  /// serialize charge and kMsgSent trace stay per-destination.
  void send_wire(ReplicaId to, const types::Envelope& env);
  void flush_outbox(TimePoint at);
  void arm_view_timer();
  std::uint32_t count_authenticators(const types::Envelope& env) const;

  /// Records into the shared sink with this replica's node id stamped.
  void trace(obs::TraceEvent e) {
    if (config_.trace) {
      e.node = config_.replica.id;
      config_.trace->record(e);
    }
  }

  marlin::Scheduler& sim_;
  sim::Network& net_;
  const crypto::SignatureSuite& suite_;  // kept for restart()
  ReplicaProcessConfig config_;
  sim::NodeId node_id_ = 0;
  sim::SequentialProcessor cpu_;

  std::unique_ptr<consensus::ReplicaBase> protocol_;
  std::unique_ptr<storage::Env> db_env_;
  std::unique_ptr<storage::KVStore> db_;

  Pacemaker pacemaker_;
  sim::TimerHandle view_timer_;

  // Charge accumulator for the protocol task currently executing.
  Duration pending_charge_;
  std::vector<std::pair<sim::NodeId, Payload>> outbox_;
  bool in_task_ = false;

  std::uint64_t blocks_since_checkpoint_ = 0;
  std::uint64_t checkpoints_run_ = 0;
  std::uint64_t restarts_ = 0;
  WindowedCounter committed_ops_;
  faults::ByzantineBox byzantine_;
  TrafficStats traffic_;
  obs::MetricsRegistry metrics_;
  bool count_authenticators_ = false;
  TimePoint last_view_entry_;
  TimePoint last_commit_time_;
  TimePoint first_commit_in_view_;
  bool commit_seen_in_view_ = false;

  friend class Cluster;
};

}  // namespace marlin::runtime
