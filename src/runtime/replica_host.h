// Hosts one consensus protocol instance (Marlin or HotStuff) behind
// consensus::ProtocolEnv, on either backend: the world comes in through a
// HostIo (host_io.h), everything else is here once — protocol
// construction, KV-store open and restore-from-disk, block records with
// periodic checkpointing, batched client replies, write-ahead voting, the
// pacemaker's view-timer policy, send/broadcast through the Byzantine
// wire box, and the crypto/storage charge counters. One instance per
// replica; the protocol cannot tell which backend it runs on.
#pragma once

#include <compare>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "consensus/hotstuff.h"
#include "consensus/marlin.h"
#include "crypto/cost_model.h"
#include "faults/byzantine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/host_io.h"
#include "runtime/pacemaker.h"
#include "storage/cost_model.h"
#include "storage/kvstore.h"

namespace marlin::runtime {

enum class ProtocolKind { kMarlin, kHotStuff };

/// The protocol's name in flags, configs, reports and /status: "marlin" or
/// "hotstuff".
const char* protocol_name(ProtocolKind kind);
/// Inverse of protocol_name; false (and `kind` untouched) for any other
/// name.
bool parse_protocol(std::string_view name, ProtocolKind* kind);

struct ReplicaHostConfig {
  consensus::ReplicaConfig replica;
  ProtocolKind protocol = ProtocolKind::kMarlin;
  crypto::CostModel crypto_costs;
  storage::CostModel storage_costs;
  PacemakerConfig pacemaker;
  /// Checkpoint (compaction / GC) every this many committed blocks — the
  /// paper uses 5000.
  std::uint64_t checkpoint_interval = 5000;
  /// Reply wire bytes charged per committed request (paper: 150). Client c
  /// lives at node n + c.
  std::size_t reply_size = 150;
  /// Shared or per-node event trace; nullptr disables tracing.
  obs::TraceSink* trace = nullptr;
  /// TEST ONLY: skip the write-ahead-voting flush. Simulates a broken build
  /// that forgets durability — the cross-restart safety oracle must catch
  /// the resulting double votes. Never enable outside tests.
  bool disable_persistence = false;
  /// Durable data directory; empty = in-memory store.
  std::string data_dir;
  /// fsync the WAL on every write (crash-consistent at real-crash cost).
  bool sync_writes = false;
};

/// Outgoing-authenticator counter (Table I instrumentation). Per-kind
/// message/byte breakdowns live in NodeNetStats — the network counts every
/// frame once at the wire instead of a parallel path here.
struct TrafficStats {
  std::uint64_t authenticators_sent = 0;

  void reset() { *this = TrafficStats{}; }
};

class ReplicaHost : public consensus::ProtocolEnv, public FrameHandler {
 public:
  /// Attaches `io`, opens the store and, when it holds a persisted
  /// consensus state (a relaunch over a surviving data dir), restores the
  /// protocol from it. Check ok() before start(). `suite` must outlive the
  /// host.
  ReplicaHost(std::unique_ptr<HostIo> io, const crypto::SignatureSuite& suite,
              ReplicaHostConfig config);
  ReplicaHost(const ReplicaHost&) = delete;
  ReplicaHost& operator=(const ReplicaHost&) = delete;

  Status ok() const { return init_status_; }
  /// True when the last store open found a persisted consensus state.
  bool recovered() const { return recovered_; }

  /// Enters the protocol (arming the pacemaker). After a restore, the same
  /// task first records the recovery (counters, trace, modeled I/O).
  void start();

  /// Crash-recovery: destroys the protocol instance (txpool, vote
  /// collectors, QC caches — all volatile state), drops the timers, resets
  /// the pacemaker, reopens the DB (WAL replay + checkpoint), reconstructs
  /// the protocol from the persisted consensus state and starts it. With
  /// `wipe` the disk is lost too (amnesia): the replica restarts from
  /// genesis state on a fresh in-memory store and must catch up via state
  /// transfer. Returns kCorruption et al. if the store fails to reopen,
  /// in which case the replica stays dead.
  Status restart(bool wipe);

  // -- FrameHandler ----------------------------------------------------------
  void on_message(std::uint32_t from, Payload payload) override;

  // -- ProtocolEnv -----------------------------------------------------------
  void send(ReplicaId to, const types::Envelope& env) override;
  void broadcast(const types::Envelope& env) override;
  void deliver(const types::Block& block,
               const std::vector<types::Operation>& executable) override;
  void entered_view(ViewNumber v) override;
  void progressed() override;
  void persist_state(const consensus::PersistentState& state) override;
  obs::TraceSink* trace_sink() override { return config_.trace; }
  marlin::Scheduler* scheduler() override { return &io_->timers(); }
  TimePoint now() const override { return io_->now(); }
  void charge_signs(std::uint32_t count) override;
  void charge_verifies(std::uint32_t count) override;
  void charge_hash_bytes(std::size_t bytes) override;
  void charge_pairings(std::uint32_t count) override;
  void charge_threshold_signs(std::uint32_t count) override;
  void charge_combine_shares(std::uint32_t count) override;

  // -- accessors / metrology -------------------------------------------------
  const ReplicaHostConfig& config() const { return config_; }
  consensus::ReplicaBase& protocol() { return *protocol_; }
  const consensus::ReplicaBase& protocol() const { return *protocol_; }
  consensus::MarlinReplica* marlin();
  consensus::HotStuffReplica* hotstuff();
  const Pacemaker& pacemaker() const { return pacemaker_; }

  WindowedCounter& committed_ops() { return committed_ops_; }
  const TrafficStats& traffic() const { return traffic_; }
  void reset_traffic() { traffic_.reset(); }

  /// Per-replica metrics (crypto charge counters, commit counters,
  /// storage gauges). The clusters merge these.
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
  /// Modeled CPU time consumed (zero on metal).
  Duration cpu_busy() const { return io_->charged(); }

  /// Last time this replica entered a new view (view-change latency
  /// measurements start here).
  TimePoint last_view_entry() const { return last_view_entry_; }
  TimePoint last_commit_time() const { return last_commit_time_; }
  /// First commit observed since the last view entry (valid iff
  /// committed_in_current_view()).
  TimePoint first_commit_in_view() const { return first_commit_in_view_; }
  bool committed_in_current_view() const { return commit_seen_in_view_; }
  /// Latest start, view entry, commit or view-timer fire.
  TimePoint last_activity() const { return last_activity_; }

 private:
  /// Opens the store on db_env_ and rebuilds the protocol, restoring the
  /// persisted consensus state when there is one.
  Status open_and_restore();
  void make_protocol();
  /// Stages (or sends) one frame: env's own refcounted buffer, so a
  /// broadcast's n destinations share one serialization; the modeled
  /// serialize charge and kMsgSent trace stay per-destination.
  void send_wire(ReplicaId to, const types::Envelope& env);
  void arm_view_timer();
  std::uint32_t count_authenticators(const types::Envelope& env) const;

  /// Records into the host's sink with this replica's node id stamped.
  void trace(obs::TraceEvent e) {
    if (config_.trace) {
      e.node = config_.replica.id;
      config_.trace->record(e);
    }
  }

  std::unique_ptr<HostIo> io_;
  const crypto::SignatureSuite& suite_;  // kept for restart()
  ReplicaHostConfig config_;
  Status init_status_ = Status::ok();

  std::unique_ptr<consensus::ReplicaBase> protocol_;
  std::unique_ptr<storage::Env> db_env_;
  std::unique_ptr<storage::KVStore> db_;

  Pacemaker pacemaker_;
  TimerHandle view_timer_;

  // What the last open_and_restore() found; start() records it once.
  bool recovered_ = false;
  bool recovery_pending_ = false;
  bool wiped_ = false;
  std::uint64_t wal_replayed_ = 0;
  Height restored_height_ = 0;

  std::uint64_t blocks_since_checkpoint_ = 0;
  // deliver() scratch: runs of one client's ops in block order.
  struct ReplyRun {
    ClientId client;
    std::uint32_t begin;
    std::uint32_t end;
    auto operator<=>(const ReplyRun&) const = default;
  };
  std::vector<ReplyRun> reply_runs_;
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
  TimePoint last_activity_;
};

}  // namespace marlin::runtime
