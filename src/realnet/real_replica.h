// Hosts one untouched consensus protocol instance (Marlin or HotStuff) on
// the real runtime: TCP transport for the wire, the node's EventLoop timer
// wheel for the pacemaker, a real KVStore (mem or posix) for write-ahead
// voting and block records. The consensus core sees the exact same
// ProtocolEnv it sees in simulation — this class and runtime::ReplicaProcess
// are the only two implementations, and the protocol cannot tell them
// apart. Differences from the simulated host, by design:
//
//  * no CPU cost model: wall time is real, so charge_* hooks only feed
//    metrics counters;
//  * no outbox staged on virtual task completion: persist_state() completes
//    synchronously (the KVStore write returns before the protocol resumes),
//    so every vote is durable before its frame reaches the transport —
//    write-ahead voting holds without the simulator's flush barrier;
//  * restart-from-disk happens in the constructor: if the store already
//    holds a persisted consensus state (a relaunch over the same data dir),
//    the protocol is restored from it before start().
//
// Threading: everything runs on the owning EventLoop's thread. The replica
// holds its own SignatureSuite instance (crypto caches are not thread-safe
// to share across nodes; suites built from the same seed are identical).
#pragma once

#include <memory>

#include "common/histogram.h"
#include "consensus/hotstuff.h"
#include "consensus/marlin.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "realnet/tcp_transport.h"
#include "realnet/verify_pool.h"
#include "runtime/pacemaker.h"
#include "runtime/replica_process.h"  // runtime::ProtocolKind
#include "storage/kvstore.h"

namespace marlin::realnet {

struct RealReplicaConfig {
  consensus::ReplicaConfig replica;
  runtime::ProtocolKind protocol = runtime::ProtocolKind::kMarlin;
  runtime::PacemakerConfig pacemaker;
  std::uint64_t checkpoint_interval = 5000;
  std::size_t reply_size = 150;
  /// Node id of client #0; client c lives at node client_base + c.
  std::uint32_t client_base = 0;
  /// Durable data directory; empty = in-memory store (no relaunch).
  std::string data_dir;
  /// fsync the WAL on every write (crash-consistent at real-crash cost).
  bool sync_writes = false;
  /// Per-node event trace (clock should be mono_now). Optional.
  obs::TraceSink* trace = nullptr;
  /// Off-loop crypto pre-verification pool. Null (the default) verifies
  /// inline on the loop thread via InlineVerifyExecutor — byte-identical
  /// behavior to the pre-pool runtime.
  VerifyPool* verify_pool = nullptr;
};

class RealReplica final : public consensus::ProtocolEnv {
 public:
  /// Opens (or reopens) the store; when a persisted consensus state exists
  /// the protocol is restored from it (relaunch path). Check ok() before
  /// start(). `suite` must outlive the replica and must not be shared with
  /// another thread.
  RealReplica(EventLoop& loop, TcpTransport& transport,
              const crypto::SignatureSuite& suite, RealReplicaConfig config);

  Status ok() const { return init_status_; }
  /// True when the constructor restored state persisted by a previous
  /// incarnation (the kill+relaunch path).
  bool recovered() const { return recovered_; }

  /// Enters the protocol (arming the pacemaker). Loop thread only.
  void start();

  /// Transport ingress (wired by the cluster). Loop thread only.
  void on_message(std::uint32_t from, Payload payload);

  // -- ProtocolEnv -----------------------------------------------------------
  void send(ReplicaId to, const types::Envelope& env) override;
  void broadcast(const types::Envelope& env) override;
  void deliver(const types::Block& block,
               const std::vector<types::Operation>& executable) override;
  void entered_view(ViewNumber v) override;
  void progressed() override;
  void persist_state(const consensus::PersistentState& state) override;
  obs::TraceSink* trace_sink() override { return config_.trace; }
  TimePoint now() const override { return mono_now(); }
  void charge_signs(std::uint32_t count) override;
  void charge_verifies(std::uint32_t count) override;
  void charge_hash_bytes(std::size_t bytes) override;
  void charge_pairings(std::uint32_t count) override;
  void charge_threshold_signs(std::uint32_t count) override;
  void charge_combine_shares(std::uint32_t count) override;

  // -- accessors -------------------------------------------------------------
  consensus::ReplicaBase& protocol() { return *protocol_; }
  const consensus::ReplicaBase& protocol() const { return *protocol_; }
  WindowedCounter& committed_ops() { return committed_ops_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  ViewNumber current_view() const { return protocol_->current_view(); }

  // -- telemetry (loop thread only) ------------------------------------------
  /// Liveness: true while the host shows recent activity (view timer
  /// firing, commits, view entries). The window adapts to the pacemaker's
  /// current backoff so a cluster grinding through view changes is not
  /// misreported as stalled. Backs GET /healthz.
  bool healthy() const;

  /// JSON body for GET /status: node id, protocol, view, committed height,
  /// tx-pool depth, recovery flags, and per-peer connection state.
  std::string status_json();

  /// Self-contained metrics snapshot for /metrics and the series sampler:
  /// a copy of the registry plus the transport health series, the wire
  /// NodeNetStats (same names the simulated network exports), and event
  /// loop counters.
  obs::MetricsRegistry snapshot_metrics() const;

 private:
  void make_protocol();
  void arm_view_timer();
  void send_wire(ReplicaId to, const types::Envelope& env);
  void trace(obs::TraceEvent e) {
    if (config_.trace) {
      e.node = config_.replica.id;
      config_.trace->record(e);
    }
  }

  EventLoop& loop_;
  TcpTransport& transport_;
  const crypto::SignatureSuite& suite_;
  RealReplicaConfig config_;
  Status init_status_ = Status::ok();
  bool recovered_ = false;

  std::unique_ptr<consensus::ReplicaBase> protocol_;
  std::unique_ptr<storage::Env> db_env_;
  std::unique_ptr<storage::KVStore> db_;

  runtime::Pacemaker pacemaker_;
  TimerHandle view_timer_;

  std::uint64_t blocks_since_checkpoint_ = 0;
  WindowedCounter committed_ops_;
  obs::MetricsRegistry metrics_;
  bool commit_seen_in_view_ = false;
  TimePoint last_activity_;  // freshness signal behind healthy()
};

}  // namespace marlin::realnet
