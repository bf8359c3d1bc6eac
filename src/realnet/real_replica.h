// A runtime::ReplicaHost on metal: the shared host (every piece of replica
// logic, written once) over a MetalIo adapter, plus what only a real
// process has — GET /status, GET /healthz and the /metrics snapshot.
//
// The adapter contract (runtime/host_io.h) has exactly two implementations,
// runtime::SimIo and realnet::MetalIo; the protocol cannot tell them apart.
// On metal:
//
//  * run() is inline on the loop thread and charge() is a no-op: wall time
//    is real, so the charge_* hooks only feed metrics counters, and traces
//    carry no modeled-cost fields;
//  * there is no outbox staged on virtual task completion: persist_state()
//    completes synchronously (the KVStore write returns before the protocol
//    resumes), so every vote is durable before its frame reaches the
//    transport — write-ahead voting holds without the simulator's flush
//    barrier;
//  * restart-from-disk happens in the constructor: if the data dir already
//    holds a persisted consensus state (a relaunch), the protocol is
//    restored from it, and start() records the recovery exactly as a
//    simulated restart does.
//
// Threading: everything runs on the owning EventLoop's thread. The replica
// holds its own SignatureSuite instance (crypto caches are not thread-safe
// to share across nodes; suites built from the same seed are identical).
#pragma once

#include <string>

#include "realnet/metal_io.h"
#include "runtime/replica_host.h"

namespace marlin::realnet {

class RealReplica final : public runtime::ReplicaHost {
 public:
  /// Opens (or reopens) the store; check ok() before start(). `suite` must
  /// outlive the replica and must not be shared with another thread.
  RealReplica(EventLoop& loop, TcpTransport& transport,
              const crypto::SignatureSuite& suite,
              runtime::ReplicaHostConfig config);

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
  EventLoop& loop_;
  TcpTransport& transport_;
};

}  // namespace marlin::realnet
