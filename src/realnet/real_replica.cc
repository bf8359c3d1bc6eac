#include "realnet/real_replica.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/serialize.h"
#include "obs/telemetry.h"

namespace marlin::realnet {

using types::Envelope;
using types::MsgKind;

namespace {
// Same key the simulated host uses (runtime/replica_process.cc): a data dir
// written under simulation could in principle be relaunched here.
constexpr const char* kPStateKey = "meta/pstate";
}  // namespace

RealReplica::RealReplica(EventLoop& loop, TcpTransport& transport,
                         const crypto::SignatureSuite& suite,
                         RealReplicaConfig config)
    : loop_(loop),
      transport_(transport),
      suite_(suite),
      config_(std::move(config)),
      pacemaker_(config_.pacemaker.scaled_for(config_.replica.quorum.n)) {
  last_activity_ = mono_now();
  // Loop/wheel health histograms live in this replica's registry (std::map
  // nodes are reference-stable); the loop records into them from its own
  // thread, the same thread that serves /metrics.
  loop_.set_iteration_histogram(&metrics_.latency("loop.iteration"));
  loop_.set_wake_histogram(&metrics_.latency("loop.wake_delay"));
  loop_.set_timer_drift_histogram(&metrics_.latency("timer.fire_drift"));
  if (config_.data_dir.empty()) {
    db_env_ = storage::make_mem_env();
  } else {
    auto env = storage::make_posix_env(config_.data_dir);
    if (!env.is_ok()) {
      init_status_ = env.status();
      return;
    }
    db_env_ = std::move(env).take();
  }
  storage::KVStoreOptions db_options;
  db_options.sync_writes = config_.sync_writes;
  db_options.trace = config_.trace;
  db_options.trace_node = config_.replica.id;
  auto db = storage::KVStore::open(*db_env_, db_options);
  if (!db.is_ok()) {
    init_status_ = db.status();
    return;
  }
  db_ = std::move(db).take();

  // Relaunch-from-disk: restore the persisted consensus state if this data
  // dir has one (write-ahead voting makes it the safety-critical record of
  // every vote the previous incarnation cast).
  consensus::PersistentState ps;
  if (auto rec = db_->get(kPStateKey); rec.is_ok()) {
    Reader r(rec.value());
    auto decoded = consensus::PersistentState::decode(r);
    if (decoded.is_ok() && r.expect_exhausted().is_ok()) {
      ps = std::move(decoded).take();
      recovered_ = true;
    }
  }
  make_protocol();
  if (recovered_) {
    protocol_->restore(ps);
    metrics_.counter("recovery.restarts") += 1;
    trace({.type = obs::EventType::kReplicaRestart,
           .view = protocol_->current_view(),
           .height = ps.committed_height,
           .b = db_->wal_records_replayed()});
  }
}

void RealReplica::make_protocol() {
  if (config_.protocol == runtime::ProtocolKind::kMarlin) {
    protocol_ = std::make_unique<consensus::MarlinReplica>(config_.replica,
                                                           suite_, *this);
  } else {
    protocol_ = std::make_unique<consensus::HotStuffReplica>(config_.replica,
                                                             suite_, *this);
  }
}

void RealReplica::start() {
  last_activity_ = mono_now();
  protocol_->start();
}

void RealReplica::on_message(std::uint32_t from, Payload payload) {
  auto env = Envelope::parse(payload);
  if (!env.is_ok()) return;
  if (env.value().kind == MsgKind::kSnapshotResponse) {
    metrics_.counter("state_transfer.bytes") += payload.size();
  }
  common::VerifyExecutor& exec =
      config_.verify_pool != nullptr
          ? static_cast<common::VerifyExecutor&>(*config_.verify_pool)
          : common::InlineVerifyExecutor::instance();
  protocol_->ingress(static_cast<ReplicaId>(from), std::move(env).take(), exec);
}

// ---------------------------------------------------------------------------
// ProtocolEnv
// ---------------------------------------------------------------------------

void RealReplica::send(ReplicaId to, const Envelope& env) {
  send_wire(to, env);
}

void RealReplica::send_wire(ReplicaId to, const Envelope& env) {
  Payload wire = env.wire();
  trace({.type = obs::EventType::kMsgSent,
         .kind = static_cast<std::uint8_t>(env.kind),
         .view = protocol_ ? protocol_->current_view() : 0,
         .a = wire.size()});
  transport_.send(to, std::move(wire));
}

void RealReplica::broadcast(const Envelope& env) {
  // All n destinations (including the loopback self-send) share the
  // envelope's refcounted frame — same zero-copy shape as the simulator.
  const std::uint32_t n = config_.replica.quorum.n;
  for (ReplicaId r = 0; r < n; ++r) send_wire(r, env);
}

void RealReplica::deliver(const types::Block& block,
                          const std::vector<types::Operation>& executable) {
  if (!commit_seen_in_view_) commit_seen_in_view_ = true;

  char key[32];
  std::snprintf(key, sizeof key, "blk/%012llu",
                static_cast<unsigned long long>(block.height));
  Writer rec;
  rec.u64(block.view);
  rec.u64(block.height);
  rec.varint(executable.size());
  rec.raw(block.hash().view());
  (void)db_->put(key, rec.buffer());

  if (++blocks_since_checkpoint_ >= config_.checkpoint_interval) {
    (void)db_->checkpoint();
    blocks_since_checkpoint_ = 0;
    metrics_.counter("storage.checkpoints") += 1;
  }

  // One batched reply per client, padded so wire bytes equal
  // |requests| × reply_size (identical accounting to the simulated host).
  std::map<ClientId, std::vector<RequestId>> by_client;
  for (const types::Operation& op : executable) {
    by_client[op.client].push_back(op.request);
  }
  const types::Hash256 block_hash = block.hash();
  const PayloadSlice result(
      Bytes(block_hash.data.begin(), block_hash.data.begin() + 8));
  for (auto& [client, requests] : by_client) {
    types::ClientReplyMsg reply;
    reply.client = client;
    reply.replica = config_.replica.id;
    reply.view = block.view;
    reply.height = block.height;
    reply.result = result;
    const std::size_t body_overhead = 45 + 8 * requests.size();
    const std::size_t target = config_.reply_size * requests.size();
    if (target > body_overhead) reply.padding = target - body_overhead;
    reply.requests = std::move(requests);
    Payload wire =
        types::make_envelope(MsgKind::kClientReply, reply).wire();
    trace({.type = obs::EventType::kMsgSent,
           .kind = static_cast<std::uint8_t>(MsgKind::kClientReply),
           .view = block.view,
           .height = block.height,
           .a = wire.size()});
    transport_.send(config_.client_base + client, std::move(wire));
  }

  last_activity_ = mono_now();
  committed_ops_.record(mono_now(), executable.size());
  metrics_.counter("replica.committed_blocks") += 1;
  metrics_.counter("replica.committed_ops") += executable.size();
  metrics_.gauge("replica.committed_height") =
      static_cast<double>(block.height);
  metrics_.sizes("replica.block_ops").record(executable.size());
}

void RealReplica::entered_view(ViewNumber v) {
  last_activity_ = mono_now();
  trace({.type = obs::EventType::kViewEntered, .view = v});
  metrics_.gauge("replica.view") = static_cast<double>(v);
  commit_seen_in_view_ = false;
  pacemaker_.on_view_entered();
  arm_view_timer();
}

void RealReplica::progressed() { pacemaker_.on_progress(); }

void RealReplica::persist_state(const consensus::PersistentState& state) {
  // Write-ahead voting: this put returns before the protocol resumes and
  // emits the dependent vote, so the vote is durable first. (With
  // sync_writes the WAL is also fsynced; without it, durability is
  // process-crash-level, which is what the kill+relaunch tests exercise.)
  Writer w;
  state.encode(w);
  (void)db_->put(kPStateKey, w.buffer());
  metrics_.counter("storage.pstate_writes") += 1;
}

void RealReplica::arm_view_timer() {
  view_timer_.cancel();
  view_timer_ = loop_.schedule(
      pacemaker_.view_timeout(config_.replica.id, protocol_->current_view()),
      [this] {
        // The timer firing at all proves the loop is turning; healthz
        // freshness rides on it even across idle views.
        last_activity_ = mono_now();
        // Same policy as the simulated host: recovery ticks retransmit the
        // snapshot request; idle views don't churn; the advance is
        // quorum-gated inside the protocol.
        if (protocol_->recovering()) {
          protocol_->recovery_tick();
          arm_view_timer();
          return;
        }
        const bool idle = !config_.pacemaker.rotate_on_timer &&
                          protocol_->pool().empty();
        if (!idle && pacemaker_.should_advance_on_fire()) {
          protocol_->on_view_timeout();
        }
        arm_view_timer();
      });
}

void RealReplica::charge_signs(std::uint32_t count) {
  metrics_.counter("crypto.signs") += count;
}
void RealReplica::charge_verifies(std::uint32_t count) {
  metrics_.counter("crypto.verifies") += count;
}
void RealReplica::charge_hash_bytes(std::size_t bytes) {
  metrics_.counter("crypto.hash_bytes") += bytes;
}
void RealReplica::charge_pairings(std::uint32_t count) {
  metrics_.counter("crypto.pairings") += count;
}
void RealReplica::charge_threshold_signs(std::uint32_t count) {
  metrics_.counter("crypto.threshold_signs") += count;
}
void RealReplica::charge_combine_shares(std::uint32_t count) {
  metrics_.counter("crypto.combine_shares") += count;
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

bool RealReplica::healthy() const {
  // Three missed view timers (at the current backoff) or 5 s, whichever is
  // longer: tolerant of view-change grind, still sharp on a wedged loop.
  const Duration window =
      std::max(Duration::seconds(5), pacemaker_.view_timeout() * 3);
  return mono_now() - last_activity_ <= window;
}

std::string RealReplica::status_json() {
  std::string out = "{";
  out += "\"node\":" + std::to_string(config_.replica.id);
  out += ",\"protocol\":\"";
  out += config_.protocol == runtime::ProtocolKind::kMarlin ? "marlin"
                                                            : "hotstuff";
  out += "\"";
  out += ",\"view\":" + std::to_string(protocol_->current_view());
  out += ",\"committed_height\":" +
         std::to_string(static_cast<std::uint64_t>(
             metrics_.gauge_value("replica.committed_height")));
  out += ",\"committed_ops\":" + std::to_string(committed_ops_.total());
  out += ",\"txpool\":" + std::to_string(protocol_->pool().pending());
  out += std::string(",\"recovered\":") + (recovered_ ? "true" : "false");
  out += std::string(",\"recovering\":") +
         (protocol_->recovering() ? "true" : "false");
  out += std::string(",\"healthy\":") + (healthy() ? "true" : "false");
  out += ",\"queued_bytes\":" + std::to_string(transport_.queued_bytes());
  out += ",\"peers\":[";
  bool first = true;
  for (const TcpTransport::PeerStatus& p : transport_.peer_statuses()) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":" + std::to_string(p.id);
    out += std::string(",\"connected\":") + (p.connected ? "true" : "false");
    out += std::string(",\"connecting\":") +
           (p.connecting ? "true" : "false");
    out += ",\"queued_bytes\":" + std::to_string(p.queued_bytes);
    out += ",\"high_water_bytes\":" + std::to_string(p.high_water_bytes);
    out += ",\"backoff_ms\":" + std::to_string(p.backoff_ms);
    out += "}";
  }
  out += "]}";
  return out;
}

obs::MetricsRegistry RealReplica::snapshot_metrics() const {
  obs::MetricsRegistry snap = metrics_;
  transport_.export_metrics(snap);
  // Same labeling as sim::Network::export_metrics — per-node totals under
  // node=<id>, per-kind totals under kind=<name> — so a merged realnet
  // series is key-compatible with a sim series.
  obs::net_stats_to_metrics(transport_.stats(), snap,
                            "node=" + std::to_string(config_.replica.id));
  snap.counter("loop.iterations") += loop_.iterations();
  snap.counter("loop.posted_tasks") += loop_.posted_tasks_run();
  snap.counter("loop.timers_fired") += loop_.timers_fired();
  if (config_.verify_pool != nullptr) {
    config_.verify_pool->export_metrics(snap);
  }
  return snap;
}

}  // namespace marlin::realnet
