#include "runtime/replica_host.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <utility>

namespace marlin::runtime {

using types::Envelope;
using types::MsgKind;

namespace {
// The one protocol-name table, indexed by ProtocolKind.
constexpr const char* kProtocolNames[] = {"marlin", "hotstuff"};
// Durable consensus state (PersistentState) lives under a fixed key; the
// write-ahead-voting hook overwrites it in place on every vote/lock change.
constexpr const char* kPStateKey = "meta/pstate";
}  // namespace

const char* protocol_name(ProtocolKind kind) {
  return kProtocolNames[static_cast<std::size_t>(kind)];
}

bool parse_protocol(std::string_view name, ProtocolKind* kind) {
  for (std::size_t k = 0; k < std::size(kProtocolNames); ++k) {
    if (name == kProtocolNames[k]) {
      *kind = static_cast<ProtocolKind>(k);
      return true;
    }
  }
  return false;
}

ReplicaHost::ReplicaHost(std::unique_ptr<HostIo> io,
                         const crypto::SignatureSuite& suite,
                         ReplicaHostConfig config)
    : io_(std::move(io)),
      suite_(suite),
      config_(std::move(config)),
      pacemaker_(config_.pacemaker.scaled_for(config_.replica.quorum.n)) {
  io_->attach(*this);
  last_activity_ = io_->now();
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
  // Relaunch-from-disk: a surviving data dir restores the persisted
  // consensus state (write-ahead voting makes it the safety-critical record
  // of every vote the previous incarnation cast).
  init_status_ = open_and_restore();
  if (recovered_) {
    recovery_pending_ = true;
    ++restarts_;
  }
}

Status ReplicaHost::open_and_restore() {
  db_.reset();
  storage::KVStoreOptions db_options;
  db_options.sync_writes = config_.sync_writes;
  db_options.trace = config_.trace;
  db_options.trace_node = config_.replica.id;
  auto db = storage::KVStore::open(*db_env_, db_options);
  if (!db.is_ok()) return db.status();
  db_ = std::move(db).take();
  wal_replayed_ = db_->wal_records_replayed();

  consensus::PersistentState ps;
  recovered_ = false;
  if (auto rec = db_->get(kPStateKey); rec.is_ok()) {
    Reader r(rec.value());
    auto decoded = consensus::PersistentState::decode(r);
    if (decoded.is_ok() && r.expect_exhausted().is_ok()) {
      ps = std::move(decoded).take();
      recovered_ = true;
    }
  }
  make_protocol();
  if (recovered_) protocol_->restore(ps);
  restored_height_ = recovered_ ? ps.committed_height : 0;
  return Status::ok();
}

void ReplicaHost::make_protocol() {
  if (config_.protocol == ProtocolKind::kMarlin) {
    protocol_ = std::make_unique<consensus::MarlinReplica>(config_.replica,
                                                           suite_, *this);
  } else {
    protocol_ = std::make_unique<consensus::HotStuffReplica>(config_.replica,
                                                             suite_, *this);
  }
}

void ReplicaHost::start() {
  last_activity_ = io_->now();
  if (!std::exchange(recovery_pending_, false)) {
    io_->run([this] { protocol_->start(); });
    return;
  }
  io_->run([this, wipe = wiped_, replayed = wal_replayed_,
            height = restored_height_] {
    // Model recovery I/O: one state read plus one read per replayed WAL
    // record. The resulting CPU charge is the modeled recovery duration.
    const Duration recovery_cost = config_.storage_costs.read_base *
                                   static_cast<std::int64_t>(1 + replayed);
    io_->charge(recovery_cost);
    metrics_.counter("recovery.restarts") += 1;
    metrics_.counter("recovery.wal_records_replayed") += replayed;
    if (io_->models_cpu()) {
      metrics_.gauge("recovery.duration_ms") =
          recovery_cost.as_seconds_f() * 1e3;
    }
    trace({.type = obs::EventType::kReplicaRestart,
           .view = protocol_->current_view(),
           .height = height,
           .a = wipe ? 1u : 0u,
           .b = replayed});
    // An amnesia restart enters recovery BEFORE start(): with no durable
    // record of past votes, starting normally could re-propose or re-vote
    // in a view the pre-wipe self already signed in (equivocation). The
    // recovery gate holds until peers re-anchor the frontier.
    if (wipe) protocol_->begin_recovery();
    protocol_->start();
  });
}

Status ReplicaHost::restart(bool wipe) {
  // Everything volatile dies with the process: the protocol instance
  // (txpool, vote collectors, cached QCs, fetch bookkeeping), the armed
  // view timer, and the pacemaker's backoff ladder. Only the DB survives —
  // unless this is an amnesia restart.
  view_timer_.cancel();
  protocol_.reset();
  pacemaker_ = Pacemaker(config_.pacemaker.scaled_for(config_.replica.quorum.n));
  blocks_since_checkpoint_ = 0;
  commit_seen_in_view_ = false;

  if (wipe) db_env_ = storage::make_mem_env();  // the disk is gone too
  if (Status s = open_and_restore(); !s.is_ok()) {
    // Unrecoverable store (e.g. mid-file WAL corruption): surface the
    // error and leave the replica dead rather than rejoin with bad state.
    metrics_.counter("recovery.failures") += 1;
    return s;
  }
  ++restarts_;
  wiped_ = wipe;
  recovery_pending_ = true;
  start();
  return Status::ok();
}

consensus::MarlinReplica* ReplicaHost::marlin() {
  return dynamic_cast<consensus::MarlinReplica*>(protocol_.get());
}

consensus::HotStuffReplica* ReplicaHost::hotstuff() {
  return dynamic_cast<consensus::HotStuffReplica*>(protocol_.get());
}

void ReplicaHost::on_message(std::uint32_t from, Payload payload) {
  // Deserialize inside the task so the parse cost is charged.
  io_->run([this, from, payload = std::move(payload)] {
    io_->charge(config_.crypto_costs.serialize_cost(payload.size()));
    auto env = Envelope::parse(payload);
    if (!env.is_ok()) return;
    if (env.value().kind == MsgKind::kSnapshotResponse) {
      metrics_.counter("state_transfer.bytes") += payload.size();
    }
    protocol_->handle_message(static_cast<ReplicaId>(from), env.value());
  });
}

// ---------------------------------------------------------------------------
// ProtocolEnv
// ---------------------------------------------------------------------------

std::uint32_t ReplicaHost::count_authenticators(
    const types::Envelope& env) const {
  // An authenticator is a signature, partial signature, or threshold
  // signature (paper §III). SigGroup QCs count each contained signature,
  // matching the paper's accounting for the signature instantiation.
  auto justify_count = [](const types::Justify& j) {
    std::uint32_t c = 0;
    if (j.qc) c += std::max<std::size_t>(1, j.qc->sigs.parts.size());
    if (j.vc) c += std::max<std::size_t>(1, j.vc->sigs.parts.size());
    return c;
  };
  switch (env.kind) {
    case MsgKind::kVote: {
      auto m = types::open_envelope<types::VoteMsg>(env);
      if (!m.is_ok()) return 0;
      std::uint32_t c = 1;
      if (m.value().locked_qc) {
        c += std::max<std::size_t>(1, m.value().locked_qc->sigs.parts.size());
      }
      return c;
    }
    case MsgKind::kProposal: {
      auto m = types::open_envelope<types::ProposalMsg>(env);
      if (!m.is_ok()) return 0;
      std::uint32_t c = 0;
      for (const auto& e : m.value().entries) c += justify_count(e.justify);
      return c;
    }
    case MsgKind::kQcNotice: {
      auto m = types::open_envelope<types::QcNoticeMsg>(env);
      if (!m.is_ok()) return 0;
      std::uint32_t c = std::max<std::size_t>(1, m.value().qc.sigs.parts.size());
      if (m.value().aux) {
        c += std::max<std::size_t>(1, m.value().aux->sigs.parts.size());
      }
      return c;
    }
    case MsgKind::kViewChange: {
      auto m = types::open_envelope<types::ViewChangeMsg>(env);
      if (!m.is_ok()) return 0;
      return 1 + justify_count(m.value().high_qc);
    }
    default:
      return 0;
  }
}

void ReplicaHost::send(ReplicaId to, const Envelope& env) {
  if (byzantine_.active()) {
    // The box may mutate (equivocation, corrupted sigs), replace (stale
    // replay), or suppress (silence) the envelope, per destination.
    auto out = byzantine_.transform(env, config_.replica.id, to);
    if (!out) return;
    send_wire(to, *out);
    return;
  }
  send_wire(to, env);
}

void ReplicaHost::send_wire(ReplicaId to, const Envelope& env) {
  Payload wire = env.wire();
  io_->charge(config_.crypto_costs.serialize_cost(wire.size()));
  std::uint32_t authenticators = 0;
  if (count_authenticators_) {
    authenticators = count_authenticators(env);
    traffic_.authenticators_sent += authenticators;
  }
  // kMsgSent is recorded here, not in the network, because only the
  // protocol host knows the current view — what per-view leader-egress
  // analysis (trace_inspect) attributes bytes by.
  trace({.type = obs::EventType::kMsgSent,
         .kind = static_cast<std::uint8_t>(env.kind),
         .view = protocol_ ? protocol_->current_view() : 0,
         .a = wire.size(),
         .b = authenticators});
  io_->send(to, std::move(wire));
}

void ReplicaHost::broadcast(const Envelope& env) {
  const std::uint32_t n = config_.replica.quorum.n;
  // The envelope was serialized once into its frame; every destination
  // (including the loopback self-send) shares that refcounted buffer.
  // Modeled cost is untouched: send_wire still charges serialize_cost and
  // records kMsgSent per destination, so golden traces replay
  // bit-identical. A Byzantine box gets first refusal per destination;
  // only destinations whose frame it actually tampers with get a private
  // serialization (copy-on-write), the rest keep sharing.
  for (ReplicaId r = 0; r < n; ++r) {
    if (byzantine_.active()) {
      auto fx = byzantine_.transform_wire(env, config_.replica.id, r);
      if (!fx.out) continue;  // suppressed for this destination
      if (fx.mutated) {
        send_wire(r, *fx.out);
        continue;
      }
    }
    send_wire(r, env);
  }
}

void ReplicaHost::deliver(const types::Block& block,
                          const std::vector<types::Operation>& executable) {
  const TimePoint now = io_->now();
  last_commit_time_ = now;
  last_activity_ = now;
  if (!commit_seen_in_view_) {
    first_commit_in_view_ = now;
    commit_seen_in_view_ = true;
  }

  // Execute: application cost per op, one DB write for the block.
  const std::size_t block_bytes = types::ops_wire_size(executable) + 160;
  io_->charge(config_.crypto_costs.execute_op *
              static_cast<std::int64_t>(executable.size()));
  io_->charge(config_.storage_costs.write_cost(block_bytes));

  // Persist a compact block record (real store, modeled cost above).
  char key[32];
  std::snprintf(key, sizeof key, "blk/%012llu",
                static_cast<unsigned long long>(block.height));
  Writer rec;
  rec.u64(block.view);
  rec.u64(block.height);
  rec.varint(executable.size());
  rec.raw(block.hash().view());
  (void)db_->put(key, rec.buffer());

  // Periodic checkpoint (the paper's GC every 5000 blocks).
  if (++blocks_since_checkpoint_ >= config_.checkpoint_interval) {
    io_->charge(
        config_.storage_costs.checkpoint_cost(blocks_since_checkpoint_));
    (void)db_->checkpoint();
    blocks_since_checkpoint_ = 0;
    ++checkpoints_run_;
    metrics_.counter("storage.checkpoints") += 1;
  }

  // Reply to clients: one batched message per client, in ascending client
  // order, padded so wire bytes equal |requests| × reply_size. A client's
  // ops mostly sit in one run (its request frame), so sort runs, not ops.
  reply_runs_.clear();
  for (std::uint32_t i = 0; i < executable.size(); ++i) {
    const ClientId client = executable[i].client;
    if (reply_runs_.empty() || reply_runs_.back().client != client) {
      reply_runs_.push_back({client, i, i});
    }
    ++reply_runs_.back().end;
  }
  std::sort(reply_runs_.begin(), reply_runs_.end());
  const types::Hash256 block_hash = block.hash();
  const PayloadSlice result(
      Bytes(block_hash.data.begin(), block_hash.data.begin() + 8));
  for (std::size_t r = 0; r < reply_runs_.size();) {
    const ClientId client = reply_runs_[r].client;
    types::ClientReplyMsg reply;
    reply.client = client;
    reply.replica = config_.replica.id;
    reply.view = block.view;
    reply.height = block.height;
    reply.result = result;
    reply.requests.reserve(reply_runs_[r].end - reply_runs_[r].begin);
    for (; r < reply_runs_.size() && reply_runs_[r].client == client; ++r) {
      for (std::uint32_t i = reply_runs_[r].begin; i < reply_runs_[r].end;
           ++i) {
        reply.requests.push_back(executable[i].request);
      }
    }
    const std::size_t body_overhead = 45 + 8 * reply.requests.size();
    const std::size_t target = config_.reply_size * reply.requests.size();
    if (target > body_overhead) reply.padding = target - body_overhead;
    Payload wire =
        types::make_envelope(MsgKind::kClientReply, reply).wire();
    io_->charge(config_.crypto_costs.serialize_cost(wire.size()));
    trace({.type = obs::EventType::kMsgSent,
           .kind = static_cast<std::uint8_t>(MsgKind::kClientReply),
           .view = block.view,
           .height = block.height,
           .a = wire.size()});
    io_->send(config_.replica.quorum.n + client, std::move(wire));
  }

  committed_ops_.record(now, executable.size());
  metrics_.counter("replica.committed_blocks") += 1;
  metrics_.counter("replica.committed_ops") += executable.size();
  metrics_.gauge("replica.committed_height") =
      static_cast<double>(block.height);
  metrics_.sizes("replica.block_ops").record(executable.size());
}

void ReplicaHost::entered_view(ViewNumber v) {
  trace({.type = obs::EventType::kViewEntered, .view = v});
  metrics_.gauge("replica.view") = static_cast<double>(v);
  last_view_entry_ = io_->now();
  last_activity_ = last_view_entry_;
  commit_seen_in_view_ = false;
  pacemaker_.on_view_entered();
  arm_view_timer();
}

void ReplicaHost::progressed() { pacemaker_.on_progress(); }

void ReplicaHost::persist_state(const consensus::PersistentState& state) {
  if (config_.disable_persistence) return;  // TEST ONLY (see config comment)
  // Write-ahead voting: the protocol calls this before the vote/new-view
  // message leaves. In simulation the outbox does not flush until the
  // task's full CPU charge (including this write) has elapsed; on metal
  // the put returns before the protocol resumes. Either way the vote is
  // durable before it is visible on the wire. (With sync_writes the WAL is
  // also fsynced; without it, durability is process-crash-level.)
  Writer w;
  state.encode(w);
  io_->charge(config_.storage_costs.write_cost(w.size()));
  (void)db_->put(kPStateKey, w.buffer());
  metrics_.counter("storage.pstate_writes") += 1;
}

void ReplicaHost::arm_view_timer() {
  view_timer_.cancel();
  view_timer_ = io_->after(
      pacemaker_.view_timeout(config_.replica.id, protocol_->current_view()),
      [this] {
    // The timer firing at all proves the host is turning; liveness probes
    // ride on it even across idle views.
    last_activity_ = io_->now();
    // While amnesia recovery is in progress, the timer retransmits the
    // recovery snapshot request instead of churning views — the replica
    // is not allowed to participate in view changes yet anyway.
    if (protocol_->recovering()) {
      io_->run([this] { protocol_->recovery_tick(); });
      arm_view_timer();
      return;
    }
    // A quiet view with no pending work is healthy, not stuck: don't churn
    // views while idle (rotating mode still rotates unconditionally).
    const bool idle = !config_.pacemaker.rotate_on_timer &&
                      protocol_->pool().empty();
    if (!idle && pacemaker_.should_advance_on_fire()) {
      io_->run([this] { protocol_->on_view_timeout(); });
    }
    // The advance is quorum-gated (see ReplicaBase::on_view_timeout): the
    // fire may only have broadcast a timeout notice. Keep the timer armed
    // either way — if the view did move, entered_view() re-arms with the
    // new view's duration and this arm is superseded.
    arm_view_timer();
  });
}

void ReplicaHost::charge_signs(std::uint32_t count) {
  io_->charge(config_.crypto_costs.sign * count);
  metrics_.counter("crypto.signs") += count;
}

void ReplicaHost::charge_verifies(std::uint32_t count) {
  const Duration cost = config_.crypto_costs.verify * count;
  io_->charge(cost);
  metrics_.counter("crypto.verifies") += count;
  if (!io_->models_cpu()) return;
  trace({.type = obs::EventType::kSigVerify,
         .view = protocol_ ? protocol_->current_view() : 0,
         .a = count,
         .c = static_cast<std::uint64_t>(cost.as_nanos())});
}

void ReplicaHost::charge_hash_bytes(std::size_t bytes) {
  io_->charge(config_.crypto_costs.hash_cost(bytes));
  metrics_.counter("crypto.hash_bytes") += bytes;
}

void ReplicaHost::charge_pairings(std::uint32_t count) {
  const Duration cost = config_.crypto_costs.pairing * count;
  io_->charge(cost);
  metrics_.counter("crypto.pairings") += count;
  if (!io_->models_cpu()) return;
  trace({.type = obs::EventType::kSigVerify,
         .view = protocol_ ? protocol_->current_view() : 0,
         .a = count,
         .b = 1,
         .c = static_cast<std::uint64_t>(cost.as_nanos())});
}

void ReplicaHost::charge_threshold_signs(std::uint32_t count) {
  io_->charge(config_.crypto_costs.threshold_sign_share * count);
  metrics_.counter("crypto.threshold_signs") += count;
}

void ReplicaHost::charge_combine_shares(std::uint32_t count) {
  io_->charge(config_.crypto_costs.threshold_combine_per_share * count);
  metrics_.counter("crypto.combine_shares") += count;
}

}  // namespace marlin::runtime
