#include "consensus/hotstuff.h"

namespace marlin::consensus {

namespace {
/// prepareQC ordering for NEW-VIEW selection: view first, then height.
bool qc_higher(const QuorumCert& a, const QuorumCert& b) {
  if (a.view != b.view) return a.view > b.view;
  return a.height > b.height;
}
}  // namespace

HotStuffReplica::HotStuffReplica(ReplicaConfig config,
                                 const crypto::SignatureSuite& suite,
                                 ProtocolEnv& env)
    : ReplicaBase(config, suite, env, "hotstuff",
                  {Phase::kPrepare, Phase::kPreCommit, Phase::kCommit},
                  /*virtual_blocks=*/false) {
  prepare_qc_high_ = QuorumCert::genesis(store_.genesis_hash());
  locked_qc_ = prepare_qc_high_;
  locked_qc_.type = QcType::kPreCommit;
}

PersistentState HotStuffReplica::persistent_state() const {
  PersistentState ps = base_persistent_state(PersistedProtocol::kHotStuff);
  // HotStuff's voted watermark is a (view, height) pair, not a block ref;
  // store it in the ref's ordering fields with a zero hash.
  ps.last_voted.view = lb_view_;
  ps.last_voted.height = lb_height_;
  ps.locked_qc = locked_qc_;
  ps.high_qc = Justify{prepare_qc_high_, {}};
  return ps;
}

void HotStuffReplica::restore(const PersistentState& ps) {
  lb_view_ = ps.last_voted.view;
  lb_height_ = ps.last_voted.height;
  locked_qc_ = ps.locked_qc;
  if (ps.high_qc.qc) prepare_qc_high_ = *ps.high_qc.qc;
  ReplicaBase::restore(ps);
}

// ---------------------------------------------------------------------------
// Leader: proposing
// ---------------------------------------------------------------------------

void HotStuffReplica::adopt_recovery_tip(const Block& tip,
                                         const QuorumCert& qc) {
  if (qc_higher(qc, prepare_qc_high_)) prepare_qc_high_ = qc;
  if (qc_higher(qc, locked_qc_)) {
    locked_qc_ = qc;
    locked_qc_.type = QcType::kPreCommit;
  }
  lb_view_ = std::max(lb_view_, std::max(tip.view, qc.view));
  lb_height_ = std::max(lb_height_, tip.height);
}

void HotStuffReplica::propose(bool force) {
  propose_on(prepare_qc_high_, force);
}

// ---------------------------------------------------------------------------
// Replica: proposals (PREPARE phase)
// ---------------------------------------------------------------------------

void HotStuffReplica::on_proposal(ReplicaId from, types::ProposalMsg msg) {
  if (msg.entries.size() != 1 || msg.phase != Phase::kPrepare) return;
  const Justify& j = msg.entries[0].justify;
  if (!j.qc || j.vc || j.qc->type != QcType::kPrepare) return;
  if (!admit(from, msg.view, &*j.qc)) return;
  const Block& b = msg.entries[0].block;
  if (!extends_justify(b, j)) return;
  const QuorumCert& qc = *j.qc;

  // safeNode: the branch extends the locked block, or the justify ranks
  // above the lock (liveness rule). Rank is (view, height), not view
  // alone: many blocks certify per view here, and same-view prepareQCs
  // form a single chain (honest replicas vote once per (view, height) and
  // quorums intersect in an honest replica), so a same-view justify above
  // the lock's height extends it even when this replica is missing the
  // intermediate bodies and extends() cannot walk the branch.
  const bool live_rule = qc_higher(qc, locked_qc_);
  const bool safe_rule =
      store_.extends(qc.block_hash, locked_qc_.block_hash);
  if (!live_rule && !safe_rule) return;

  // Vote at most once per (view, height), monotonically.
  if (b.view < lb_view_ ||
      (b.view == lb_view_ && b.height <= lb_height_)) {
    return;
  }

  const BlockRef ref = ref_of(b, charged_hash(b));
  const types::VoteMsg vote =
      accept_block(from, Phase::kPrepare, std::move(msg.entries[0].block), ref);

  // Write-ahead voting: advance the voted watermark durably before the
  // vote leaves, or a crash+restart could vote again at this (view,
  // height) for a conflicting block.
  lb_view_ = ref.view;
  lb_height_ = ref.height;
  if (qc_higher(qc, prepare_qc_high_)) prepare_qc_high_ = qc;
  persist();
  send_vote(from, vote, ref.height);
}

// ---------------------------------------------------------------------------
// Leader: vote collection
// ---------------------------------------------------------------------------

void HotStuffReplica::on_vote(ReplicaId from, types::VoteMsg msg) {
  const Block* b = accept_vote(from, msg);
  if (!b) return;
  std::optional<QuorumCert> qc = add_vote(msg, *b);
  if (!qc) return;
  finalize_qc(*qc);
  if (qc->type == QcType::kPrepare) {
    if (qc_higher(*qc, prepare_qc_high_)) prepare_qc_high_ = *qc;
    persist();  // durable before the PRE-COMMIT notice leaves
  }
  announce_qc(std::move(*qc));
}

// ---------------------------------------------------------------------------
// Replica: QC notices (PRE-COMMIT / COMMIT / DECIDE)
// ---------------------------------------------------------------------------

void HotStuffReplica::on_qc_notice(ReplicaId from, types::QcNoticeMsg msg) {
  if (msg.aux) return;
  if (!admit(from, msg.view, &msg.qc, msg.phase == Phase::kDecide)) return;
  const QuorumCert& qc = msg.qc;
  switch (msg.phase) {
    case Phase::kPreCommit: {
      if (qc.type != QcType::kPrepare || qc.view != cview_) return;
      if (!verify_qc(qc)) return;
      if (qc_higher(qc, prepare_qc_high_)) prepare_qc_high_ = qc;
      persist();  // write-ahead voting: durable before the vote leaves
      send_vote(from, sign_vote(Phase::kPreCommit, certified(qc)), qc.height);
      return;
    }
    case Phase::kCommit: {
      if (qc.type != QcType::kPreCommit || qc.view != cview_) return;
      if (!verify_qc(qc)) return;
      if (qc_higher(qc, locked_qc_)) locked_qc_ = qc;  // become locked
      persist();  // write-ahead voting: the lock is durable before the vote
      send_vote(from, sign_vote(Phase::kCommit, certified(qc)), qc.height);
      return;
    }
    case Phase::kDecide: {
      if (qc.type != QcType::kCommit) return;
      if (!verify_qc(qc)) return;
      commit_to(qc.block_hash, from);
      return;
    }
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// View change (NEW-VIEW)
// ---------------------------------------------------------------------------

types::ViewChangeMsg HotStuffReplica::view_change_msg() const {
  types::ViewChangeMsg m;
  m.last_voted = certified(prepare_qc_high_);
  m.high_qc = Justify{prepare_qc_high_, {}};
  return m;
}

bool HotStuffReplica::view_change_justify_ok(const Justify& j) {
  return j.qc && !j.vc && j.qc->type == QcType::kPrepare && verify_qc(*j.qc);
}

void HotStuffReplica::lead_view_change(const ViewChangeSet& msgs) {
  ++vcs_led_;
  for (const auto& [sender, m] : msgs) {
    if (qc_higher(*m.high_qc.qc, prepare_qc_high_)) {
      prepare_qc_high_ = *m.high_qc.qc;
    }
  }
  persist();  // durable before the NEW-VIEW re-proposal leaves
  // HotStuff's NEW-VIEW resolution always re-proposes from highQC —
  // there is no happy/unhappy split, so the `a` operand is always 0.
  trace({.type = obs::EventType::kViewChangeEnd,
         .height = prepare_qc_high_.height,
         .block = trace_block_id(prepare_qc_high_.block_hash),
         .a = 0});
  propose_ready_ = true;
  propose(/*force=*/true);
}

}  // namespace marlin::consensus
