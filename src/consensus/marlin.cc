#include "consensus/marlin.h"

#include <algorithm>

namespace marlin::consensus {

MarlinReplica::MarlinReplica(ReplicaConfig config,
                             const crypto::SignatureSuite& suite,
                             ProtocolEnv& env)
    : ReplicaBase(config, suite, env, "marlin",
                  {Phase::kPrePrepare, Phase::kPrepare, Phase::kCommit},
                  /*virtual_blocks=*/true) {
  locked_qc_ = QuorumCert::genesis(store_.genesis_hash());
  high_qc_.qc = locked_qc_;
  lb_ = BlockRef{store_.genesis_hash(), 0, 0, 0, false};
}

PersistentState MarlinReplica::persistent_state() const {
  PersistentState ps = base_persistent_state(PersistedProtocol::kMarlin);
  ps.last_voted = lb_;
  ps.locked_qc = locked_qc_;
  ps.high_qc = high_qc_;
  return ps;
}

void MarlinReplica::restore(const PersistentState& ps) {
  lb_ = ps.last_voted;
  locked_qc_ = ps.locked_qc;
  high_qc_ = ps.high_qc;
  ReplicaBase::restore(ps);
}

// ---------------------------------------------------------------------------
// State updates
// ---------------------------------------------------------------------------

void MarlinReplica::update_high_qc(const Justify& j) {
  if (!j.qc) return;
  if (!high_qc_.qc || types::rank_greater(*j.qc, *high_qc_.qc)) {
    high_qc_ = j;
  }
}

void MarlinReplica::update_locked(const QuorumCert& qc) {
  if (qc.type != QcType::kPrepare && qc.type != QcType::kCommit) return;
  // A commitQC locks exactly like the prepareQC it supersedes.
  QuorumCert as_lock = qc;
  as_lock.type = QcType::kPrepare;
  if (types::rank_greater(as_lock, locked_qc_)) locked_qc_ = as_lock;
}

bool MarlinReplica::block_ref_rank_greater(ViewNumber bview, Height bheight,
                                           const Justify& bjustify) const {
  // rank(b) > rank(lb): higher view, or same view + higher height +
  // justified by a prepareQC of b's own view (anti-forking clause).
  if (bview != lb_.view) return bview > lb_.view;
  if (bheight <= lb_.height) return false;
  return bjustify.qc && bjustify.qc->type == QcType::kPrepare &&
         bjustify.qc->view == bview;
}

// ---------------------------------------------------------------------------
// Normal case — leader side
// ---------------------------------------------------------------------------

void MarlinReplica::adopt_recovery_tip(const Block& tip,
                                       const QuorumCert& qc) {
  update_high_qc(tip.justify);
  update_locked(qc);
  if (tip.view > lb_.view ||
      (tip.view == lb_.view && tip.height > lb_.height)) {
    lb_ = BlockRef::of(tip);
  }
}

void MarlinReplica::propose(bool force) {
  if (!high_qc_.qc || high_qc_.qc->type != QcType::kPrepare) return;
  const QuorumCert& qc = *high_qc_.qc;
  // Case N1 on the replica side requires a justify formed in the current
  // view (genesis excepted), which holds for pipelined successors and
  // happy-path QCs alike.
  if (!(qc.view == cview_ || qc.is_genesis())) return;
  propose_on(qc, force);
}

// ---------------------------------------------------------------------------
// Normal case — replica side
// ---------------------------------------------------------------------------

void MarlinReplica::on_proposal(ReplicaId from, types::ProposalMsg msg) {
  if (msg.entries.empty()) return;
  const std::optional<QuorumCert>& sync_qc = msg.entries[0].justify.qc;
  if (!admit(from, msg.view, sync_qc ? &*sync_qc : nullptr)) return;
  switch (msg.phase) {
    case Phase::kPrepare:
      handle_prepare_proposal(from, msg);
      return;
    case Phase::kPrePrepare:
      handle_preprepare_proposal(from, msg);
      return;
    default:
      return;
  }
}

void MarlinReplica::handle_prepare_proposal(ReplicaId from,
                                            types::ProposalMsg& msg) {
  if (msg.entries.size() != 1) return;
  const Block& b = msg.entries[0].block;
  const Justify& j = msg.entries[0].justify;

  // Case N1: justify is a prepareQC formed in this view (genesis allowed
  // at bootstrap) and b extends its block.
  if (!j.qc || !(j.qc->view == cview_ || j.qc->is_genesis())) return;
  if (!extends_justify(b, j)) return;
  const QuorumCert& qc = *j.qc;
  if (!types::rank_geq(qc, locked_qc_)) return;

  const BlockRef ref = ref_of(b, charged_hash(b));
  if (!block_ref_rank_greater(b.view, b.height, b.justify)) return;
  const types::VoteMsg vote =
      accept_block(from, Phase::kPrepare, std::move(msg.entries[0].block), ref);

  // Write-ahead voting: the voted/locked state must be durable before the
  // vote leaves this replica, or a crash+restart could vote again at the
  // same (view, height) for a different block.
  lb_ = ref;
  update_high_qc(j);
  update_locked(qc);
  persist();
  send_vote(from, vote, ref.height);
}

void MarlinReplica::on_qc_notice(ReplicaId from, types::QcNoticeMsg msg) {
  if (!admit(from, msg.view, &msg.qc, msg.phase == Phase::kDecide)) return;
  switch (msg.phase) {
    case Phase::kPrepare:
      handle_prepare_notice(from, msg);
      return;
    case Phase::kCommit:
      handle_commit_notice(from, msg);
      return;
    case Phase::kDecide:
      handle_decide_notice(from, msg);
      return;
    default:
      return;
  }
}

void MarlinReplica::handle_commit_notice(ReplicaId from,
                                         const types::QcNoticeMsg& msg) {
  const QuorumCert& qc = msg.qc;
  if (qc.type != QcType::kPrepare || qc.view != cview_) return;
  if (!verify_qc(qc)) return;

  const types::VoteMsg vote = sign_vote(Phase::kCommit, certified(qc));

  // Write-ahead voting: lock on the prepareQC durably before the COMMIT
  // vote leaves.
  update_high_qc(Justify{qc, {}});
  update_locked(qc);
  persist();
  send_vote(from, vote, qc.height);
}

void MarlinReplica::handle_decide_notice(ReplicaId from,
                                         const types::QcNoticeMsg& msg) {
  const QuorumCert& qc = msg.qc;
  if (qc.type != QcType::kCommit) return;
  if (!verify_qc(qc)) return;
  update_locked(qc);
  // commit_to persists on delivery, but persist the raised lock even when
  // the commit stalls on a fetch — a restart must not rewind the lock.
  persist();
  commit_to(qc.block_hash, from);
}

// Case N2: the leader re-announces the pre-prepared block via its
// pre-prepareQC; replicas vote PREPARE on it.
void MarlinReplica::handle_prepare_notice(ReplicaId from,
                                          const types::QcNoticeMsg& msg) {
  const QuorumCert& qc = msg.qc;
  if (qc.type != QcType::kPrePrepare || qc.view != cview_) return;
  if (!verify_qc(qc)) return;
  if (!types::rank_geq(qc, locked_qc_)) return;
  if (!vc_pair_ok(qc.type, certified(qc), msg.aux)) return;
  if (msg.aux) store_.set_virtual_parent(qc.block_hash, msg.aux->block_hash);

  // Anti-forking block-rank guard: the block was proposed in this view, so
  // it outranks lb only when lb is from an older view (a second Case-N2
  // block in the same view never passes — the justify is not a prepareQC).
  if (!(qc.block_view > lb_.view)) return;

  const types::VoteMsg vote = sign_vote(Phase::kPrepare, certified(qc));

  // Write-ahead voting: record the voted block durably before the vote.
  lb_ = certified(qc);
  update_high_qc(Justify{qc, msg.aux});
  persist();
  send_vote(from, vote, qc.height);
}

// ---------------------------------------------------------------------------
// Votes — leader side
// ---------------------------------------------------------------------------

MarlinReplica::PrePrepareState& MarlinReplica::preprepare() {
  if (preprepare_.view != cview_) {
    preprepare_ = PrePrepareState{};
    preprepare_.view = cview_;
  }
  return preprepare_;
}

void MarlinReplica::on_vote(ReplicaId from, types::VoteMsg msg) {
  const Block* b = accept_vote(from, msg);
  if (!b) return;

  // R2 votes attach the voter's lockedQC — a candidate `vc`.
  if (msg.phase == Phase::kPrePrepare && msg.locked_qc) {
    const QuorumCert& attached = *msg.locked_qc;
    if (attached.type == QcType::kPrepare && verify_qc(attached)) {
      PrePrepareState& st = preprepare();
      if (!st.vc_candidate ||
          types::rank_greater(attached, *st.vc_candidate)) {
        st.vc_candidate = attached;
      }
    }
  }

  std::optional<QuorumCert> qc = add_vote(msg, *b);
  if (msg.phase == Phase::kPrePrepare) {
    // Stash the raw signature group; the QC is finalized (and, in
    // threshold mode, combined) when the preference decision picks it.
    if (qc) preprepare().formed.emplace(msg.block_hash, std::move(qc->sigs));
    leader_check_preprepare_progress();
    return;
  }
  if (!qc) return;
  finalize_qc(*qc);
  if (qc->type == QcType::kPrepare) {
    update_high_qc(Justify{*qc, {}});
    update_locked(*qc);
    persist();  // durable before the COMMIT notice leaves
  }
  announce_qc(std::move(*qc));
}

// ---------------------------------------------------------------------------
// View change
// ---------------------------------------------------------------------------

types::ViewChangeMsg MarlinReplica::view_change_msg() const {
  types::ViewChangeMsg m;
  m.last_voted = lb_;
  m.high_qc = high_qc_;
  return m;
}

bool MarlinReplica::vc_pair_ok(QcType type, const BlockRef& block,
                               const std::optional<QuorumCert>& vc) {
  // A virtual pre-prepareQC is only meaningful with vc; no other QC has one.
  if (type != QcType::kPrePrepare || !block.virtual_block) return !vc;
  return vc && vc->type == QcType::kPrepare && vc->view == block.pview &&
         vc->height + 1 == block.height && verify_qc(*vc);
}

bool MarlinReplica::view_change_justify_ok(const Justify& j) {
  if (!j.qc) return false;
  const QuorumCert& qc = *j.qc;
  if (qc.type != QcType::kPrepare && qc.type != QcType::kPrePrepare) {
    return false;
  }
  return verify_qc(qc) && vc_pair_ok(qc.type, certified(qc), j.vc);
}

void MarlinReplica::lead_view_change(const ViewChangeSet& msgs) {
  const ViewNumber v = cview_;
  PrePrepareState& st = preprepare();

  // ---- Happy path: n−f identical lb → combine into a prepareQC. ----------
  if (!config_.disable_happy_path) {
    std::map<Hash256, std::vector<const types::ViewChangeMsg*>> by_lb;
    for (const auto& [sender, m] : msgs) {
      by_lb[m.last_voted.hash].push_back(&m);
    }
    for (const auto& [hash, group] : by_lb) {
      if (group.size() < quorum()) continue;
      std::vector<crypto::PartialSig> sigs;
      sigs.reserve(group.size());
      for (const auto* m : group) sigs.push_back(m->parsig);
      auto combined = crypto::SigGroup::combine(std::move(sigs), quorum());
      if (!combined) continue;
      const BlockRef& lb = group.front()->last_voted;
      QuorumCert qc = make_qc(QcType::kPrepare, lb, std::move(*combined));
      finalize_qc(qc);
      ++happy_vcs_;
      st.prepare_started = true;
      trace({.type = obs::EventType::kViewChangeEnd,
             .height = lb.height,
             .block = trace_block_id(lb.hash),
             .a = 1});
      update_high_qc(Justify{qc, {}});
      update_locked(qc);
      persist();  // durable before the happy-path proposal leaves
      propose_ready_ = true;
      propose(/*force=*/true);
      return;
    }
  }

  // ---- Unhappy path: PRE-PREPARE phase. -----------------------------------
  ++unhappy_vcs_;

  // highQCv: the highest-ranked primary QC(s) among the messages.
  std::vector<const Justify*> candidates;
  for (const auto& [sender, m] : msgs) {
    if (!m.high_qc.qc) continue;
    if (candidates.empty()) {
      candidates.push_back(&m.high_qc);
      continue;
    }
    const int cmp = types::compare_rank(*m.high_qc.qc, *candidates[0]->qc);
    if (cmp > 0) {
      candidates.clear();
      candidates.push_back(&m.high_qc);
    } else if (cmp == 0) {
      // Same rank: keep distinct blocks only (Lemma 4: at most two).
      bool duplicate = false;
      for (const Justify* c : candidates) {
        if (c->qc->block_hash == m.high_qc.qc->block_hash) duplicate = true;
      }
      if (!duplicate && candidates.size() < 2) {
        candidates.push_back(&m.high_qc);
      }
    }
  }
  if (candidates.empty()) return;  // cannot happen: every msg validated

  // bv: highest (view, height) among reported last-voted blocks.
  const BlockRef* bv = nullptr;
  for (const auto& [sender, m] : msgs) {
    const BlockRef& ref = m.last_voted;
    if (!bv || ref.view > bv->view ||
        (ref.view == bv->view && ref.height > bv->height)) {
      bv = &ref;
    }
  }

  std::vector<types::Operation> batch = make_batch(/*force=*/true);
  types::ProposalMsg msg;
  msg.phase = Phase::kPrePrepare;
  msg.view = v;

  // One entry: the child of j's block, or the virtual grandchild, whose
  // pview is j's formation view (see header note).
  auto add_entry = [&](const Justify& j, bool virtual_block) {
    Block b = child_of(j, v, batch);
    if (virtual_block) {
      b.parent_link = Hash256{};
      b.parent_view = j.qc->view;
      b.height += 1;
      b.virtual_block = true;
    }
    // A virtual block shadows the normal one's ops, hashed already.
    env_.charge_hash_bytes(virtual_block ? kHeaderHashBytes : hash_bytes(b));
    const Hash256 h = b.hash();
    store_.insert(b);
    st.proposed.emplace_back(h, virtual_block);
    msg.entries.push_back(types::ProposalEntry{std::move(b), j});
  };

  const QuorumCert& top = *candidates[0]->qc;
  if (candidates.size() == 1 && top.type == QcType::kPrepare) {
    const bool someone_voted_higher =
        bv && (bv->view > top.block_view ||
               (bv->view == top.block_view && bv->height > top.height));
    add_entry(*candidates[0], false);  // the normal block b1
    // Case V1: add the virtual grandchild b2 (shadow ops). Else Case V2:
    // the single child suffices.
    if (someone_voted_higher) add_entry(*candidates[0], true);
  } else {
    // Case V2 (single pre-prepareQC) or V3 (two pre-prepareQCs): one child
    // per candidate, shadow-sharing the batch.
    for (const Justify* j : candidates) add_entry(*j, false);
  }

  broadcast(types::make_envelope(MsgKind::kProposal, msg));
  trace({.type = obs::EventType::kProposalSent,
         .phase = static_cast<std::uint8_t>(Phase::kPrePrepare),
         .a = batch.size(),
         .b = msg.entries.size()});
}

void MarlinReplica::handle_preprepare_proposal(ReplicaId from,
                                               const types::ProposalMsg& msg) {
  if (msg.entries.empty() || msg.entries.size() > 2) return;

  for (const types::ProposalEntry& entry : msg.entries) {
    const Block& b = entry.block;
    const Justify& j = entry.justify;
    if (!j.qc) continue;
    const QuorumCert& qc = *j.qc;

    // Justify must be formed before this view, and the block in it.
    if (qc.view >= cview_ || b.view != cview_) continue;
    if (b.justify != j) continue;  // paper: m_i.justify = m_i.block.justify
    if (!view_change_justify_ok(j)) continue;

    // Structural validity.
    if (b.virtual_block) {
      if (!b.parent_link.is_zero() || j.vc) continue;
      if (qc.type != QcType::kPrepare) continue;
      if (b.height != qc.height + 2 || b.parent_view != qc.view) continue;
    } else {
      if (b.parent_link != qc.block_hash || b.height != qc.height + 1 ||
          b.parent_view != qc.block_view) {
        continue;
      }
      if (j.vc) {
        // Parent is a virtual block: remember its resolved parent.
        store_.set_virtual_parent(qc.block_hash, j.vc->block_hash);
      }
    }

    // Vote rules R1 / R2 / R3.
    bool vote = false;
    bool attach_locked = false;
    if (types::rank_geq(qc, locked_qc_)) {
      vote = true;  // R1
    } else if (!j.vc && qc.type == QcType::kPrepare &&
               qc.view == locked_qc_.view && b.virtual_block &&
               b.height == locked_qc_.height + 1) {
      vote = true;  // R2
      attach_locked = true;
    } else if (qc.type == QcType::kPrePrepare &&
               qc.block_hash == locked_qc_.block_hash) {
      vote = true;  // R3
    }
    if (!vote) continue;

    types::VoteMsg vm =
        accept_block(from, Phase::kPrePrepare, b, ref_of(b, charged_hash(b)));
    if (attach_locked) vm.locked_qc = locked_qc_;
    send_vote(from, vm, b.height);
    // Pre-prepare votes update no replica state (lb/highQC/lockedQC).
  }
}

void MarlinReplica::leader_check_preprepare_progress() {
  PrePrepareState& st = preprepare();
  if (st.prepare_started || st.formed.empty()) return;

  // Preference: a formed pre-prepareQC for a *normal* block wins; a virtual
  // one needs the validating vc from an R2 attachment.
  const Block* chosen = nullptr;
  Hash256 chosen_hash;
  std::optional<QuorumCert> aux;

  for (const auto& [hash, is_virtual] : st.proposed) {
    auto formed_it = st.formed.find(hash);
    if (formed_it == st.formed.end()) continue;
    if (!is_virtual) {
      chosen = store_.get(hash);
      chosen_hash = hash;
      aux.reset();
      break;
    }
    const Block* b = store_.get(hash);
    if (b && vc_pair_ok(QcType::kPrePrepare, ref_of(*b, hash),
                        st.vc_candidate)) {
      chosen = b;
      chosen_hash = hash;
      aux = st.vc_candidate;
      // keep scanning: a normal block formed later still wins
    }
  }
  if (!chosen) return;

  QuorumCert qc = make_qc(QcType::kPrePrepare, ref_of(*chosen, chosen_hash),
                          st.formed.at(chosen_hash));
  finalize_qc(qc);
  st.prepare_started = true;
  trace({.type = obs::EventType::kViewChangeEnd,
         .height = chosen->height,
         .block = trace_block_id(chosen_hash),
         .a = 0});
  trace({.type = obs::EventType::kPhaseTransition,
         .phase = static_cast<std::uint8_t>(Phase::kPrepare),
         .height = chosen->height,
         .block = trace_block_id(chosen_hash)});
  if (aux) {
    store_.set_virtual_parent(chosen_hash, aux->block_hash);
  }
  update_high_qc(Justify{qc, aux});
  persist();  // durable before the Case-N2 re-announce leaves

  types::QcNoticeMsg notice{Phase::kPrepare, cview_, std::move(qc), aux};
  broadcast(types::make_envelope(MsgKind::kQcNotice, notice));
}

}  // namespace marlin::consensus
