// Marlin (Sui, Duan, Zhang — DSN 2022): two-phase BFT with linearity.
//
// Normal case (paper Fig. 6/7): PREPARE → COMMIT, two vote rounds. Replicas
// lock on prepareQCs; COMMIT carries the prepareQC, commitQC delivery
// commits the chain.
//
// View change (paper Fig. 9): VIEW-CHANGE messages carry (lb, highQC, and a
// partial signature over lb re-signed for the new view).
//   Happy path: n−f identical lb → the leader combines the partial
//   signatures into a prepareQC and goes straight to PREPARE (2-phase VC).
//   Unhappy path: a PRE-PREPARE phase first. Leader cases:
//     V1 — highest QC is a prepareQC but someone voted beyond it: propose a
//          normal child AND a virtual grandchild as shadow blocks;
//     V2 — certainly-safe snapshot: one block;
//     V3 — two pre-prepareQCs survived: two shadow children.
//   Replica vote rules R1 (rank ≥ lock), R2 (virtual block exactly above
//   the lock → vote and attach lockedQC), R3 (pre-prepareQC of the locked
//   block itself).
// After the pre-prepare phase the leader re-announces the pre-prepared
// block via a PREPARE QC-notice (Case N2) — no new block, exactly as the
// paper's chained-mode note prescribes.
//
// Deviation (documented in DESIGN.md): a virtual block's pview is set to
// the justify QC's *formation* view rather than its block's view. The two
// coincide for every QC except happy-path view-change QCs, where the
// formation view is the one that makes the R2/vc equations consistent.
#pragma once

#include "consensus/replica_base.h"

namespace marlin::consensus {

class MarlinReplica : public ReplicaBase {
 public:
  MarlinReplica(ReplicaConfig config, const crypto::SignatureSuite& suite,
                ProtocolEnv& env);

  PersistentState persistent_state() const override;
  void restore(const PersistentState& ps) override;

  // -- introspection (tests, metrology) ------------------------------------
  const QuorumCert& locked_qc() const { return locked_qc_; }
  const Justify& high_qc() const { return high_qc_; }
  const BlockRef& last_voted() const { return lb_; }
  /// Unhappy-path view changes resolved by this replica as leader.
  std::uint64_t unhappy_view_changes() const { return unhappy_vcs_; }
  std::uint64_t happy_view_changes() const { return happy_vcs_; }

 protected:
  void on_proposal(ReplicaId from, types::ProposalMsg msg) override;
  void on_vote(ReplicaId from, types::VoteMsg msg) override;
  void on_qc_notice(ReplicaId from, types::QcNoticeMsg msg) override;
  void adopt_recovery_tip(const Block& tip, const QuorumCert& qc) override;
  /// Case N1: a child of highQC, which must be a prepareQC of this view.
  void propose(bool force) override;
  /// VIEW-CHANGE: (lb, highQC).
  types::ViewChangeMsg view_change_msg() const override;
  /// Validates the high_qc justify carried by a VIEW-CHANGE message (and
  /// by a PRE-PREPARE proposal entry).
  bool view_change_justify_ok(const Justify& j) override;
  /// Happy path when n−f lb agree, else the PRE-PREPARE phase.
  void lead_view_change(const ViewChangeSet& msgs) override;

 private:
  /// The leader's unhappy-path state for one view.
  struct PrePrepareState {
    ViewNumber view = 0;
    bool prepare_started = false;  // pre-prepare resolved (or happy path)
    // Pre-prepare proposals by hash; bool = virtual block.
    std::vector<std::pair<Hash256, bool>> proposed;
    // Formed pre-prepare sig groups awaiting the preference decision.
    std::map<Hash256, crypto::SigGroup> formed;
    // Highest R2-attached prepareQC seen (the future `vc`).
    std::optional<QuorumCert> vc_candidate;
  };
  /// The current view's pre-prepare state (reset on first use in a view).
  PrePrepareState& preprepare();

  // -- normal case ----------------------------------------------------------
  void handle_prepare_proposal(ReplicaId from, types::ProposalMsg& msg);
  void handle_commit_notice(ReplicaId from, const types::QcNoticeMsg& msg);
  void handle_decide_notice(ReplicaId from, const types::QcNoticeMsg& msg);

  // -- view change ----------------------------------------------------------
  void handle_preprepare_proposal(ReplicaId from,
                                  const types::ProposalMsg& msg);
  void handle_prepare_notice(ReplicaId from, const types::QcNoticeMsg& msg);
  void leader_check_preprepare_progress();
  /// The (qc, vc) pair rule for a QC of `type` over `block`: a
  /// pre-prepareQC for a virtual block needs `vc`, a prepareQC certifying
  /// the virtual block's parent (formed in its pview, one height below);
  /// any other QC comes without one.
  bool vc_pair_ok(QcType type, const BlockRef& block,
                  const std::optional<QuorumCert>& vc);

  // -- state updates ---------------------------------------------------------
  void update_high_qc(const Justify& j);
  void update_locked(const QuorumCert& qc);
  bool block_ref_rank_greater(ViewNumber bview, Height bheight,
                              const Justify& bjustify) const;

  BlockRef lb_;             // last voted block (genesis at start)
  QuorumCert locked_qc_;    // genesis prepareQC at start
  Justify high_qc_;         // {genesis prepareQC} at start

  PrePrepareState preprepare_;

  std::uint64_t unhappy_vcs_ = 0;
  std::uint64_t happy_vcs_ = 0;
};

}  // namespace marlin::consensus
