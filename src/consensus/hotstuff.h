// HotStuff baseline (Yin et al., PODC 2019), in the paper's event-driven
// formulation: a three-phase commit rule (PREPARE → PRE-COMMIT → COMMIT,
// then a DECIDE broadcast), linear view change via NEW-VIEW messages
// carrying the sender's highest prepareQC. Replicas lock on precommitQCs
// and accept a conflicting-branch proposal only with a higher-view justify
// (the safeNode rule). Supports the same stable-leader pipelining as our
// Marlin implementation: the leader proposes block k+1 as soon as the
// prepareQC for block k forms, which is the chained operating mode the
// paper's evaluation runs.
#pragma once

#include "consensus/replica_base.h"

namespace marlin::consensus {

class HotStuffReplica : public ReplicaBase {
 public:
  HotStuffReplica(ReplicaConfig config, const crypto::SignatureSuite& suite,
                  ProtocolEnv& env);

  PersistentState persistent_state() const override;
  void restore(const PersistentState& ps) override;

  const QuorumCert& locked_qc() const { return locked_qc_; }
  const QuorumCert& prepare_qc_high() const { return prepare_qc_high_; }
  std::uint64_t view_changes_led() const { return vcs_led_; }

 protected:
  void on_proposal(ReplicaId from, types::ProposalMsg msg) override;
  void on_vote(ReplicaId from, types::VoteMsg msg) override;
  void on_qc_notice(ReplicaId from, types::QcNoticeMsg msg) override;
  void adopt_recovery_tip(const Block& tip, const QuorumCert& qc) override;
  void propose(bool force) override;
  /// NEW-VIEW: the highest prepareQC, as both lb and high_qc.
  types::ViewChangeMsg view_change_msg() const override;
  bool view_change_justify_ok(const Justify& j) override;
  /// Adopts the highest prepareQC reported and re-proposes from it.
  void lead_view_change(const ViewChangeSet& msgs) override;

 private:
  QuorumCert prepare_qc_high_;  // highest prepareQC seen (genesis at start)
  QuorumCert locked_qc_;        // highest precommitQC seen (lock)
  ViewNumber lb_view_ = 0;      // last voted block (view, height)
  Height lb_height_ = 0;

  std::uint64_t vcs_led_ = 0;
};

}  // namespace marlin::consensus
