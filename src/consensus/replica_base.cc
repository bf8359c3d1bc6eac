#include "consensus/replica_base.h"

#include <algorithm>
#include <bit>

namespace marlin::consensus {

std::optional<crypto::SigGroup> VoteCollector::add(
    Phase phase, const Hash256& block, const crypto::PartialSig& sig) {
  Slot& slot = slots_[Key{static_cast<std::uint8_t>(phase), block}];
  if (slot.formed) return std::nullopt;
  if (!slot.signers.insert(sig.signer).second) return std::nullopt;
  slot.sigs.push_back(sig);
  if (slot.sigs.size() < threshold_) return std::nullopt;
  slot.formed = true;
  return crypto::SigGroup::combine(slot.sigs, threshold_);
}

std::uint32_t VoteCollector::count(Phase phase, const Hash256& block) const {
  auto it = slots_.find(Key{static_cast<std::uint8_t>(phase), block});
  return it == slots_.end()
             ? 0
             : static_cast<std::uint32_t>(it->second.signers.size());
}

ReplicaBase::ReplicaBase(ReplicaConfig config,
                         const crypto::SignatureSuite& suite,
                         ProtocolEnv& env, std::string domain,
                         std::initializer_list<Phase> vote_phases,
                         bool virtual_blocks)
    : config_(config),
      env_(env),
      domain_(std::move(domain)),
      suite_(suite),
      signer_(suite.signer(config.id)),
      verifier_(suite.verifier()),
      votes_(config.quorum.quorum()),
      virtual_blocks_(virtual_blocks) {
  for (Phase p : vote_phases) vote_phases_ |= 1u << static_cast<unsigned>(p);
  committed_hash_ = store_.genesis_hash();
  peer_timeout_view_.assign(config_.quorum.n, 0);
}

void ReplicaBase::start() {
  // Fresh replicas begin at view 1; a restored replica re-enters the view
  // it had durably reached (never below 1, never rewinding).
  cview_ = std::max<ViewNumber>(cview_, 1);
  env_.entered_view(cview_);
  if (is_leader()) {
    propose_ready_ = true;
    maybe_propose();
  }
}

PersistentState ReplicaBase::base_persistent_state(PersistedProtocol p) const {
  PersistentState ps;
  ps.protocol = p;
  ps.view = cview_;
  ps.committed_height = committed_height_;
  ps.committed_hash = committed_hash_;
  return ps;
}

void ReplicaBase::restore(const PersistentState& ps) {
  cview_ = ps.view;
  committed_hash_ = ps.committed_hash;
  committed_height_ = ps.committed_height;
}

void ReplicaBase::handle_message(ReplicaId from, const Envelope& envelope) {
  // An amnesia-recovering replica must not act on protocol traffic: it
  // cannot know what it voted before the disk was lost, so voting (or
  // proposing) again could equivocate. Client ops still pool, and the
  // fetch/snapshot plane stays open — that's how recovery completes.
  if (recovering_) {
    switch (envelope.kind) {
      case MsgKind::kProposal:
      case MsgKind::kVote:
      case MsgKind::kQcNotice:
      case MsgKind::kViewChange:
      case MsgKind::kTimeoutNotice:
        return;
      default:
        break;
    }
  }
  switch (envelope.kind) {
    case MsgKind::kClientRequest: {
      auto msg = types::open_envelope<types::ClientRequestMsg>(envelope);
      if (msg.is_ok()) {
        for (types::Operation& op : msg.value().ops) {
          pool_.add(std::move(op), env_.now());
        }
        maybe_propose();
      }
      return;
    }
    case MsgKind::kProposal: {
      auto msg = types::open_envelope<types::ProposalMsg>(envelope);
      if (msg.is_ok()) on_proposal(from, std::move(msg).take());
      return;
    }
    case MsgKind::kVote: {
      auto msg = types::open_envelope<types::VoteMsg>(envelope);
      if (msg.is_ok()) on_vote(from, std::move(msg).take());
      return;
    }
    case MsgKind::kQcNotice: {
      auto msg = types::open_envelope<types::QcNoticeMsg>(envelope);
      if (msg.is_ok()) on_qc_notice(from, std::move(msg).take());
      return;
    }
    case MsgKind::kViewChange: {
      auto msg = types::open_envelope<types::ViewChangeMsg>(envelope);
      if (msg.is_ok()) on_view_change(from, std::move(msg).take());
      return;
    }
    case MsgKind::kFetchRequest: {
      auto msg = types::open_envelope<types::FetchRequestMsg>(envelope);
      if (msg.is_ok()) on_fetch_request(from, msg.value());
      return;
    }
    case MsgKind::kFetchResponse: {
      auto msg = types::open_envelope<types::FetchResponseMsg>(envelope);
      if (msg.is_ok()) on_fetch_response(from, std::move(msg).take());
      return;
    }
    case MsgKind::kSnapshotRequest: {
      auto msg = types::open_envelope<types::SnapshotRequestMsg>(envelope);
      if (msg.is_ok()) on_snapshot_request(from, msg.value());
      return;
    }
    case MsgKind::kSnapshotResponse: {
      auto msg = types::open_envelope<types::SnapshotResponseMsg>(envelope);
      if (msg.is_ok()) on_snapshot_response(from, std::move(msg).take());
      return;
    }
    case MsgKind::kTimeoutNotice: {
      auto msg = types::open_envelope<types::TimeoutNoticeMsg>(envelope);
      if (msg.is_ok()) on_timeout_notice(from, msg.value());
      return;
    }
    case MsgKind::kClientReply:
      return;  // replicas never receive replies
  }
}

void ReplicaBase::on_view_timeout() {
  if (cview_ == 0) return;
  trace({.type = obs::EventType::kTimeoutFired});
  // Quorum-gated advance: announce the timeout (rebroadcast on every
  // subsequent fire, so lost notices heal) and advance only once f+1
  // replicas are known to have timed out of this view. The local entry is
  // set directly rather than waiting for the loopback delivery.
  peer_timeout_view_[config_.id] =
      std::max(peer_timeout_view_[config_.id], cview_);
  broadcast(types::make_envelope(MsgKind::kTimeoutNotice,
                                 types::TimeoutNoticeMsg{cview_}));
  check_timeout_quorum();
}

void ReplicaBase::on_timeout_notice(ReplicaId from,
                                    const types::TimeoutNoticeMsg& msg) {
  if (from >= config_.quorum.n) return;
  if (msg.view <= peer_timeout_view_[from]) return;
  peer_timeout_view_[from] = msg.view;
  check_timeout_quorum();
}

void ReplicaBase::check_timeout_quorum() {
  if (cview_ == 0) return;
  // v* = highest view that f+1 distinct replicas have timed out of (the
  // (f+1)-th largest entry). Advancing to v*+1 is justified: at least one
  // correct replica timed out at or above v*, so waiting in any view ≤ v*
  // cannot make progress. Jumps over multiple dead views in one step.
  std::vector<ViewNumber> sorted = peer_timeout_view_;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const ViewNumber vstar = sorted[config_.quorum.f];
  if (vstar >= cview_) enter_view(vstar + 1, /*send_view_change=*/true);
}

// ---------------------------------------------------------------------------
// Normal-case skeleton
// ---------------------------------------------------------------------------

void ReplicaBase::maybe_propose() {
  if (recovering() || propose_held()) return;
  if (cview_ == 0 || !is_leader() || !propose_ready_) return;
  if (pool_.empty() && !config_.allow_empty_blocks) return;
  propose(false);
}

void ReplicaBase::propose_on(const QuorumCert& qc, bool force) {
  std::vector<types::Operation> batch = make_batch(force);
  if (batch.empty() && !force && !config_.allow_empty_blocks) return;

  Block b = child_of(Justify{qc, {}}, cview_, std::move(batch));
  const Height proposed_height = b.height;
  const std::size_t proposed_ops = b.ops.size();

  types::ProposalMsg msg;
  msg.phase = Phase::kPrepare;
  msg.view = cview_;
  msg.entries.push_back(types::ProposalEntry{std::move(b), Justify{qc, {}}});
  const Envelope env = types::make_envelope(MsgKind::kProposal, msg);
  const Hash256 proposed_hash = store_proposed(env);
  propose_ready_ = false;
  broadcast(env);
  if (proposed_ops > 0) {
    trace({.type = obs::EventType::kBatchDequeued,
           .height = proposed_height,
           .block = trace_block_id(proposed_hash),
           .a = proposed_ops,
           .b = static_cast<std::uint64_t>(last_batch_wait_.as_nanos())});
  }
  trace({.type = obs::EventType::kProposalSent,
         .phase = static_cast<std::uint8_t>(Phase::kPrepare),
         .height = proposed_height,
         .block = trace_block_id(proposed_hash),
         .a = proposed_ops});
}

Block ReplicaBase::child_of(Justify j, ViewNumber v,
                           std::vector<types::Operation> ops) {
  Block b;
  b.parent_link = j.qc->block_hash;
  b.parent_view = j.qc->block_view;
  b.view = v;
  b.height = j.qc->height + 1;
  b.ops = std::move(ops);
  b.justify = std::move(j);
  return b;
}

bool ReplicaBase::admit(ReplicaId from, ViewNumber view, const QuorumCert* qc,
                        bool stale_ok) {
  if (view < cview_) return stale_ok;
  if (from != leader_of(view)) return false;
  if (view > cview_) {
    // View sync: adopt a higher view when its leader shows a valid QC.
    if (!qc || !verify_qc(*qc)) return false;
    enter_view(view, /*send_view_change=*/false);
  }
  return true;
}

bool ReplicaBase::extends_justify(const Block& b, const Justify& j) {
  if (!j.qc || j.vc || j.qc->type != QcType::kPrepare) return false;
  const QuorumCert& qc = *j.qc;
  if (b.view != cview_ || b.virtual_block) return false;
  if (b.parent_link != qc.block_hash || b.height != qc.height + 1 ||
      b.parent_view != qc.block_view) {
    return false;
  }
  if (b.justify.qc != j.qc) return false;  // block's own justify must match
  return verify_qc(qc);
}

Hash256 ReplicaBase::charged_hash(const Block& b) {
  env_.charge_hash_bytes(hash_bytes(b));
  return b.hash();
}

types::VoteMsg ReplicaBase::accept_block(ReplicaId from, Phase phase, Block b,
                                         const BlockRef& ref) {
  // A decoded block moves into the store: its ops keep aliasing the
  // proposal frame and its digest stays memoized.
  store_.insert(std::move(b));
  trace({.type = obs::EventType::kProposalReceived,
         .phase = static_cast<std::uint8_t>(phase),
         .height = ref.height,
         .block = trace_block_id(ref.hash),
         .a = from});
  return sign_vote(phase, ref);
}

std::optional<QcType> ReplicaBase::qc_type_of(Phase phase) const {
  if ((vote_phases_ & (1u << static_cast<unsigned>(phase))) == 0) {
    return std::nullopt;
  }
  switch (phase) {
    case Phase::kPrePrepare: return QcType::kPrePrepare;
    case Phase::kPrepare: return QcType::kPrepare;
    case Phase::kPreCommit: return QcType::kPreCommit;
    case Phase::kCommit: return QcType::kCommit;
    case Phase::kDecide: break;  // a notice, never a vote
  }
  return std::nullopt;
}

Hash256 ReplicaBase::vote_digest(QcType type, ViewNumber view,
                                 const BlockRef& ref) const {
  return types::vote_digest(domain_, type, view, ref.hash, ref.view,
                            ref.height, ref.pview,
                            virtual_blocks_ && ref.virtual_block);
}

QuorumCert ReplicaBase::make_qc(QcType type, const BlockRef& ref,
                                crypto::SigGroup sigs) const {
  QuorumCert qc;
  qc.type = type;
  qc.view = cview_;
  qc.block_hash = ref.hash;
  qc.block_view = ref.view;
  qc.height = ref.height;
  qc.pview = ref.pview;
  qc.virtual_block = virtual_blocks_ && ref.virtual_block;
  qc.sigs = std::move(sigs);
  return qc;
}

types::VoteMsg ReplicaBase::sign_vote(Phase phase, const BlockRef& ref) {
  types::VoteMsg vote;
  vote.phase = phase;
  vote.view = cview_;
  vote.block_hash = ref.hash;
  vote.parsig = sign_digest(vote_digest(*qc_type_of(phase), cview_, ref));
  return vote;
}

void ReplicaBase::send_vote(ReplicaId to, const types::VoteMsg& vote,
                            Height height) {
  send_to(to, types::make_envelope(MsgKind::kVote, vote));
  trace({.type = obs::EventType::kVoteSent,
         .phase = static_cast<std::uint8_t>(vote.phase),
         .height = height,
         .block = trace_block_id(vote.block_hash),
         .a = to});
}

const Block* ReplicaBase::accept_vote(ReplicaId from,
                                      const types::VoteMsg& msg) {
  // Only the current view's leader counts votes, only for blocks it
  // stored, and only in phases this protocol votes in; anything else is
  // dropped before any verification.
  if (msg.view != cview_ || !is_leader()) return nullptr;
  const std::optional<QcType> type = qc_type_of(msg.phase);
  const Block* b = store_.get(msg.block_hash);
  if (!type || !b) return nullptr;
  const Hash256 digest = vote_digest(*type, cview_, ref_of(*b, msg.block_hash));
  if (!verify_partial(msg.parsig, digest)) return nullptr;
  trace({.type = obs::EventType::kVoteReceived,
         .phase = static_cast<std::uint8_t>(msg.phase),
         .height = b->height,
         .block = trace_block_id(msg.block_hash),
         .a = from,
         .b = votes_.count(msg.phase, msg.block_hash) + 1});
  return b;
}

std::optional<QuorumCert> ReplicaBase::add_vote(const types::VoteMsg& msg,
                                                const Block& b) {
  auto group = votes_.add(msg.phase, msg.block_hash, msg.parsig);
  if (!group) return std::nullopt;
  QuorumCert qc = make_qc(*qc_type_of(msg.phase), ref_of(b, msg.block_hash),
                          std::move(*group));
  trace({.type = obs::EventType::kQcFormed,
         .phase = static_cast<std::uint8_t>(msg.phase),
         .height = b.height,
         .block = trace_block_id(msg.block_hash)});
  return qc;
}

void ReplicaBase::announce_qc(QuorumCert qc) {
  unsigned next = static_cast<unsigned>(qc.type) + 1;
  while (next < static_cast<unsigned>(Phase::kDecide) &&
         (vote_phases_ & (1u << next)) == 0) {
    ++next;
  }
  const Phase phase = static_cast<Phase>(next);
  const Height height = qc.height;
  const Hash256 block = qc.block_hash;
  const bool ready = config_.pipelined ? qc.type == QcType::kPrepare
                                       : qc.type == QcType::kCommit;
  broadcast(types::make_envelope(
      MsgKind::kQcNotice, types::QcNoticeMsg{phase, cview_, std::move(qc), {}}));
  trace({.type = obs::EventType::kPhaseTransition,
         .phase = static_cast<std::uint8_t>(phase),
         .height = height,
         .block = trace_block_id(block)});
  if (ready) {
    propose_ready_ = true;
    maybe_propose();
  }
}

// ---------------------------------------------------------------------------
// View entry and VIEW-CHANGE collection
// ---------------------------------------------------------------------------

void ReplicaBase::enter_view(ViewNumber v, bool send_view_change) {
  // Views only move forward, so each view is entered — and its
  // VIEW-CHANGE sent — at most once.
  if (v <= cview_) return;
  cview_ = v;
  propose_ready_ = false;
  votes_.clear();
  while (!view_changes_.empty() && view_changes_.begin()->first < v) {
    view_changes_.erase(view_changes_.begin());
  }
  // The entered view is durable: a restart must never rewind cview_ and
  // accept (or vote on) traffic from a view it already left.
  persist();
  env_.entered_view(v);

  if (send_view_change) {
    trace({.type = obs::EventType::kViewChangeStart});
    types::ViewChangeMsg m = view_change_msg();
    m.view = v;
    m.parsig = sign_digest(vote_digest(QcType::kPrepare, v, m.last_voted));
    send_to(leader_of(v), types::make_envelope(MsgKind::kViewChange, m));
  }
  if (is_leader()) check_view_change_quorum();
}

void ReplicaBase::on_view_change(ReplicaId from, types::ViewChangeMsg msg) {
  // The parsig re-signs lb as a prepare vote of the new view (the
  // happy-path digest a Marlin leader combines into a prepareQC).
  if (msg.view < cview_ || msg.parsig.signer != from) return;
  const Hash256 digest =
      vote_digest(QcType::kPrepare, msg.view, msg.last_voted);
  if (!verify_partial(msg.parsig, digest)) return;
  if (!view_change_justify_ok(msg.high_qc)) return;

  const ViewNumber view = msg.view;
  ViewChangeState& st = view_changes_[view];
  st.msgs.emplace(from, std::move(msg));
  // f + 1 distinct VIEW-CHANGEs for a higher view: join it.
  if (view > cview_ && st.msgs.size() >= config_.quorum.f + 1) {
    enter_view(view, /*send_view_change=*/true);
    return;
  }
  if (view == cview_ && is_leader()) check_view_change_quorum();
}

void ReplicaBase::check_view_change_quorum() {
  auto it = view_changes_.find(cview_);
  if (it == view_changes_.end()) return;
  ViewChangeState& st = it->second;
  if (st.acted || st.msgs.size() < quorum()) return;
  st.acted = true;
  lead_view_change(st.msgs);
}

void ReplicaBase::adopt_recovery(const Block& tip) {
  // Re-anchor an amnesiac on the snapshot tip: its justify certifies the
  // tip's (committed) parent, so after verification it is the freshest QC
  // a replica with no durable state can trust. Raising the voted state to
  // the tip and jumping to its view means we never vote again at a (view,
  // height) our forgotten pre-wipe self may have signed.
  if (!tip.justify.qc || !verify_qc(*tip.justify.qc)) return;
  const QuorumCert& qc = *tip.justify.qc;
  adopt_recovery_tip(tip, qc);
  enter_view(std::max(tip.view, qc.view), /*send_view_change=*/false);
  persist();
}

Hash256 ReplicaBase::store_proposed(const Envelope& env) {
  types::ProposalMsg sent =
      std::move(types::open_envelope<types::ProposalMsg>(env)).take();
  Block& b = sent.entries.front().block;
  const Hash256 h = charged_hash(b);
  store_.insert(std::move(b));
  return h;
}

void ReplicaBase::submit(types::Operation op) {
  pool_.add(std::move(op), env_.now());
  maybe_propose();
}

bool ReplicaBase::verify_qc(const QuorumCert& qc) {
  if (qc.is_genesis()) {
    // Valid by convention iff it names the actual genesis block.
    return qc.block_hash == store_.genesis_hash() && qc.sigs.parts.empty() &&
           !qc.is_threshold_form();
  }
  const Hash256 digest = qc.signed_digest(domain_);
  if (verified_qc_digests_.count(digest) > 0) return true;
  bool ok;
  if (qc.is_threshold_form()) {
    // BLS-class verification: two pairings, size-independent.
    env_.charge_pairings(2);
    ok = suite_.threshold_verify(digest.view(), qc.threshold_sig);
  } else {
    env_.charge_verifies(static_cast<std::uint32_t>(qc.sigs.parts.size()));
    ok = qc.sigs.verify(verifier_, digest.view(), quorum());
  }
  if (!ok) {
    MLOG_WARN("replica %u: invalid QC %s", config_.id, qc.to_string().c_str());
    return false;
  }
  verified_qc_digests_.insert(digest);
  return true;
}

void ReplicaBase::finalize_qc(QuorumCert& qc) {
  const Hash256 digest = qc.signed_digest(domain_);
  if (config_.use_threshold_sigs) {
    std::vector<std::pair<ReplicaId, Bytes>> parts;
    parts.reserve(qc.sigs.parts.size());
    for (const auto& p : qc.sigs.parts) parts.emplace_back(p.signer, p.sig);
    env_.charge_combine_shares(static_cast<std::uint32_t>(parts.size()));
    auto combined = suite_.threshold_combine(digest.view(), parts, quorum());
    if (combined) {
      qc.threshold_sig = std::move(*combined);
      qc.sigs = crypto::SigGroup{};
    }
  }
  // A locally formed certificate is valid by construction.
  verified_qc_digests_.insert(digest);
}

crypto::PartialSig ReplicaBase::sign_digest(const Hash256& digest) {
  if (config_.use_threshold_sigs) {
    env_.charge_threshold_signs(1);
  } else {
    env_.charge_signs(1);
  }
  return crypto::PartialSig{config_.id, signer_->sign(digest.view())};
}

bool ReplicaBase::verify_partial(const crypto::PartialSig& sig,
                                 const Hash256& digest) {
  if (config_.use_threshold_sigs) {
    env_.charge_pairings(2);  // BLS-class share verification
  } else {
    env_.charge_verifies(1);
  }
  return verifier_.verify(sig.signer, digest.view(), sig.sig);
}

std::vector<types::Operation> ReplicaBase::make_batch(bool force) {
  auto batch = pool_.next_batch(config_.max_batch_ops);
  if (batch.empty()) {
    last_batch_wait_ = Duration::zero();
    if (!force && !config_.allow_empty_blocks) return {};
    return batch;
  }
  last_batch_wait_ = env_.now() - pool_.last_batch_oldest_enqueue();
  return batch;
}

void ReplicaBase::commit_to(const Hash256& target, ReplicaId provider) {
  if (target == committed_hash_) return;
  const Block* tip = store_.get(target);
  if (tip && tip->height <= committed_height_) {
    // Already committed (an old DECIDE re-delivered) — or a conflicting
    // chain, which the chain() walk below would catch; cheap check first.
    if (!store_.extends(committed_hash_, target)) {
      safety_violated_ = true;
      MLOG_ERROR("replica %u: SAFETY VIOLATION: commit target %s conflicts",
                 config_.id, target.short_hex().c_str());
    }
    return;
  }

  std::vector<Hash256> path = store_.chain(target, committed_hash_);
  if (path.empty()) {
    // Bodies on the path are missing. Sanity-check for an actual conflict
    // (walked to the root without meeting the committed head), then issue
    // a batched catch-up fetch for the whole range.
    const Block* bottom = store_.get(walk_down(target));
    if (bottom && bottom->is_genesis()) {
      safety_violated_ = true;
      MLOG_ERROR("replica %u: SAFETY VIOLATION at %s", config_.id,
                 target.short_hex().c_str());
      return;
    }
    // Keep the FIRST unresolved target as the catch-up anchor. Re-pointing
    // at every newer DECIDE moves the goalpost: a laggard whose
    // fetch/snapshot round-trip matches the cluster's commit cadence is
    // then perpetually one body short of the latest target and never
    // completes a path (livelock). The anchor stands still, resolves, and
    // the next DECIDE supplies a fresh (now nearby) target.
    if (!pending_commit_) pending_commit_ = PendingCommit{target, provider};
    const Hash256 anchor = pending_commit_->target;

    // Pick what to request next so successive batches converge: walk down
    // from the anchor — or, when the anchor's own body is still missing,
    // from the oldest block the previous batch delivered — to the deepest
    // known block, and request its (missing) parent's range. When the
    // bottom of the gap is already closed, the remainder is at the top:
    // request the anchor itself.
    Hash256 walk_start = anchor;
    if (!store_.get(anchor) && !last_fetched_.is_zero() &&
        store_.get(last_fetched_)) {
      walk_start = last_fetched_;
    }
    // When the walk stops on a hash with no body, that hash is the bottom
    // of the gap: request it so successive batches extend the known range
    // downward. Re-requesting the target instead would chase the advancing
    // tip forever once the gap outgrows one fetch batch.
    const Hash256 down = walk_down(walk_start);
    const Hash256 request_hash = store_.get(down) ? anchor : down;

    if (in_fetch_retry_) return;           // a batch is still streaming in
    if (fetch_inflight_ && ++fetch_stall_ < 8) return;  // one at a time
    // Re-issuing an unanswered request rotates the provider: the provider
    // hint comes from whoever sent the DECIDE, which via loopback can be
    // this very replica (a laggard leader), and may also be crashed.
    if (fetch_inflight_) ++fetch_retry_round_;
    fetch_inflight_ = true;
    fetch_stall_ = 0;
    ReplicaId source = static_cast<ReplicaId>(
        (provider + fetch_retry_round_) % config_.quorum.n);
    if (source == config_.id) {
      source = static_cast<ReplicaId>((source + 1) % config_.quorum.n);
    }
    // Far behind (gap wider than one fetch batch): request a snapshot —
    // manifest + chain suffix in ONE exchange — instead of walking
    // O(gap / kFetchBatchLimit) fetch rounds. When the anchor's body is
    // missing the gap is unknown here; the provider upgrades the fetch to
    // a snapshot on its side (see on_fetch_request).
    const Block* anchor_tip = store_.get(anchor);
    if (anchor_tip &&
        anchor_tip->height >
            committed_height_ + types::FetchRequestMsg::kFetchBatchLimit) {
      trace({.type = obs::EventType::kStateTransfer,
             .height = committed_height_,
             .block = trace_block_id(anchor),
             .a = 0});
      send_to(source,
              types::make_envelope(MsgKind::kSnapshotRequest,
                                   types::SnapshotRequestMsg{committed_height_}));
      return;
    }
    send_to(source,
            types::make_envelope(
                MsgKind::kFetchRequest,
                types::FetchRequestMsg{request_hash, committed_height_}));
    return;
  }
  reset_fetch();  // progress: the next gap issues a fresh fetch

  for (const Hash256& h : path) {
    const Block* b = store_.get(h);
    std::vector<types::Operation> executable;
    executable.reserve(b->ops.size());
    for (const types::Operation& op : b->ops) {
      if (pool_.executed(op.client, op.request)) continue;  // duplicate
      pool_.mark_committed(op);
      executable.push_back(op);
    }
    env_.deliver(*b, executable);
    trace({.type = obs::EventType::kCommit,
           .height = b->height,
           .block = trace_block_id(h),
           .a = executable.size(),
           .b = b->ops.size()});
    committed_hash_ = h;
    committed_height_ = b->height;
    ++committed_blocks_;
    // Release executed payloads once the retained-bytes budget is
    // exceeded (a released body must never be served again — its content
    // no longer matches its hash — so keep a generous catch-up window).
    const std::size_t body_bytes = types::ops_wire_size(b->ops);
    recent_committed_.emplace_back(h, body_bytes);
    retained_bytes_ += body_bytes;
    while (recent_committed_.size() > kRetainMinBlocks &&
           retained_bytes_ > kRetainBudgetBytes) {
      store_.release_ops(recent_committed_.front().first);
      retained_bytes_ -= recent_committed_.front().second;
      recent_committed_.pop_front();
    }
  }
  // Followers never drain their pools into batches; purging here keeps
  // every pool bounded by the ops still in flight.
  pool_.purge();
  // The commit frontier advanced: make it durable so a restart resumes
  // from here instead of re-fetching (and so restarted replicas never
  // re-deliver).
  persist();
  env_.progressed();
  maybe_propose();
}

void ReplicaBase::on_fetch_request(ReplicaId from,
                                   const types::FetchRequestMsg& msg) {
  // A requester more than one batch behind gets a snapshot instead: its
  // own request carried `since`, so one response closes the whole gap.
  if (committed_height_ >
      msg.since + types::FetchRequestMsg::kFetchBatchLimit) {
    serve_snapshot(from, msg.since);
    return;
  }
  // Serve the chain from the requested block down to `since`, one body
  // per response. Where it stops at a released body, the requester can
  // re-request as it closes the gap from the other side.
  for (const Block* b : servable_chain(msg.block_hash, msg.since,
                                       types::FetchRequestMsg::kFetchBatchLimit)) {
    send_to(from, types::make_envelope(MsgKind::kFetchResponse,
                                       types::FetchResponseMsg{*b}));
  }
}

void ReplicaBase::on_fetch_response(ReplicaId from,
                                    types::FetchResponseMsg msg) {
  (void)from;
  const Hash256 fetched = charged_hash(msg.block);
  store_.insert(std::move(msg.block));
  // Batches stream the chain newest first, so the previously delivered
  // body is this block's child.
  if (!last_fetched_.is_zero()) rebind_virtual_parent(last_fetched_, fetched);
  last_fetched_ = fetched;
  // Retry after each body, but suppress new fetch requests while the rest
  // of the batch is still streaming in (in_fetch_retry_); the last body of
  // the batch either completes the commit (clearing the inflight flag) or
  // the next DECIDE re-arms the fetch via the stall counter.
  in_fetch_retry_ = true;
  retry_pending_commit();
  in_fetch_retry_ = false;
}

void ReplicaBase::on_snapshot_request(ReplicaId from,
                                      const types::SnapshotRequestMsg& msg) {
  // Recovery requests are broadcast (loopback included) — never answer
  // our own.
  if (from == config_.id) return;
  serve_snapshot(from, msg.since);
}

void ReplicaBase::serve_snapshot(ReplicaId to, Height since) {
  types::SnapshotResponseMsg resp;
  resp.height = committed_height_;
  resp.head = committed_hash_;
  for (const Block* b : servable_chain(committed_hash_, since,
                                       types::SnapshotResponseMsg::kSuffixLimit)) {
    resp.suffix.push_back(*b);
  }
  // An empty suffix is still sent: "nothing newer than `since`" is the
  // confirmation an amnesia-recovering requester counts toward its f+1
  // you-are-current quorum. Only actual transfers are traced as served.
  if (!resp.suffix.empty()) {
    trace({.type = obs::EventType::kStateTransfer,
           .height = committed_height_,
           .block = trace_block_id(committed_hash_),
           .a = 1,
           .b = resp.suffix.size()});
  }
  send_to(to, types::make_envelope(MsgKind::kSnapshotResponse, resp));
}

void ReplicaBase::on_snapshot_response(ReplicaId from,
                                       types::SnapshotResponseMsg msg) {
  if (msg.suffix.empty()) {
    // "Nothing newer than your frontier." While recovering, f+1 such
    // confirmations (at least one from a correct replica) mean the lost
    // disk held nothing the cluster moved past — safe to rejoin.
    if (recovering_ && from != config_.id && msg.height <= committed_height_) {
      recovery_ack_mask_ |= 1u << (from % 32u);
      if (static_cast<std::uint32_t>(std::popcount(recovery_ack_mask_)) >=
          config_.quorum.reply_quorum()) {
        finish_recovery();
      }
    }
    return;
  }
  std::size_t body_bytes = 0;
  for (const Block& b : msg.suffix) body_bytes += hash_bytes(b);
  env_.charge_hash_bytes(body_bytes);
  // Suffix streams newest first; insert oldest first so parent links
  // resolve as we go. In a contiguous suffix the next-older block is the
  // parent, which rebinds a virtual block's parent link.
  const Hash256 oldest_hash = msg.suffix.back().hash();
  const Height oldest_height = msg.suffix.back().height;
  Hash256 below =
      (oldest_height == committed_height_ + 1) ? committed_hash_ : Hash256{};
  for (auto it = msg.suffix.rbegin(); it != msg.suffix.rend(); ++it) {
    const Hash256 h = it->hash();
    store_.insert(std::move(*it));
    if (!below.is_zero()) rebind_virtual_parent(h, below);
    below = h;
  }
  reset_fetch();
  // If the suffix does not link down to our committed head (the provider
  // released the bodies below it), adopt the manifest: fast-forward the
  // frontier to the suffix base, skipping the unfetchable region. The
  // skipped blocks are never delivered locally; the walkable prefix of
  // this replica's chain now starts at the snapshot base.
  if (oldest_height > committed_height_ + 1 &&
      !store_.extends(msg.head, committed_hash_)) {
    const Hash256 base_parent = store_.parent_of(oldest_hash);
    if (!base_parent.is_zero()) {
      committed_hash_ = base_parent;
      committed_height_ = oldest_height - 1;
      // The catch-up anchor may now sit below the skipped region; drop it
      // rather than chase an uncommittable target.
      if (pending_commit_) {
        const Block* a = store_.get(pending_commit_->target);
        if (!a || a->height <= committed_height_) pending_commit_.reset();
      }
    }
  }
  trace({.type = obs::EventType::kStateTransfer,
         .height = msg.height,
         .block = trace_block_id(msg.head),
         .a = 2,
         .b = msg.suffix.size()});
  // A recovering replica re-anchors on the snapshot tip: the protocol
  // adopts its justify QC (verified there — a lying manifest cannot plant
  // state) and recovery completes.
  if (recovering_) {
    if (const Block* tip = store_.get(msg.head)) adopt_recovery(*tip);
    finish_recovery();
  }
  // Commit toward the QC-verified pending target (NOT the provider's
  // claimed head — a lying manifest must not drive commits).
  retry_pending_commit();
}

void ReplicaBase::begin_recovery() {
  recovering_ = true;
  recovery_ack_mask_ = 0;
  send_recovery_request();
}

void ReplicaBase::recovery_tick() {
  if (recovering_) send_recovery_request();
}

void ReplicaBase::send_recovery_request() {
  trace({.type = obs::EventType::kStateTransfer,
         .height = committed_height_,
         .a = 0});
  broadcast(types::make_envelope(
      MsgKind::kSnapshotRequest, types::SnapshotRequestMsg{committed_height_}));
}

void ReplicaBase::finish_recovery() {
  if (!recovering_) return;
  recovering_ = false;
  recovery_ack_mask_ = 0;
  // The replica may have led (and proposed in) this very view before the
  // wipe; proposing in it again would equivocate. Any view advance clears
  // the hold.
  recovery_hold_view_ = cview_;
  trace({.type = obs::EventType::kStateTransfer,
         .height = committed_height_,
         .block = trace_block_id(committed_hash_),
         .a = 3});
  persist();
  maybe_propose();
}

Hash256 ReplicaBase::walk_down(Hash256 from) const {
  while (const Block* b = store_.get(from)) {
    if (b->is_genesis()) break;
    const Hash256 parent = store_.parent_of(from);
    if (parent.is_zero() || parent == committed_hash_) break;
    from = parent;
  }
  return from;
}

std::vector<const Block*> ReplicaBase::servable_chain(Hash256 from,
                                                      Height since,
                                                      std::size_t cap) const {
  std::vector<const Block*> out;
  while (out.size() < cap) {
    const Block* b = store_.get(from);
    if (!b || store_.ops_released(from)) break;
    if (b->is_genesis() || b->height <= since) break;
    out.push_back(b);
    from = store_.parent_of(from);
    if (from.is_zero()) break;
  }
  return out;
}

void ReplicaBase::rebind_virtual_parent(const Hash256& child,
                                        const Hash256& parent) {
  const Block* c = store_.get(child);
  const Block* p = store_.get(parent);
  if (!c || !p || !c->virtual_block || p->virtual_block) return;
  if (!store_.parent_of(child).is_zero()) return;
  // The child's justify certifies the grandparent, so it must match the
  // parent's own parent link.
  if (c->height != p->height + 1 || !c->justify.qc ||
      c->justify.qc->block_hash != p->parent_link) {
    return;
  }
  store_.set_virtual_parent(child, parent);
}

void ReplicaBase::reset_fetch() {
  fetch_inflight_ = false;
  fetch_stall_ = 0;
  fetch_retry_round_ = 0;
  last_fetched_ = Hash256{};
}

std::uint64_t ReplicaBase::trace_block_id(const Hash256& h) {
  std::uint64_t id = 0;
  for (int i = 0; i < 8; ++i) id = (id << 8) | h.data[i];
  return id;
}

void ReplicaBase::retry_pending_commit() {
  if (!pending_commit_) return;
  const PendingCommit pc = *pending_commit_;
  pending_commit_.reset();
  commit_to(pc.target, pc.provider);
}

}  // namespace marlin::consensus
