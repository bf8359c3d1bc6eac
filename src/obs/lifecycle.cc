#include "obs/lifecycle.h"

#include <unordered_map>

namespace marlin::obs {

namespace {

// Folds one block-milestone event into its block's lifecycle.
void fold(BlockLifecycle& b, const TraceEvent& e) {
  switch (e.type) {
    case EventType::kProposalSent:
      if (!b.proposed) {
        b.proposed = true;
        b.leader = e.node;
        b.proposed_at = e.at;
      }
      break;
    case EventType::kBatchDequeued:
      b.batch = true;
      b.batch_wait = Duration::nanos(static_cast<std::int64_t>(e.b));
      break;
    case EventType::kProposalReceived:
      ++b.proposals_received;
      b.last_proposal_received = e.at;
      break;
    case EventType::kVoteSent:
      b.first_vote_sent.try_emplace({e.phase, e.node}, e.at);
      break;
    case EventType::kVoteReceived:
      b.last_vote_received[e.phase] =
          VoteReceipt{e.at, static_cast<std::uint32_t>(e.a)};
      break;
    case EventType::kQcFormed: {
      BlockLifecycle::Qc qc{e.phase, e.at, e.node, std::nullopt};
      const auto it = b.last_vote_received.find(e.phase);
      if (it != b.last_vote_received.end()) qc.completing_vote = it->second;
      b.qcs.push_back(qc);
      break;
    }
    case EventType::kCommit:
      if (!b.committed) {
        b.committed = true;
        b.first_commit = e.at;
        b.first_committer = e.node;
      }
      b.last_commit = e.at;
      break;
    case EventType::kReplyAccepted:
      b.replied = true;
      b.last_reply = e.at;
      break;
    default:
      break;
  }
}

}  // namespace

std::optional<TimePoint> BlockLifecycle::first_vote_of_phase(
    std::uint8_t phase) const {
  std::optional<TimePoint> first;
  for (auto it = first_vote_sent.lower_bound({phase, 0});
       it != first_vote_sent.end() && it->first.first == phase; ++it) {
    if (!first || it->second < *first) first = it->second;
  }
  return first;
}

LifecycleIndex index_lifecycles(const std::vector<TraceEvent>& events) {
  LifecycleIndex idx;
  std::unordered_map<std::uint64_t, std::size_t> slot;  // block -> blocks[i]

  for (const TraceEvent& e : events) {
    switch (e.type) {
      case EventType::kMsgDelivered:
        idx.deliveries.push_back({e.at, e.node, static_cast<std::uint32_t>(e.a),
                                  e.kind, e.b, e.c});
        break;
      case EventType::kSigVerify:
        idx.verifies.push_back({e.at, e.node, e.c});
        break;
      case EventType::kWalWrite:
      case EventType::kSstableWrite:
      case EventType::kCheckpoint:
        idx.storage_writes.push_back(e.at);
        break;
      case EventType::kProposalSent:
      case EventType::kBatchDequeued:
      case EventType::kProposalReceived:
      case EventType::kVoteSent:
      case EventType::kVoteReceived:
      case EventType::kQcFormed:
      case EventType::kCommit:
      case EventType::kReplyAccepted: {
        if (e.block == 0) break;  // view-change bundles carry no single id
        const auto [it, inserted] =
            slot.try_emplace(e.block, idx.blocks.size());
        if (inserted) idx.blocks.emplace_back().block = e.block;
        BlockLifecycle& b = idx.blocks[it->second];
        if (b.view == 0) b.view = e.view;
        if (b.height == 0) b.height = e.height;
        fold(b, e);
        break;
      }
      default:
        break;
    }
  }
  return idx;
}

}  // namespace marlin::obs
