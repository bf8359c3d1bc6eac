// Block-lifecycle index: one pass over a time-ordered trace yields every
// proposed block's protocol milestones plus the side tables (deliveries,
// signature-verify charges, storage writes) that explain the time between
// them. The span builder and the critical-path analyzer both read this
// index, so one place decides what a trace says about a block.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace marlin::obs {

struct VoteReceipt {
  TimePoint at;
  std::uint32_t voter = kNoNode;
};

struct BlockLifecycle {
  std::uint64_t block = 0;
  ViewNumber view = 0;  // first nonzero view / height seen on the block
  Height height = 0;

  bool proposed = false;  // first kProposalSent
  std::uint32_t leader = kNoNode;
  TimePoint proposed_at;

  bool batch = false;   // last kBatchDequeued
  Duration batch_wait;  // the oldest op's txpool wait

  std::uint64_t proposals_received = 0;
  TimePoint last_proposal_received;

  /// First kVoteSent per (phase, voter).
  std::map<std::pair<std::uint8_t, std::uint32_t>, TimePoint> first_vote_sent;
  /// Latest kVoteReceived per phase, as of the end of the trace.
  std::map<std::uint8_t, VoteReceipt> last_vote_received;

  struct Qc {
    std::uint8_t phase = kNoPhase;
    TimePoint at;
    std::uint32_t node = kNoNode;
    /// The vote that completed the quorum: the block's last kVoteReceived
    /// of this phase before the QC formed.
    std::optional<VoteReceipt> completing_vote;
  };
  std::vector<Qc> qcs;  // in formation order

  bool committed = false;
  TimePoint first_commit;
  std::uint32_t first_committer = kNoNode;
  TimePoint last_commit;

  bool replied = false;
  TimePoint last_reply;

  /// Earliest kVoteSent of `phase` by any voter.
  std::optional<TimePoint> first_vote_of_phase(std::uint8_t phase) const;
};

/// kMsgDelivered: a frame dequeued at its receiver.
struct Delivery {
  TimePoint at;
  std::uint32_t to = kNoNode;
  std::uint32_t from = kNoNode;
  std::uint8_t kind = 0;
  std::uint64_t queue_ns = 0;    // busy NIC / link at the sender
  std::uint64_t transit_ns = 0;  // queueing + serialization + propagation

  /// When the frame left the sender's protocol task.
  TimePoint sent() const {
    return at - Duration::nanos(static_cast<std::int64_t>(transit_ns));
  }
};

/// kSigVerify: charged verification CPU on `node`.
struct VerifyCharge {
  TimePoint at;
  std::uint32_t node = kNoNode;
  std::uint64_t charge_ns = 0;
};

struct LifecycleIndex {
  /// Blocks in first-touch order; events without a block id are skipped.
  std::vector<BlockLifecycle> blocks;
  // Side tables, each in time order.
  std::vector<Delivery> deliveries;  // every kind
  std::vector<VerifyCharge> verifies;
  std::vector<TimePoint> storage_writes;  // WAL, sstable, checkpoint
};

/// One pass over `events`, which must be in time order (sort_by_time).
LifecycleIndex index_lifecycles(const std::vector<TraceEvent>& events);

}  // namespace marlin::obs
