#include "obs/span.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "obs/export.h"

namespace marlin::obs {

namespace {

// Wire MsgKind values the span builder matches kMsgDelivered events on
// (obs stays below the types layer, so mirror the constants here; simnet's
// kind table is the authority).
constexpr std::uint8_t kKindProposal = 3;

std::string fmt_us(TimePoint t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(t.as_nanos()) / 1000.0);
  return buf;
}

std::string fmt_us(Duration d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(d.as_nanos()) / 1000.0);
  return buf;
}

// Everything the span builder needs about one block, harvested in a
// single pass over the event stream.
struct BlockAgg {
  std::uint64_t first_seq = 0;
  ViewNumber view = 0;
  Height height = 0;

  bool proposed = false;
  std::uint32_t leader = kNoNode;
  TimePoint prop_at;

  bool batch = false;
  Duration batch_wait;

  std::uint64_t proposals_received = 0;
  TimePoint last_proposal_received;

  // First kVoteSent per phase (any voter) — start of that vote round.
  std::map<std::uint8_t, TimePoint> first_vote_sent;

  struct Qc {
    std::uint8_t phase;
    TimePoint at;
    std::uint32_t node;
  };
  std::vector<Qc> qcs;  // in formation (sequence) order

  bool committed = false;
  TimePoint first_commit;
  TimePoint last_commit;

  bool replied = false;
  TimePoint last_reply;
};

// Time-sorted side tables for dominant-cost attribution inside a window.
// Event timestamps are monotone in sequence order (simulation clock), so
// plain append keeps these sorted.
struct SideTables {
  // kMsgDelivered of proposal frames: queueing vs wire split.
  std::vector<TimePoint> prop_at;
  std::vector<std::uint64_t> prop_queue_ns;  // prefix sums
  std::vector<std::uint64_t> prop_wire_ns;

  // kSigVerify charges (at, node, charge ns).
  struct Verify {
    TimePoint at;
    std::uint32_t node;
    std::uint64_t charge_ns;
  };
  std::vector<Verify> verifies;

  // kWalWrite / kSstableWrite / kCheckpoint timestamps.
  std::vector<TimePoint> storage_at;
};

// Sum of prefix-summed values over window [begin, end].
std::uint64_t window_sum(const std::vector<TimePoint>& at,
                         const std::vector<std::uint64_t>& prefix,
                         TimePoint begin, TimePoint end) {
  const auto lo = std::lower_bound(at.begin(), at.end(), begin) - at.begin();
  const auto hi = std::upper_bound(at.begin(), at.end(), end) - at.begin();
  if (hi <= lo) return 0;
  const std::uint64_t upper = prefix[static_cast<std::size_t>(hi) - 1];
  const std::uint64_t lower =
      lo == 0 ? 0 : prefix[static_cast<std::size_t>(lo) - 1];
  return upper - lower;
}

CostKind broadcast_dominant(const SideTables& side, TimePoint begin,
                            TimePoint end) {
  const std::uint64_t queue =
      window_sum(side.prop_at, side.prop_queue_ns, begin, end);
  const std::uint64_t wire =
      window_sum(side.prop_at, side.prop_wire_ns, begin, end);
  if (queue == 0 && wire == 0) return CostKind::kLink;
  return queue > wire ? CostKind::kQueue : CostKind::kLink;
}

CostKind votes_dominant(const SideTables& side, std::uint32_t leader,
                        TimePoint begin, TimePoint end) {
  // The leader serializes quorum-size verification; when its charged
  // crypto CPU covers at least half the round, CPU — not the network —
  // bounds the round.
  std::uint64_t crypto_ns = 0;
  auto lo = std::lower_bound(
      side.verifies.begin(), side.verifies.end(), begin,
      [](const SideTables::Verify& v, TimePoint t) { return v.at < t; });
  for (; lo != side.verifies.end() && lo->at <= end; ++lo) {
    if (lo->node == leader) crypto_ns += lo->charge_ns;
  }
  const auto dur = static_cast<std::uint64_t>((end - begin).as_nanos());
  return crypto_ns * 2 >= dur && crypto_ns > 0 ? CostKind::kCrypto
                                               : CostKind::kLink;
}

CostKind commit_dominant(const SideTables& side, TimePoint begin,
                         TimePoint end) {
  const auto lo =
      std::lower_bound(side.storage_at.begin(), side.storage_at.end(), begin);
  return (lo != side.storage_at.end() && *lo <= end) ? CostKind::kStorage
                                                     : CostKind::kLink;
}

}  // namespace

const char* cost_kind_name(CostKind k) {
  switch (k) {
    case CostKind::kLink:
      return "link";
    case CostKind::kQueue:
      return "queue";
    case CostKind::kCrypto:
      return "crypto";
    case CostKind::kStorage:
      return "storage";
    case CostKind::kUnattributed:
      break;
  }
  return "-";
}

std::vector<BlockSpans> build_spans(const std::vector<TraceEvent>& events) {
  std::map<std::uint64_t, BlockAgg> aggs;
  std::vector<std::uint64_t> order;  // block ids in first-touch order
  SideTables side;

  auto touch = [&](const TraceEvent& e) -> BlockAgg& {
    auto [it, inserted] = aggs.try_emplace(e.block);
    if (inserted) {
      it->second.first_seq = e.seq;
      order.push_back(e.block);
    }
    BlockAgg& agg = it->second;
    if (agg.view == 0) agg.view = e.view;
    if (agg.height == 0) agg.height = e.height;
    return agg;
  };

  for (const TraceEvent& e : events) {
    switch (e.type) {
      case EventType::kProposalSent: {
        if (e.block == 0) break;  // view-change bundles carry no single id
        BlockAgg& agg = touch(e);
        if (!agg.proposed) {
          agg.proposed = true;
          agg.leader = e.node;
          agg.prop_at = e.at;
        }
        break;
      }
      case EventType::kBatchDequeued: {
        BlockAgg& agg = touch(e);
        agg.batch = true;
        agg.batch_wait = Duration::nanos(static_cast<std::int64_t>(e.b));
        break;
      }
      case EventType::kProposalReceived: {
        if (e.block == 0) break;
        BlockAgg& agg = touch(e);
        ++agg.proposals_received;
        agg.last_proposal_received = e.at;
        break;
      }
      case EventType::kVoteSent: {
        BlockAgg& agg = touch(e);
        agg.first_vote_sent.try_emplace(e.phase, e.at);
        break;
      }
      case EventType::kQcFormed: {
        BlockAgg& agg = touch(e);
        agg.qcs.push_back({e.phase, e.at, e.node});
        break;
      }
      case EventType::kCommit: {
        BlockAgg& agg = touch(e);
        if (!agg.committed) {
          agg.committed = true;
          agg.first_commit = e.at;
        }
        agg.last_commit = e.at;
        break;
      }
      case EventType::kReplyAccepted: {
        if (e.block == 0) break;
        BlockAgg& agg = touch(e);
        agg.replied = true;
        agg.last_reply = e.at;
        break;
      }
      case EventType::kMsgDelivered: {
        if (e.kind != kKindProposal) break;
        const std::uint64_t queue = e.b;
        const std::uint64_t wire = e.c >= e.b ? e.c - e.b : 0;
        const std::uint64_t pq =
            side.prop_queue_ns.empty() ? 0 : side.prop_queue_ns.back();
        const std::uint64_t pw =
            side.prop_wire_ns.empty() ? 0 : side.prop_wire_ns.back();
        side.prop_at.push_back(e.at);
        side.prop_queue_ns.push_back(pq + queue);
        side.prop_wire_ns.push_back(pw + wire);
        break;
      }
      case EventType::kSigVerify:
        side.verifies.push_back({e.at, e.node, e.c});
        break;
      case EventType::kWalWrite:
      case EventType::kSstableWrite:
      case EventType::kCheckpoint:
        side.storage_at.push_back(e.at);
        break;
      default:
        break;
    }
  }

  std::vector<BlockSpans> out;
  out.reserve(order.size());
  for (const std::uint64_t id : order) {
    const BlockAgg& agg = aggs.at(id);
    if (!agg.proposed) continue;  // no lifecycle without a proposal

    BlockSpans bs;
    bs.block = id;
    bs.view = agg.view;
    bs.height = agg.height;
    bs.committed = agg.committed;

    auto child = [&](std::string name, TimePoint begin, TimePoint end,
                     CostKind dominant, std::uint32_t node) {
      bs.children.push_back(Span{std::move(name), node, id, agg.view,
                                 agg.height, begin, end, dominant});
    };

    TimePoint begin = agg.prop_at;
    if (agg.batch && agg.batch_wait > Duration::zero()) {
      begin = agg.prop_at - agg.batch_wait;
      child("txpool.wait", begin, agg.prop_at, CostKind::kQueue, agg.leader);
    }
    if (agg.proposals_received > 0 &&
        agg.last_proposal_received >= agg.prop_at) {
      child("proposal.broadcast", agg.prop_at, agg.last_proposal_received,
            broadcast_dominant(side, agg.prop_at, agg.last_proposal_received),
            agg.leader);
    }
    for (const BlockAgg::Qc& qc : agg.qcs) {
      auto it = agg.first_vote_sent.find(qc.phase);
      if (it == agg.first_vote_sent.end() || it->second > qc.at) continue;
      child(std::string("votes.") + trace_phase_name(qc.phase), it->second,
            qc.at, votes_dominant(side, qc.node, it->second, qc.at), qc.node);
    }
    if (agg.committed) {
      child("commit.spread", agg.first_commit, agg.last_commit,
            commit_dominant(side, agg.first_commit, agg.last_commit),
            agg.leader);
      if (agg.replied && agg.last_reply >= agg.first_commit) {
        child("reply.delivery", agg.first_commit, agg.last_reply,
              CostKind::kLink, agg.leader);
      }
    }

    TimePoint end = agg.prop_at;
    for (const Span& s : bs.children) end = std::max(end, s.end);
    // The umbrella inherits the dominant cost of its longest child.
    CostKind dominant = CostKind::kUnattributed;
    Duration longest = Duration::zero();
    for (const Span& s : bs.children) {
      if (s.duration() >= longest) {
        longest = s.duration();
        dominant = s.dominant;
      }
    }
    bs.umbrella = Span{"block",     agg.leader, id,  agg.view,
                       agg.height,  begin,      end, dominant};
    out.push_back(std::move(bs));
  }
  return out;
}

std::string spans_to_chrome_json(const std::vector<BlockSpans>& blocks) {
  // Lane (tid) per span category keeps each node's timeline readable in
  // Perfetto: one row per lifecycle stage.
  auto lane = [](const std::string& name) -> int {
    if (name == "block") return 0;
    if (name == "txpool.wait") return 1;
    if (name == "proposal.broadcast") return 2;
    if (name.rfind("votes.", 0) == 0) return 3;
    if (name == "commit.spread") return 4;
    return 5;  // reply.delivery
  };
  auto lane_name = [](int l) -> const char* {
    switch (l) {
      case 0:
        return "block";
      case 1:
        return "txpool.wait";
      case 2:
        return "proposal.broadcast";
      case 3:
        return "votes";
      case 4:
        return "commit.spread";
      default:
        return "reply.delivery";
    }
  };

  std::map<std::uint32_t, std::set<int>> lanes_by_node;
  for (const BlockSpans& bs : blocks) {
    lanes_by_node[bs.umbrella.node].insert(0);
    for (const Span& s : bs.children) {
      lanes_by_node[s.node].insert(lane(s.name));
    }
  }

  std::vector<std::string> lines;
  for (const auto& [node, lanes] : lanes_by_node) {
    lines.push_back("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                    std::to_string(node) +
                    ",\"tid\":0,\"args\":{\"name\":\"node " +
                    std::to_string(node) + "\"}}");
    for (const int l : lanes) {
      lines.push_back("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
                      std::to_string(node) + ",\"tid\":" + std::to_string(l) +
                      ",\"args\":{\"name\":\"" + lane_name(l) + "\"}}");
    }
  }

  auto emit = [&](const Span& s, bool committed) {
    std::string line = "{\"name\":\"" + s.name + "\",\"ph\":\"X\",\"pid\":" +
                       std::to_string(s.node) +
                       ",\"tid\":" + std::to_string(lane(s.name)) +
                       ",\"ts\":" + fmt_us(s.begin) +
                       ",\"dur\":" + fmt_us(s.duration()) +
                       ",\"args\":{\"block\":\"" + fmt_hex64(s.block) +
                       "\",\"view\":" + std::to_string(s.view) +
                       ",\"height\":" + std::to_string(s.height) +
                       ",\"dominant\":\"" + cost_kind_name(s.dominant) +
                       "\",\"committed\":" + (committed ? "true" : "false") +
                       "}}";
    lines.push_back(std::move(line));
  };
  for (const BlockSpans& bs : blocks) {
    emit(bs.umbrella, bs.committed);
    for (const Span& s : bs.children) emit(s, bs.committed);
  }

  // One JSON object per line (trailing commas between them) so the schema
  // checker can validate line-by-line without a full JSON parser.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    if (i + 1 < lines.size()) out += ',';
    out += '\n';
  }
  out += "]}\n";
  return out;
}

}  // namespace marlin::obs
