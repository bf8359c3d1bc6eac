#include "obs/span.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "obs/export.h"
#include "obs/lifecycle.h"

namespace marlin::obs {

namespace {

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

// Queueing vs wire time of the proposal frames delivered in [begin, end].
CostKind broadcast_dominant(const LifecycleIndex& idx, TimePoint begin,
                            TimePoint end) {
  std::uint64_t queue = 0, wire = 0;
  auto it = std::lower_bound(
      idx.deliveries.begin(), idx.deliveries.end(), begin,
      [](const Delivery& d, TimePoint t) { return d.at < t; });
  for (; it != idx.deliveries.end() && it->at <= end; ++it) {
    if (it->kind != kKindProposal) continue;
    queue += it->queue_ns;
    wire += it->transit_ns >= it->queue_ns ? it->transit_ns - it->queue_ns : 0;
  }
  if (queue == 0 && wire == 0) return CostKind::kLink;
  return queue > wire ? CostKind::kQueue : CostKind::kLink;
}

CostKind votes_dominant(const LifecycleIndex& idx, std::uint32_t leader,
                        TimePoint begin, TimePoint end) {
  // The leader serializes quorum-size verification; when its charged
  // crypto CPU covers at least half the round, CPU — not the network —
  // bounds the round.
  std::uint64_t crypto_ns = 0;
  auto lo = std::lower_bound(
      idx.verifies.begin(), idx.verifies.end(), begin,
      [](const VerifyCharge& v, TimePoint t) { return v.at < t; });
  for (; lo != idx.verifies.end() && lo->at <= end; ++lo) {
    if (lo->node == leader) crypto_ns += lo->charge_ns;
  }
  const auto dur = static_cast<std::uint64_t>((end - begin).as_nanos());
  return crypto_ns * 2 >= dur && crypto_ns > 0 ? CostKind::kCrypto
                                               : CostKind::kLink;
}

CostKind commit_dominant(const LifecycleIndex& idx, TimePoint begin,
                         TimePoint end) {
  const auto lo = std::lower_bound(idx.storage_writes.begin(),
                                   idx.storage_writes.end(), begin);
  return (lo != idx.storage_writes.end() && *lo <= end) ? CostKind::kStorage
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
  const LifecycleIndex idx = index_lifecycles(events);
  std::vector<BlockSpans> out;
  out.reserve(idx.blocks.size());
  for (const BlockLifecycle& b : idx.blocks) {
    if (!b.proposed) continue;  // no lifecycle without a proposal

    BlockSpans bs;
    bs.block = b.block;
    bs.view = b.view;
    bs.height = b.height;
    bs.committed = b.committed;

    auto child = [&](std::string name, TimePoint begin, TimePoint end,
                     CostKind dominant, std::uint32_t node) {
      bs.children.push_back(Span{std::move(name), node, b.block, b.view,
                                 b.height, begin, end, dominant});
    };

    TimePoint begin = b.proposed_at;
    if (b.batch && b.batch_wait > Duration::zero()) {
      begin = b.proposed_at - b.batch_wait;
      child("txpool.wait", begin, b.proposed_at, CostKind::kQueue, b.leader);
    }
    if (b.proposals_received > 0 &&
        b.last_proposal_received >= b.proposed_at) {
      child("proposal.broadcast", b.proposed_at, b.last_proposal_received,
            broadcast_dominant(idx, b.proposed_at, b.last_proposal_received),
            b.leader);
    }
    for (const BlockLifecycle::Qc& qc : b.qcs) {
      const std::optional<TimePoint> first = b.first_vote_of_phase(qc.phase);
      if (!first || *first > qc.at) continue;
      child(std::string("votes.") + trace_phase_name(qc.phase), *first, qc.at,
            votes_dominant(idx, qc.node, *first, qc.at), qc.node);
    }
    if (b.committed) {
      child("commit.spread", b.first_commit, b.last_commit,
            commit_dominant(idx, b.first_commit, b.last_commit), b.leader);
      if (b.replied && b.last_reply >= b.first_commit) {
        child("reply.delivery", b.first_commit, b.last_reply, CostKind::kLink,
              b.leader);
      }
    }

    TimePoint end = b.proposed_at;
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
    bs.umbrella = Span{"block",  b.leader, b.block, b.view,
                       b.height, begin,    end,     dominant};
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
