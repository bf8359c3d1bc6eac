// Causal span stitching: turns the flat TraceEvent stream into per-block
// lifecycle spans (client submit -> txpool wait -> proposal broadcast ->
// per-phase vote collection -> QC formation -> commit -> client reply),
// each tagged with the dominant cost class behind its duration. Spans are
// derived purely from the event stream, so they inherit the golden
// determinism property: same seed, byte-identical span output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace marlin::obs {

/// Dominant cost class behind a span's or edge's duration.
enum class CostKind : std::uint8_t {
  kUnattributed = 0,
  kLink,     // wire transit: serialization + propagation (+ jitter)
  kQueue,    // waiting: txpool residency, busy NIC / link
  kCrypto,   // charged CPU (signature checks, pairings, hashing)
  kStorage,  // WAL / sstable writes on the path
};

/// Stable lowercase name ("link", "queue", ...).
const char* cost_kind_name(CostKind k);

struct Span {
  std::string name;  // "block", "txpool.wait", "votes.prepare", ...
  std::uint32_t node = kNoNode;  // owning node (usually the leader)
  std::uint64_t block = 0;
  ViewNumber view = 0;
  Height height = 0;
  TimePoint begin;
  TimePoint end;
  CostKind dominant = CostKind::kUnattributed;

  Duration duration() const { return end - begin; }
};

/// One proposed block's lifecycle: an umbrella `block` span plus its
/// sub-spans in causal order. Sub-spans present depend on how far the
/// block got (an abandoned proposal has no commit/reply spans).
struct BlockSpans {
  std::uint64_t block = 0;
  ViewNumber view = 0;
  Height height = 0;
  bool committed = false;
  Span umbrella;               // name "block"
  std::vector<Span> children;  // fixed order: txpool.wait,
                               // proposal.broadcast, votes.<phase>...,
                               // commit.spread, reply.delivery
};

/// Stitches events (time order, see sort_by_time) into per-block spans.
/// Blocks are returned in first-touch order; blocks that never reached
/// kProposalSent are skipped (there is no lifecycle to report).
std::vector<BlockSpans> build_spans(const std::vector<TraceEvent>& events);

/// Chrome trace-event JSON ("Trace Event Format"), loadable in Perfetto /
/// chrome://tracing. pid = node, tid = span lane; one JSON object per
/// line so line-oriented checkers can validate it. Deterministic bytes.
std::string spans_to_chrome_json(const std::vector<BlockSpans>& blocks);

}  // namespace marlin::obs
