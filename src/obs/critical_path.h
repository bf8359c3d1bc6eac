// Critical-path extraction: the longest dependency chain behind each
// committed block, reconstructed from the trace. The chain alternates
// leader->replica "out" legs (proposal / QC notices) with the
// quorum-completing replica->leader "back" legs (the vote that formed
// each QC), ending at the first commit. Each network edge is decomposed
// into queueing, wire, and CPU time using the kMsgDelivered attribution
// events, and the per-edge durations aggregate into mean/p50/p99
// breakdown tables — Marlin (two vote round trips) vs HotStuff (three)
// side by side.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.h"
#include "obs/trace.h"

namespace marlin::obs {

struct CriticalPathEdge {
  std::string label;  // "proposal.out", "vote[prepare].back", ...
  std::uint32_t from = kNoNode;
  std::uint32_t to = kNoNode;
  TimePoint begin;
  TimePoint end;
  bool network = false;   // traversed a network hop
  bool response = false;  // replica->leader vote leg (a round-trip return)
  // Decomposition of network edges (zero when unmatched / local):
  Duration queue;  // busy NIC / link at the sender
  Duration wire;   // serialization + propagation (+ jitter)
  Duration cpu;    // charged CPU before departure + after arrival
  CostKind dominant = CostKind::kUnattributed;

  Duration duration() const { return end - begin; }
};

struct CriticalPath {
  std::uint64_t block = 0;
  ViewNumber view = 0;
  Height height = 0;
  /// All milestones present (proposal, every QC's completing vote, commit).
  bool complete = false;
  /// Saw a precommit-phase QC — the HotStuff shape; Marlin has none.
  bool three_phase = false;
  std::vector<CriticalPathEdge> edges;
  Duration total;
  /// Number of response edges: vote legs back to the leader. Two for
  /// Marlin's two-phase commit, three for HotStuff.
  std::uint32_t round_trips = 0;
};

/// Extracts one path per proposed-and-committed block of a time-ordered
/// trace, in first-touch order. Paths missing a milestone come back with
/// complete = false.
std::vector<CriticalPath> critical_paths(const std::vector<TraceEvent>& events);

/// Full report: splits paths by protocol shape, shows the first complete
/// path of each shape in detail, each shape's mean/p50/p99 breakdown, and
/// the Marlin-vs-HotStuff comparison when both shapes are present.
std::string critical_path_report(const std::vector<CriticalPath>& paths);

/// critical_path_report over the paths of a time-ordered trace.
std::string critical_path_report(const std::vector<TraceEvent>& events);

}  // namespace marlin::obs
