// Span stitching and critical-path extraction over real simulated traces:
// Marlin's commit critical path has exactly two network round trips,
// HotStuff's has three (the paper's linearity claim, one round trip
// apart), and both the span export and the critical-path report are
// byte-identical across same-seed runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "runtime/cluster.h"

namespace marlin {
namespace {

using obs::CostKind;
using obs::CriticalPath;
using obs::EventType;
using obs::TraceEvent;
using runtime::Cluster;
using runtime::ClusterConfig;
using runtime::ProtocolKind;

ClusterConfig tiny_config(ProtocolKind protocol) {
  ClusterConfig cfg;
  cfg.f = 1;
  cfg.consensus.protocol = protocol;
  cfg.clients.count = 2;
  cfg.clients.window = 4;
  cfg.consensus.pipelined = false;
  cfg.seed = 7;
  return cfg;
}

std::vector<TraceEvent> run_traced(ClusterConfig cfg, int secs,
                                   obs::TraceSink* sink) {
  sim::Simulator sim(cfg.seed);
  cfg.trace = sink;
  Cluster cluster(sim, cfg);
  cluster.start();
  sim.run_for(Duration::seconds(secs));
  EXPECT_FALSE(cluster.any_safety_violation());
  return sink->events();
}

// The library default: chained pipelining, where one voter can have votes
// for two consecutive blocks in flight to the same leader.
ClusterConfig pipelined_config(ProtocolKind protocol) {
  ClusterConfig cfg = tiny_config(protocol);
  cfg.consensus.pipelined = true;
  cfg.seed = 42;
  return cfg;
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

const CriticalPath* first_complete(const std::vector<CriticalPath>& paths) {
  for (const CriticalPath& p : paths) {
    if (p.complete) return &p;
  }
  return nullptr;
}

TEST(CriticalPath, MarlinHasTwoRoundTrips) {
  obs::TraceSink sink{1u << 17};
  const auto events = run_traced(tiny_config(ProtocolKind::kMarlin), 3, &sink);
  const auto paths = obs::critical_paths(events);
  const CriticalPath* p = first_complete(paths);
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->three_phase);
  EXPECT_EQ(p->round_trips, 2u);
  // Out and back legs alternate around each QC; the path ends at commit.
  ASSERT_FALSE(p->edges.empty());
  EXPECT_EQ(p->edges.back().label, "decide.out");
  // Every complete path in a Marlin run agrees on the round-trip count.
  for (const CriticalPath& path : paths) {
    if (path.complete) {
      EXPECT_EQ(path.round_trips, 2u);
    }
  }
}

TEST(CriticalPath, HotStuffHasThreeRoundTrips) {
  obs::TraceSink sink{1u << 17};
  const auto events =
      run_traced(tiny_config(ProtocolKind::kHotStuff), 3, &sink);
  const auto paths = obs::critical_paths(events);
  const CriticalPath* p = first_complete(paths);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->three_phase);
  EXPECT_EQ(p->round_trips, 3u);
}

TEST(CriticalPath, MarlinSavesExactlyOneRoundTrip) {
  obs::TraceSink msink{1u << 17};
  obs::TraceSink hsink{1u << 17};
  const auto m = run_traced(tiny_config(ProtocolKind::kMarlin), 3, &msink);
  const auto h = run_traced(tiny_config(ProtocolKind::kHotStuff), 3, &hsink);
  const auto mpaths = obs::critical_paths(m);
  const auto hpaths = obs::critical_paths(h);
  const CriticalPath* mp = first_complete(mpaths);
  const CriticalPath* hp = first_complete(hpaths);
  ASSERT_NE(mp, nullptr);
  ASSERT_NE(hp, nullptr);
  EXPECT_EQ(hp->round_trips, mp->round_trips + 1);
  // One fewer 40 ms round trip is visible in the totals too.
  EXPECT_LT(mp->total.as_millis_f(), hp->total.as_millis_f());
}

TEST(CriticalPath, NetworkEdgesAreWireDominatedOnThePaperTestbed) {
  obs::TraceSink sink{1u << 17};
  const auto events = run_traced(tiny_config(ProtocolKind::kMarlin), 3, &sink);
  const auto paths = obs::critical_paths(events);
  const CriticalPath* p = first_complete(paths);
  ASSERT_NE(p, nullptr);
  for (const auto& e : p->edges) {
    if (!e.network) continue;
    // 40 ms propagation dwarfs queueing and crypto at this scale.
    EXPECT_EQ(e.dominant, CostKind::kLink) << e.label;
    EXPECT_GT(e.wire.as_millis_f(), 39.0) << e.label;
    // The decomposition accounts for the whole edge.
    const double sum_ms = (e.queue + e.wire + e.cpu).as_millis_f();
    EXPECT_NEAR(sum_ms, e.duration().as_millis_f(), 0.001) << e.label;
  }
}

TEST(CriticalPath, EdgeComponentsSumToDurationOnEveryCompletePath) {
  const ClusterConfig configs[] = {tiny_config(ProtocolKind::kMarlin),
                                   tiny_config(ProtocolKind::kHotStuff),
                                   pipelined_config(ProtocolKind::kMarlin)};
  for (const ClusterConfig& cfg : configs) {
    obs::TraceSink sink{1u << 17};
    const auto paths = obs::critical_paths(run_traced(cfg, 3, &sink));
    std::size_t checked = 0;
    for (const CriticalPath& p : paths) {
      if (!p.complete) continue;
      for (const auto& e : p.edges) {
        EXPECT_EQ((e.queue + e.wire + e.cpu).as_nanos(),
                  e.duration().as_nanos())
            << "block " << obs::fmt_hex64(p.block) << " " << e.label;
        ++checked;
      }
    }
    EXPECT_GT(checked, 50u) << "seed " << cfg.seed;
  }
}

// Pins the exact bytes of both exports. A change to span or critical-path
// rules must update these digests and say which lines moved.
TEST(Spans, OutputBytesArePinned) {
  struct Case {
    ClusterConfig cfg;
    std::uint64_t spans;
    std::uint64_t report;
  };
  const Case cases[] = {
      {tiny_config(ProtocolKind::kMarlin), 0xef46f55bc2e0180eull,
       0x14a788ae1029d3adull},
      {tiny_config(ProtocolKind::kHotStuff), 0x00e6276e1282a751ull,
       0xd59226be410f963bull},
      {pipelined_config(ProtocolKind::kMarlin), 0x267b0b65565eef90ull,
       0xc0c9794af8cec6c5ull},
  };
  for (const Case& c : cases) {
    obs::TraceSink sink{1u << 17};
    const auto events = run_traced(c.cfg, 3, &sink);
    EXPECT_EQ(fnv1a64(obs::spans_to_chrome_json(obs::build_spans(events))),
              c.spans)
        << "spans, seed " << c.cfg.seed;
    EXPECT_EQ(fnv1a64(obs::critical_path_report(events)), c.report)
        << "report, seed " << c.cfg.seed;
  }
}

TEST(Spans, CommittedBlockHasFullLifecycle) {
  obs::TraceSink sink{1u << 17};
  const auto events = run_traced(tiny_config(ProtocolKind::kMarlin), 3, &sink);
  const auto blocks = obs::build_spans(events);
  ASSERT_FALSE(blocks.empty());
  const obs::BlockSpans* committed = nullptr;
  for (const auto& b : blocks) {
    if (b.committed) {
      committed = &b;
      break;
    }
  }
  ASSERT_NE(committed, nullptr);
  // The umbrella covers every child and children appear in causal order.
  std::vector<std::string> names;
  for (const auto& s : committed->children) {
    names.push_back(s.name);
    EXPECT_GE(s.begin, committed->umbrella.begin) << s.name;
    EXPECT_LE(s.end, committed->umbrella.end) << s.name;
    EXPECT_LE(s.begin, s.end) << s.name;
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "proposal.broadcast"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "votes.prepare"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "votes.commit"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "commit.spread"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "reply.delivery"),
            names.end());
}

TEST(Spans, SameSeedOutputsAreByteIdentical) {
  obs::TraceSink a{1u << 17};
  obs::TraceSink b{1u << 17};
  const auto ea = run_traced(tiny_config(ProtocolKind::kMarlin), 3, &a);
  const auto eb = run_traced(tiny_config(ProtocolKind::kMarlin), 3, &b);
  EXPECT_EQ(obs::spans_to_chrome_json(obs::build_spans(ea)),
            obs::spans_to_chrome_json(obs::build_spans(eb)));
  EXPECT_EQ(obs::critical_path_report(ea), obs::critical_path_report(eb));
}

TEST(Spans, ReportMentionsRoundTripCounts) {
  obs::TraceSink sink{1u << 17};
  const auto events = run_traced(tiny_config(ProtocolKind::kMarlin), 3, &sink);
  const std::string report = obs::critical_path_report(events);
  EXPECT_NE(report.find("network round trips: 2"), std::string::npos);
  EXPECT_NE(report.find("== marlin (two-phase) =="), std::string::npos);
}

}  // namespace
}  // namespace marlin
