// Fault-injection subsystem: plan JSON round-trips, chaos generation is a
// pure function of the seed, plans execute deterministically (same
// seed + plan => byte-identical golden trace), an equivocating leader
// cannot break safety, and liveness resumes after partitions heal — for
// both protocols.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "faults/chaos.h"
#include "faults/fault_plan.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "runtime/experiment.h"

namespace marlin {
namespace {

using faults::ByzantineMode;
using faults::FaultAction;
using faults::FaultKind;
using faults::FaultPlan;
using runtime::ClusterConfig;
using runtime::ExperimentOptions;
using runtime::ExperimentReport;
using runtime::ProtocolKind;
using runtime::protocol_name;

constexpr ProtocolKind kBothProtocols[] = {ProtocolKind::kMarlin,
                                           ProtocolKind::kHotStuff};

/// A plan exercising every action kind and every optional field.
FaultPlan all_kinds_plan() {
  FaultPlan plan;
  plan.name = "all-kinds";
  plan.actions = {
      FaultAction::partition(Duration::millis(500), {{0, 1}, {2, 3}}),
      FaultAction::silence(Duration::millis(700), 1, {0, 2}),
      FaultAction::drop_burst(Duration::seconds(1), 0.25,
                              Duration::millis(800)),
      FaultAction::byzantine(Duration::millis(1100), 3,
                             ByzantineMode::kEquivocate),
      FaultAction::crash(Duration::millis(1200), 2),
      FaultAction::crash_leader(Duration::seconds(2)),
      FaultAction::slow_links(Duration::seconds(2), Duration::millis(40),
                              Duration::seconds(1)),
      FaultAction::gst(Duration::seconds(3), Duration::millis(120), 0.1),
      FaultAction::recover(Duration::seconds(3), 2),
      FaultAction::heal(Duration::seconds(4)),
  };
  return plan;
}

TEST(FaultPlanJson, RoundTripsEveryKindLosslessly) {
  const FaultPlan plan = all_kinds_plan();
  auto parsed = FaultPlan::from_json(plan.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  EXPECT_EQ(std::move(parsed).take(), plan);
}

TEST(FaultPlanJson, IgnoresUnknownKeys) {
  auto parsed = FaultPlan::from_json(
      "{\"name\":\"fwd\",\"schema_version\":9,\"actions\":[{"
      "\"kind\":\"crash\",\"at_ms\":1000,\"replica\":2,\"note\":\"hi\"}]}");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const FaultPlan plan = std::move(parsed).take();
  EXPECT_EQ(plan.name, "fwd");
  ASSERT_EQ(plan.actions.size(), 1u);
  EXPECT_EQ(plan.actions[0], FaultAction::crash(Duration::seconds(1), 2));
}

TEST(FaultPlanJson, RejectsUnknownKindAndMissingFields) {
  EXPECT_FALSE(FaultPlan::from_json(
                   "{\"actions\":[{\"kind\":\"meteor\",\"at_ms\":1}]}")
                   .is_ok());
  EXPECT_FALSE(
      FaultPlan::from_json("{\"actions\":[{\"kind\":\"crash\",\"at_ms\":1}]}")
          .is_ok());  // no replica
  EXPECT_FALSE(FaultPlan::from_json("{\"actions\":[{\"kind\":\"crash\"}]}")
                   .is_ok());  // no at
}

TEST(FaultPlanSemantics, QuiesceCoversTransientsAndOneShots) {
  const FaultPlan plan = all_kinds_plan();
  // Latest disruption end: heal at 4s (>= slow_links end 3s, gst 3s,
  // drop_burst end 1.8s, last one-shot 3s).
  EXPECT_EQ(plan.quiesce_time(), Duration::seconds(4));
  // Replica 2 crashed but recovered; crash_leader resolves at run time and
  // is deliberately not counted.
  EXPECT_TRUE(plan.crashed_at_end().empty());

  FaultPlan down;
  down.actions = {FaultAction::crash(Duration::seconds(1), 3)};
  EXPECT_EQ(down.crashed_at_end(), std::vector<ReplicaId>{3});
}

TEST(Chaos, GenerationIsAPureFunctionOfTheSeed) {
  faults::ChaosOptions copt;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng a(seed), b(seed);
    EXPECT_EQ(faults::random_plan(a, copt), faults::random_plan(b, copt))
        << "seed " << seed;
  }
}

TEST(Chaos, PlansStayCheckable) {
  // The invariants chaos_search relies on: at most f replicas are ever
  // crashed-for-good or Byzantine, and every partition/silence is healed
  // (so the post-quiesce liveness check is fair).
  faults::ChaosOptions copt;
  copt.f = 1;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    const FaultPlan plan = faults::random_plan(rng, copt);
    std::vector<ReplicaId> faulty;
    bool cut = false, healed = false;
    for (const FaultAction& a : plan.actions) {
      switch (a.kind) {
        case FaultKind::kCrash:
        case FaultKind::kByzantine:
          faulty.push_back(a.replica);
          break;
        case FaultKind::kPartition:
        case FaultKind::kSilence:
          cut = true;
          break;
        case FaultKind::kHeal:
          healed = true;
          break;
        default:
          break;
      }
    }
    std::sort(faulty.begin(), faulty.end());
    faulty.erase(std::unique(faulty.begin(), faulty.end()), faulty.end());
    EXPECT_LE(faulty.size(), copt.f) << "seed " << seed;
    EXPECT_LE(plan.crashed_at_end().size(), copt.f) << "seed " << seed;
    if (cut) {
      EXPECT_TRUE(healed) << "seed " << seed;
    }
  }
}

/// A cluster config + plan with a partition, a silence, and a crash — every
/// fault-execution path that matters for replay determinism.
ExperimentOptions eventful_options(ProtocolKind protocol,
                                   obs::TraceSink* trace) {
  ClusterConfig cfg;
  cfg.f = 1;
  cfg.seed = 11;
  cfg.consensus.protocol = protocol;
  cfg.consensus.pacemaker.base_timeout = Duration::millis(600);
  cfg.clients.count = 2;
  cfg.clients.window = 4;
  cfg.faults.name = "eventful";
  cfg.faults.actions = {
      FaultAction::partition(Duration::millis(600), {{0}, {1, 2, 3}}),
      FaultAction::silence(Duration::millis(1200), 2, {1}),
      FaultAction::heal(Duration::millis(2200)),
      FaultAction::crash(Duration::millis(2500), 0),
  };
  cfg.trace = trace;
  ExperimentOptions exp = runtime::throughput_options(
      cfg, Duration::millis(500), Duration::seconds(2));
  exp.drain = Duration::millis(500);
  exp.check_liveness = true;
  return exp;
}

TEST(FaultReplay, SameSeedAndPlanGiveByteIdenticalTraces) {
  for (ProtocolKind protocol : kBothProtocols) {
    obs::TraceSink sink_a{1 << 18}, sink_b{1 << 18};
    const ExperimentReport rep_a =
        runtime::run_experiment(eventful_options(protocol, &sink_a));
    const ExperimentReport rep_b =
        runtime::run_experiment(eventful_options(protocol, &sink_b));

    EXPECT_TRUE(rep_a.ok()) << protocol_name(protocol);
    ASSERT_GT(sink_a.size(), 0u);
    EXPECT_EQ(obs::trace_to_jsonl(sink_a), obs::trace_to_jsonl(sink_b))
        << protocol_name(protocol);
    EXPECT_EQ(rep_a.total_completed, rep_b.total_completed);
    EXPECT_EQ(rep_a.final_view, rep_b.final_view);
    ASSERT_EQ(rep_a.fault_log.size(), rep_b.fault_log.size());
    ASSERT_EQ(rep_a.fault_log.size(), 4u);
    for (std::size_t i = 0; i < rep_a.fault_log.size(); ++i) {
      EXPECT_EQ(rep_a.fault_log[i].kind, rep_b.fault_log[i].kind);
      EXPECT_EQ(rep_a.fault_log[i].target, rep_b.fault_log[i].target);
      EXPECT_EQ(rep_a.fault_log[i].at, rep_b.fault_log[i].at);
    }
  }
}

TEST(FaultLog, CrashLeaderResolvesItsTargetAtFireTime) {
  ClusterConfig cfg;
  cfg.f = 1;
  cfg.seed = 3;
  cfg.clients.count = 2;
  cfg.clients.window = 4;
  cfg.faults.actions = {FaultAction::crash_leader(Duration::seconds(2))};
  ExperimentOptions exp = runtime::throughput_options(
      cfg, Duration::millis(500), Duration::seconds(3));
  const ExperimentReport rep = runtime::run_experiment(exp);

  ASSERT_EQ(rep.fault_log.size(), 1u);
  EXPECT_EQ(rep.fault_log[0].kind, FaultKind::kCrashLeader);
  // Happy path until 2s: still view 1, whose leader is replica 1.
  EXPECT_EQ(rep.fault_log[0].target, 1u);
  EXPECT_EQ(rep.fault_log[0].view, 1u);
  EXPECT_TRUE(rep.safety_ok);
  EXPECT_TRUE(rep.consistent);
}

TEST(Byzantine, EquivocatingLeaderCannotBreakSafety) {
  for (ProtocolKind protocol : kBothProtocols) {
    ClusterConfig cfg;
    cfg.f = 1;
    cfg.seed = 5;
    cfg.consensus.protocol = protocol;
    cfg.consensus.pacemaker.base_timeout = Duration::millis(600);
    cfg.clients.count = 2;
    cfg.clients.window = 4;
    // The leader of view 1 equivocates from the start: odd peers receive
    // conflicting blocks. Whatever quorum shape results (progress with the
    // honest majority, or a view change to an honest leader), no two
    // correct replicas may ever commit divergent prefixes.
    cfg.faults.name = "equivocating-leader";
    cfg.faults.actions = {
        FaultAction::byzantine(Duration::zero(), 1, ByzantineMode::kEquivocate),
    };
    ExperimentOptions exp = runtime::throughput_options(
        cfg, Duration::millis(500), Duration::seconds(4));
    exp.check_liveness = true;
    const ExperimentReport rep = runtime::run_experiment(exp);

    EXPECT_TRUE(rep.safety_ok) << protocol_name(protocol);
    EXPECT_TRUE(rep.consistent) << protocol_name(protocol);
    // Byzantine faults are persistent but within budget (f=1): the honest
    // quorum keeps committing.
    EXPECT_TRUE(rep.liveness.progressed) << protocol_name(protocol);
    ASSERT_EQ(rep.fault_log.size(), 1u);
    EXPECT_EQ(rep.fault_log[0].kind, FaultKind::kByzantine);
    EXPECT_EQ(rep.fault_log[0].target, 1u);
  }
}

TEST(Liveness, ResumesAfterPartitionHeals) {
  for (ProtocolKind protocol : kBothProtocols) {
    ClusterConfig cfg;
    cfg.f = 1;
    cfg.seed = 9;
    cfg.consensus.protocol = protocol;
    cfg.consensus.pacemaker.base_timeout = Duration::millis(600);
    cfg.clients.count = 2;
    cfg.clients.window = 4;
    // Isolate one replica across a leader rotation, then heal: it must
    // catch up (fetch path) and every correct replica must commit fresh
    // blocks after the quiesce point.
    cfg.faults.name = "partition-heal";
    cfg.faults.actions = {
        FaultAction::partition(Duration::millis(700), {{0}, {1, 2, 3}}),
        FaultAction::heal(Duration::millis(2500)),
    };
    ExperimentOptions exp = runtime::throughput_options(
        cfg, Duration::millis(500), Duration::seconds(3));
    exp.check_liveness = true;
    const ExperimentReport rep = runtime::run_experiment(exp);

    EXPECT_TRUE(rep.ok()) << protocol_name(protocol);
    EXPECT_TRUE(rep.liveness.checked);
    EXPECT_TRUE(rep.liveness.progressed) << protocol_name(protocol);
    EXPECT_GT(rep.liveness.commits_at_end, rep.liveness.commits_at_quiesce)
        << protocol_name(protocol);
  }
}

}  // namespace
}  // namespace marlin
