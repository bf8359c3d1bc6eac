// The one experiment procedure shared by every benchmark binary, test, and
// CLI tool: build a cluster from a ClusterConfig (fault plan included), run
// it, and measure. What used to be two divergent entry points (a
// throughput run and a leader-crash view-change run) is a single
// run_experiment() whose options select which measurements are taken;
// fault scenarios are data (faults::FaultPlan), not bespoke driver code.
// Every run is deterministic given its options (seed included).
#pragma once

#include "runtime/cluster.h"

namespace marlin::runtime {

struct ExperimentOptions {
  /// Deployment under test, including the fault plan to execute.
  ClusterConfig cluster;

  /// Throughput/latency measurement window: [warmup, warmup + measure),
  /// with `drain` of extra run time past the window end.
  Duration warmup = Duration::seconds(2);
  Duration measure = Duration::seconds(10);
  Duration drain = Duration::seconds(2);

  /// Measure view-change latency around the plan's first crash (paper
  /// Fig. 10i methodology): after the crash fires, run until every correct
  /// replica commits in a view above the crash view, up to the deadline.
  /// Requires a crash/crash_leader action in the plan.
  bool measure_view_change = false;
  Duration view_change_deadline = Duration::seconds(30);

  /// Check that commits resume after the plan quiesces (all transient
  /// disruptions over): every correct replica must commit a block it had
  /// not committed at quiesce time, within `liveness_deadline` of it.
  /// Extends the run past the quiesce point as needed.
  bool check_liveness = false;
  Duration liveness_deadline = Duration::seconds(20);

  /// When non-null, the cluster's full metrics snapshot is exported into
  /// it after the run (pair with cluster.trace for the event stream).
  obs::MetricsRegistry* metrics = nullptr;
};

struct ViewChangeReport {
  bool resolved = false;  // every correct replica committed in a new view
  /// Mean over correct replicas of (first commit after VC − VC start).
  double mean_latency_ms = 0;
  double leader_latency_ms = 0;  // measured at the new leader
  ViewNumber new_view = 0;
  bool unhappy_path = false;  // the new leader ran PRE-PREPARE
};

struct LivenessReport {
  bool checked = false;
  bool progressed = false;  // all correct replicas committed post-quiesce
  /// Committed blocks across correct replicas at quiesce / at run end.
  std::uint64_t commits_at_quiesce = 0;
  std::uint64_t commits_at_end = 0;
};

struct ExperimentReport {
  // Measurement-window metrics (closed-loop clients).
  double throughput_ops = 0;  // completed ops / second in window
  double mean_latency_ms = 0;
  double p50_latency_ms = 0;
  double p95_latency_ms = 0;
  std::uint64_t total_completed = 0;  // ops completed inside the window

  // Invariants, checked after every run.
  bool safety_ok = true;    // no replica flagged a local safety violation
  bool consistent = true;   // committed prefixes agree across live replicas
  ViewNumber final_view = 0;

  ViewChangeReport view_change;  // populated iff measure_view_change
  LivenessReport liveness;       // populated iff check_liveness

  /// The fault actions that actually fired, with resolved targets.
  std::vector<faults::ExecutedAction> fault_log;

  bool ok() const {
    return safety_ok && consistent &&
           (!liveness.checked || liveness.progressed);
  }
};

/// Builds the cluster, arms the plan, runs, measures. The only way any
/// bench/test/tool in this repo runs a full deployment.
ExperimentReport run_experiment(const ExperimentOptions& options);

/// Options for a plain warmup + measure throughput run.
ExperimentOptions throughput_options(ClusterConfig cluster, Duration warmup,
                                     Duration measure);

/// Options for the Fig. 10i leader-crash view-change run: commits traffic
/// for `crash_at`, crashes the then-current leader via the plan, and
/// measures view-change latency. `force_unhappy` disables Marlin's happy
/// path (and pins a short, predictable pacemaker timeout either way — the
/// paper measures from VC start, so the timeout itself is excluded).
ExperimentOptions view_change_options(ClusterConfig cluster,
                                      bool force_unhappy,
                                      Duration crash_at =
                                          Duration::seconds(3));

}  // namespace marlin::runtime
