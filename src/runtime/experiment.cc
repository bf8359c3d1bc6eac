#include "runtime/experiment.h"

#include <algorithm>

namespace marlin::runtime {

namespace {

/// Earliest crash action in the plan (what measure_view_change anchors on).
const faults::FaultAction* earliest_crash(const faults::FaultPlan& plan) {
  const faults::FaultAction* best = nullptr;
  for (const faults::FaultAction& a : plan.actions) {
    if (a.kind != faults::FaultKind::kCrash &&
        a.kind != faults::FaultKind::kCrashLeader) {
      continue;
    }
    if (!best || a.at < best->at) best = &a;
  }
  return best;
}

/// Replicas that must keep committing: up, and not wire-Byzantine.
std::vector<ReplicaId> correct_replicas(Cluster& cluster) {
  std::vector<ReplicaId> out;
  for (ReplicaId r = 0; r < cluster.n(); ++r) {
    if (cluster.network().is_down(r)) continue;
    if (cluster.replica(r).byzantine_mode() != faults::ByzantineMode::kHonest) {
      continue;
    }
    out.push_back(r);
  }
  return out;
}

void measure_view_change(sim::Simulator& sim, Cluster& cluster,
                         const ExperimentOptions& opt,
                         ViewChangeReport& out) {
  const faults::FaultAction* crash = earliest_crash(cluster.config().faults);
  if (!crash) return;  // nothing to anchor on

  // Run up to (and through) the crash; the controller records the resolved
  // target and the view it fired in.
  sim.run_until(TimePoint::origin() + crash->at);
  const faults::ExecutedAction* fired = cluster.faults().first_crash();
  if (!fired) return;
  const ReplicaId old_leader = fired->target;
  const ViewNumber old_view = fired->view;

  // Run until every correct replica commits in a higher view (or deadline).
  const TimePoint deadline = sim.now() + opt.view_change_deadline;
  while (sim.now() < deadline) {
    sim.run_for(Duration::millis(50));
    bool all_committed = true;
    for (ReplicaId r : correct_replicas(cluster)) {
      const auto& rp = cluster.replica(r);
      if (rp.protocol().current_view() <= old_view ||
          !rp.committed_in_current_view()) {
        all_committed = false;
        break;
      }
    }
    if (all_committed) break;
  }

  double total_ms = 0;
  std::uint32_t counted = 0;
  bool resolved = true;
  for (ReplicaId r : correct_replicas(cluster)) {
    const auto& rp = cluster.replica(r);
    if (!rp.committed_in_current_view() ||
        rp.protocol().current_view() <= old_view) {
      resolved = false;
      continue;
    }
    total_ms +=
        (rp.first_commit_in_view() - rp.last_view_entry()).as_millis_f();
    ++counted;
  }
  out.resolved = resolved && counted > 0;
  out.mean_latency_ms = counted ? total_ms / counted : 0;
  out.new_view = cluster.max_view();
  const ReplicaId new_leader = cluster.current_leader();
  if (new_leader != old_leader) {
    auto& lp = cluster.replica(new_leader);
    if (lp.committed_in_current_view()) {
      out.leader_latency_ms =
          (lp.first_commit_in_view() - lp.last_view_entry()).as_millis_f();
    }
    if (auto* m = lp.marlin()) {
      out.unhappy_path = m->unhappy_view_changes() > 0;
    }
  }
}

void check_liveness(sim::Simulator& sim, Cluster& cluster,
                    const ExperimentOptions& opt, LivenessReport& out) {
  out.checked = true;

  // Run to the quiesce point: every transient disruption over, only
  // persistent faults (≤ f crashes / Byzantine modes) remain.
  const TimePoint quiesce = cluster.faults().quiesce_time();
  if (sim.now() < quiesce) sim.run_until(quiesce);

  const std::vector<ReplicaId> correct = correct_replicas(cluster);
  std::vector<Height> base(cluster.n(), 0);
  for (ReplicaId r : correct) {
    base[r] = cluster.replica(r).protocol().committed_height();
    out.commits_at_quiesce += base[r];
  }

  // Liveness resumed iff every correct replica commits a new block in the
  // fault-free tail (recovering replicas catch up via fetch).
  const TimePoint deadline = quiesce + opt.liveness_deadline;
  while (sim.now() < deadline) {
    sim.run_for(Duration::millis(100));
    bool all_advanced = true;
    for (ReplicaId r : correct) {
      if (cluster.replica(r).protocol().committed_height() <= base[r]) {
        all_advanced = false;
        break;
      }
    }
    if (all_advanced) {
      out.progressed = true;
      break;
    }
  }
  for (ReplicaId r : correct) {
    out.commits_at_end += cluster.replica(r).protocol().committed_height();
  }
}

}  // namespace

ExperimentReport run_experiment(const ExperimentOptions& options) {
  sim::Simulator sim(options.cluster.seed);
  Cluster cluster(sim, options.cluster);

  const TimePoint w_start = TimePoint::origin() + options.warmup;
  const TimePoint w_end = w_start + options.measure;
  cluster.set_measurement_window(w_start, w_end);
  cluster.start();

  ExperimentReport rep;
  if (options.measure_view_change) {
    measure_view_change(sim, cluster, options, rep.view_change);
  }
  if (options.check_liveness) {
    check_liveness(sim, cluster, options, rep.liveness);
  }
  const TimePoint run_to = w_end + options.drain;
  if (sim.now() < run_to) sim.run_until(run_to);

  rep.throughput_ops = cluster.client_throughput();
  rep.mean_latency_ms = cluster.mean_latency_ms();
  rep.p50_latency_ms = cluster.latency_ms(50);
  rep.p95_latency_ms = cluster.latency_ms(95);
  rep.total_completed = cluster.completed_in_window();
  rep.safety_ok = !cluster.any_safety_violation();
  rep.consistent = cluster.committed_heights_consistent();
  rep.final_view = cluster.max_view();
  rep.fault_log = cluster.faults().log();
  if (options.metrics) cluster.export_metrics(*options.metrics);
  return rep;
}

ExperimentOptions throughput_options(ClusterConfig cluster, Duration warmup,
                                     Duration measure) {
  ExperimentOptions opt;
  opt.cluster = std::move(cluster);
  opt.warmup = warmup;
  opt.measure = measure;
  opt.drain = Duration::seconds(2);
  return opt;
}

ExperimentOptions view_change_options(ClusterConfig cluster,
                                      bool force_unhappy, Duration crash_at) {
  ExperimentOptions opt;
  opt.cluster = std::move(cluster);
  opt.cluster.consensus.disable_happy_path = force_unhappy;
  // A short, predictable timeout: the paper measures from VC start (timer
  // firing), so the timeout itself is excluded either way.
  opt.cluster.consensus.pacemaker.base_timeout = Duration::millis(600);
  opt.cluster.consensus.allow_empty_blocks = false;
  opt.cluster.faults.actions.push_back(
      faults::FaultAction::crash_leader(crash_at));
  opt.measure_view_change = true;
  // The pre-crash traffic is the measurement window; drain is unused (the
  // view-change poll runs the clock well past it).
  opt.warmup = Duration::millis(500);
  opt.measure = crash_at - Duration::millis(500);
  opt.drain = Duration::zero();
  return opt;
}

}  // namespace marlin::runtime
