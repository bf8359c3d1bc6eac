// marlin_sim — command-line experiment runner for the simulated testbed.
//
// Lets users explore the protocol space without writing code:
//
//   marlin_sim --protocol=marlin --f=2 --clients=32 --window=200
//              --seconds=20 --payload=150
//   marlin_sim --protocol=hotstuff --f=1 --crash-leader-at=5 --seconds=30
//   marlin_sim --protocol=marlin --rotate=1000 --crashes=2 --f=3
//   marlin_sim --protocol=marlin --threshold-sigs --unhappy-vc
//   marlin_sim --protocol=marlin --faults=plan.json --seconds=30
//   marlin_sim --f=33 --clients=64 --shards=8 --seconds=10
//
// Fault flags (--crashes, --crash-leader-at, --faults) all compile down to
// one declarative FaultPlan executed by the cluster's FaultController, so
// every faulty run is replayable from its (seed, plan) pair.
//
// --shards=K (K > 1) runs on the partitioned event engine (lookahead-window
// synchronization, docs/SCALING.md): results are deterministic and
// invariant across K and --workers, but follow the sharded schedule, not
// the single-queue one. --shards=1 (the default) is the legacy engine with
// its byte-identical golden traces.
//
// Prints a one-line summary plus a per-replica table; exits non-zero on
// any safety violation.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "cli_flags.h"
#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "runtime/cluster.h"
#include "simnet/sharded.h"

using namespace marlin;
using namespace marlin::runtime;

namespace {

struct Options {
  ClusterConfig cluster;
  double seconds = 20;
  std::uint32_t shards = 1;     // 1 = legacy single-queue engine
  std::uint32_t workers = 0;    // sharded engine: 0 = one per core
  double crash_leader_at = -1;  // seconds; <0 = never
  std::uint32_t crashes = 0;    // random-ish replicas crashed at start
  std::string faults_path;      // JSON FaultPlan to execute
  std::string trace_out;        // JSONL protocol trace path
  std::string metrics_out;      // JSON metrics snapshot path
  std::string metrics_csv;      // CSV metrics snapshot path
  std::string metrics_series_out;  // JSONL time-series of metric snapshots
  double metrics_interval = 0;  // 0 = default 1 s when a series is written
  std::string spans_out;        // Chrome trace-event JSON (Perfetto) path
  bool critical_path = false;   // print the critical-path report
  bool timeline = false;        // print per-view timeline
  bool help = false;
};

void usage() {
  std::printf(
      "marlin_sim — run a simulated BFT cluster experiment\n\n"
      "  --protocol=marlin|hotstuff   consensus protocol (default marlin)\n"
      "  --f=N                        fault threshold; n = 3f+1 (default 1)\n"
      "  --clients=N                  closed-loop clients (default 8)\n"
      "  --window=N                   outstanding requests per client (16)\n"
      "  --payload=BYTES              request payload size (150; 0 = no-op)\n"
      "  --batch=N                    max ops per block (4000)\n"
      "  --seconds=S                  simulated duration (20)\n"
      "  --seed=N                     deterministic seed (42)\n"
      "  --shards=K                   partitioned event engine with K shards\n"
      "                               (default 1 = legacy single queue; see\n"
      "                               docs/SCALING.md)\n"
      "  --workers=N                  worker threads for --shards>1\n"
      "                               (default: one per core, capped at K)\n"
      "  --delay-ms=N                 one-way network delay (40)\n"
      "  --link-mbps=N                per-link bandwidth (200)\n"
      "  --nic-mbps=N                 per-NIC bandwidth (1000)\n"
      "  --drop=P                     message drop probability (0)\n"
      "  --pipelined=0|1              chained pipelining (1)\n"
      "  --threshold-sigs             constant-size threshold QCs\n"
      "  --unhappy-vc                 disable Marlin's happy-path VC\n"
      "  --rotate=MS                  rotating-leader mode, interval in ms\n"
      "  --timeout-ms=N               view-change timeout (2000)\n"
      "  --timeout-per-replica-ms=N   add N ms per replica to the view\n"
      "                               timeout (0; keeps large n live)\n"
      "  --crash-leader-at=S          crash the current leader at time S\n"
      "  --crashes=N                  crash N replicas at start\n"
      "  --faults=PATH                execute a JSON fault plan (see\n"
      "                               docs/FAULTS.md for the schema)\n"
      "  --trace-out=PATH             dump the protocol trace as JSONL\n"
      "  --metrics-out=PATH           dump a metrics snapshot as JSON\n"
      "  --metrics-csv=PATH           dump a metrics snapshot as CSV\n"
      "  --metrics-series-out=PATH    append JSONL metric snapshots every\n"
      "                               --metrics-interval simulated seconds\n"
      "                               (same schema as marlin_run's series)\n"
      "  --metrics-interval=S         series sampling period (default 1)\n"
      "  --spans-out=PATH             dump per-block lifecycle spans as\n"
      "                               Chrome trace-event JSON (Perfetto)\n"
      "  --critical-path              print per-block critical-path report\n"
      "  --timeline                   print a per-view activity timeline\n");
}

bool parse_options(int argc, char** argv, Options* opt) {
  cli::ArgCursor args(argc, argv);
  while (args.next()) {
    std::string v;
    Duration ms;
    double mbps = 0;
    if (args.flag("--help")) {
      opt->help = true;
    } else if (args.str("--protocol", &v)) {
      if (!runtime::parse_protocol(v, &opt->cluster.consensus.protocol)) {
        args.fail_value("--protocol", v, "marlin|hotstuff");
      }
    } else if (args.u32("--f", &opt->cluster.f)) {
    } else if (args.u32("--clients", &opt->cluster.clients.count)) {
    } else if (args.u32("--window", &opt->cluster.clients.window)) {
    } else if (args.size("--payload", &opt->cluster.clients.payload_size)) {
    } else if (args.size("--batch", &opt->cluster.consensus.max_batch_ops)) {
    } else if (args.f64("--seconds", &opt->seconds)) {
    } else if (args.u64("--seed", &opt->cluster.seed)) {
    } else if (args.u32("--shards", &opt->shards)) {
    } else if (args.u32("--workers", &opt->workers)) {
    } else if (args.millis("--delay-ms", &opt->cluster.net.one_way_delay)) {
    } else if (args.f64("--link-mbps", &mbps)) {
      opt->cluster.net.link_bandwidth_bps = mbps * 1e6;
    } else if (args.f64("--nic-mbps", &mbps)) {
      opt->cluster.net.nic_bandwidth_bps = mbps * 1e6;
    } else if (args.f64("--drop", &opt->cluster.net.drop_probability)) {
    } else if (args.str("--pipelined", &v)) {
      opt->cluster.consensus.pipelined = v != "0";
    } else if (args.flag("--threshold-sigs")) {
      opt->cluster.consensus.use_threshold_sigs = true;
    } else if (args.flag("--unhappy-vc")) {
      opt->cluster.consensus.disable_happy_path = true;
    } else if (args.millis("--rotate", &ms)) {
      opt->cluster.consensus.pacemaker.rotate_on_timer = true;
      opt->cluster.consensus.pacemaker.rotation_interval = ms;
    } else if (args.millis("--timeout-ms",
                           &opt->cluster.consensus.pacemaker.base_timeout)) {
    } else if (args.millis(
                   "--timeout-per-replica-ms",
                   &opt->cluster.consensus.pacemaker.base_timeout_per_replica)) {
    } else if (args.f64("--crash-leader-at", &opt->crash_leader_at)) {
    } else if (args.u32("--crashes", &opt->crashes)) {
    } else if (args.str("--faults", &opt->faults_path)) {
    } else if (args.str("--trace-out", &opt->trace_out)) {
    } else if (args.str("--metrics-out", &opt->metrics_out)) {
    } else if (args.str("--metrics-csv", &opt->metrics_csv)) {
    } else if (args.str("--metrics-series-out", &opt->metrics_series_out)) {
    } else if (args.f64("--metrics-interval", &opt->metrics_interval)) {
    } else if (args.str("--spans-out", &opt->spans_out)) {
    } else if (args.flag("--critical-path")) {
      opt->critical_path = true;
    } else if (args.flag("--timeline")) {
      opt->timeline = true;
    } else {
      args.fail_unknown();
    }
  }
  if (args.ok() && opt->shards > 1 &&
      opt->cluster.net.one_way_delay <= Duration::zero()) {
    std::fprintf(stderr,
                 "--shards=%u requires a positive --delay-ms (the one-way "
                 "delay is the engine's lookahead window)\n",
                 opt->shards);
    return false;
  }
  return args.ok();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) return 2;
  if (opt.help) {
    usage();
    return 0;
  }

  // Every fault flag compiles into the cluster's one FaultPlan.
  if (!opt.faults_path.empty()) {
    std::ifstream in(opt.faults_path);
    if (!in) {
      std::fprintf(stderr, "cannot read fault plan %s\n",
                   opt.faults_path.c_str());
      return 2;
    }
    std::ostringstream body;
    body << in.rdbuf();
    auto plan = faults::FaultPlan::from_json(body.str());
    if (!plan.is_ok()) {
      std::fprintf(stderr, "bad fault plan %s: %s\n", opt.faults_path.c_str(),
                   plan.status().message().c_str());
      return 2;
    }
    opt.cluster.faults = std::move(plan).take();
  }
  const std::uint32_t n = 3 * opt.cluster.f + 1;
  for (std::uint32_t i = 0; i < opt.crashes && i < n; ++i) {
    // Spread victims; skip the view-1 leader so the run bootstraps.
    opt.cluster.faults.actions.push_back(
        faults::FaultAction::crash(Duration::zero(), (2 + 3 * i) % n));
  }
  if (opt.crash_leader_at >= 0) {
    opt.cluster.faults.actions.push_back(faults::FaultAction::crash_leader(
        Duration::from_seconds_f(opt.crash_leader_at)));
  }

  obs::TraceSink trace{1 << 18};
  const bool want_obs = !opt.trace_out.empty() || opt.timeline ||
                        !opt.spans_out.empty() || opt.critical_path;
  if (want_obs) {
    // Authenticator counting only reads outgoing messages — it never
    // changes simulated behavior — so traced runs get it for free.
    opt.cluster.count_authenticators = true;
  }

  // Engine selection: one of the two backends drives the one cluster.
  // --shards=1 is the legacy single-queue engine (byte-identical golden
  // schedule); --shards>1 is the partitioned engine.
  std::optional<sim::Simulator> sim;
  std::optional<sim::ShardedSimulator> sharded;
  std::optional<Cluster> cluster;
  if (opt.shards > 1) {
    sim::ShardedSimulator::Config ecfg;
    ecfg.seed = opt.cluster.seed;
    ecfg.shards = opt.shards;
    ecfg.workers = opt.workers;
    ecfg.lookahead = opt.cluster.net.one_way_delay;
    sharded.emplace(ecfg);
    if (want_obs) sharded->enable_tracing(1 << 18);
    cluster.emplace(*sharded, opt.cluster);
  } else {
    if (want_obs) opt.cluster.trace = &trace;
    sim.emplace(opt.cluster.seed);
    cluster.emplace(*sim, opt.cluster);
  }
  const auto run_to = [&](TimePoint t) {
    if (sim) {
      sim->run_until(t);
    } else {
      sharded->run_until(t);
    }
  };
  const auto trace_events = [&] {
    return sim ? trace.events() : sharded->merged_trace();
  };

  // Measurement window: skip the first 20 % as warm-up.
  const TimePoint start =
      TimePoint::origin() + Duration::from_seconds_f(opt.seconds * 0.2);
  const TimePoint end =
      TimePoint::origin() + Duration::from_seconds_f(opt.seconds);
  cluster->set_measurement_window(start, end);
  cluster->start();

  // The series sampler interleaves run_until slices with metric snapshots:
  // same schema as marlin_run's live sampler, but on the virtual clock, so
  // the trajectory is bit-deterministic from the seed. (On the sharded
  // engine snapshots land at window barriers — the cluster is quiescent.)
  if (!opt.metrics_series_out.empty()) {
    std::ofstream series(opt.metrics_series_out, std::ios::trunc);
    if (!series) {
      std::fprintf(stderr, "cannot write %s\n",
                   opt.metrics_series_out.c_str());
      return 2;
    }
    const double step =
        opt.metrics_interval > 0 ? opt.metrics_interval : 1.0;
    for (double t = step; t < opt.seconds; t += step) {
      const TimePoint at = TimePoint::origin() + Duration::from_seconds_f(t);
      run_to(at);
      obs::MetricsRegistry snap;
      cluster->export_metrics(snap);
      series << obs::metrics_series_line(at.as_seconds_f(), snap) << '\n';
    }
  } else if (opt.metrics_interval > 0) {
    std::fprintf(stderr,
                 "warning: --metrics-interval without --metrics-series-out "
                 "has no effect\n");
  }
  run_to(end + Duration::seconds(1));

  for (const auto& a : cluster->faults().log()) {
    std::printf("[t=%.1fs] fault: %s", a.at.as_seconds_f(),
                faults::fault_kind_name(a.kind));
    if (a.target != kNoReplica) std::printf(" replica %u", a.target);
    std::printf(" (view %llu)\n", static_cast<unsigned long long>(a.view));
  }

  std::printf("\n%s  f=%u (n=%u)  %s%s%s\n",
              opt.cluster.consensus.protocol == ProtocolKind::kMarlin ? "MARLIN"
                                                            : "HOTSTUFF",
              cluster->f(), cluster->n(),
              opt.cluster.consensus.pacemaker.rotate_on_timer ? "rotating " : "",
              opt.cluster.consensus.use_threshold_sigs ? "threshold-sigs " : "",
              opt.cluster.consensus.disable_happy_path ? "unhappy-vc" : "");
  if (sharded) {
    std::printf("  engine:      %u shards x %u workers (lookahead %s)\n",
                sharded->shards(), sharded->workers(),
                sharded->lookahead().to_string().c_str());
  }
  std::printf("  throughput:  %.2f ktx/s (window %.1fs-%.1fs)\n",
              cluster->client_throughput() / 1000.0, start.as_seconds_f(),
              end.as_seconds_f());
  std::printf("  latency:     mean %.1f ms, p50 %.1f, p95 %.1f\n",
              cluster->mean_latency_ms(), cluster->latency_ms(50),
              cluster->latency_ms(95));
  std::printf("  view:        %llu (leader %u)\n",
              static_cast<unsigned long long>(cluster->max_view()),
              cluster->current_leader());

  std::printf("  %-8s %-8s %-10s %-10s\n", "replica", "view", "height",
              "cpu-busy");
  for (ReplicaId r = 0; r < cluster->n(); ++r) {
    if (cluster->network().is_down(r)) {
      std::printf("  %-8u (crashed)\n", r);
      continue;
    }
    const auto& rp = cluster->replica(r);
    std::printf("  %-8u %-8llu %-10llu %s\n", r,
                static_cast<unsigned long long>(rp.protocol().current_view()),
                static_cast<unsigned long long>(
                    rp.protocol().committed_height()),
                rp.cpu_busy().to_string().c_str());
  }

  const bool safe = !cluster->any_safety_violation() &&
                    cluster->committed_heights_consistent();
  std::printf("  safety: %s\n", safe ? "ok" : "VIOLATED");

  if (opt.timeline) {
    std::printf("\n");
    obs::print_view_timeline(trace_events(), std::cout);
  }
  if (!opt.spans_out.empty()) {
    const auto spans = obs::build_spans(trace_events());
    if (!obs::write_text_file(opt.spans_out,
                              obs::spans_to_chrome_json(spans))) {
      std::fprintf(stderr, "failed to write %s\n", opt.spans_out.c_str());
      return 2;
    }
    std::printf("  spans:   %zu blocks -> %s\n", spans.size(),
                opt.spans_out.c_str());
  }
  if (opt.critical_path) {
    std::printf("\n%s", obs::critical_path_report(trace_events()).c_str());
  }
  if (!opt.trace_out.empty()) {
    std::uint64_t evicted = trace.evicted();
    if (sharded) {
      evicted = 0;
      for (std::uint32_t s = 0; s < sharded->shards(); ++s) {
        evicted += sharded->shard_trace(s)->evicted();
      }
    }
    if (evicted > 0) {
      std::fprintf(stderr,
                   "warning: trace ring overflowed; oldest %llu events lost\n",
                   static_cast<unsigned long long>(evicted));
    }
    const auto events = trace_events();
    if (!obs::write_text_file(opt.trace_out, obs::trace_to_jsonl(events))) {
      std::fprintf(stderr, "failed to write %s\n", opt.trace_out.c_str());
      return 2;
    }
    std::printf("  trace:   %zu events -> %s\n", events.size(),
                opt.trace_out.c_str());
  }
  if (!opt.metrics_out.empty() || !opt.metrics_csv.empty()) {
    obs::MetricsRegistry metrics;
    cluster->export_metrics(metrics);
    if (!opt.metrics_out.empty()) {
      if (!obs::write_text_file(opt.metrics_out,
                                obs::metrics_to_json(metrics))) {
        std::fprintf(stderr, "failed to write %s\n", opt.metrics_out.c_str());
        return 2;
      }
      std::printf("  metrics: %s\n", opt.metrics_out.c_str());
    }
    if (!opt.metrics_csv.empty()) {
      if (!obs::write_text_file(opt.metrics_csv,
                                obs::metrics_to_csv(metrics))) {
        std::fprintf(stderr, "failed to write %s\n", opt.metrics_csv.c_str());
        return 2;
      }
      std::printf("  metrics: %s\n", opt.metrics_csv.c_str());
    }
  }
  return safe ? 0 : 1;
}
