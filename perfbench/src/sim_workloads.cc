// The simulated workloads. A run is a sequence of episodes, each a freshly
// built cluster driven to a fixed virtual horizon with the run's seed, until
// the wall budget is spent. Episodes of one seed must commit identical
// sequences (the same-seed repeat check); end-to-end figures are medians
// over episodes. In a traced run every node is bound to a SpanScheduler,
// deliveries are sampled for the decode replay, and a trace sink records
// only txpool dequeues.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "crypto/sha256.h"
#include "engine.h"
#include "obs/trace.h"
#include "replay.h"
#include "span_scheduler.h"
#include "workloads.h"

namespace perfbench {

namespace {

using marlin::Duration;
using marlin::TimePoint;
using marlin::runtime::Cluster;
using marlin::runtime::ClusterConfig;
namespace obs = marlin::obs;

/// Cross-episode tracing state of one traced run: up to 32 payloads per
/// message kind, every 61st delivery (a stride coprime to the broadcast
/// fan-outs, so samples spread over senders and receivers).
struct Tracing {
  SpanRecorder spans{50'000};
  DeliverySampler deliveries{32, 61};
  std::vector<std::uint64_t> txpool_wait_ns;
};

struct Episode {
  double setup_s = 0;
  double run_s = 0;
  double sim_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t issued = 0;
  std::uint64_t retransmitted = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t span_ns = 0;
  Usage usage;
  marlin::LatencyHistogram latency;
  std::string digest;
  bool safe = false;
  bool live = true;
  std::size_t faults_fired = 0;
  std::uint64_t state_transfer_bytes = 0;
  marlin::ViewNumber max_view = 0;
  obs::MetricsRegistry registry;
  marlin::net::NodeNetStats net;
  std::uint64_t leader_bytes_out = 0;
};

void hash_u64(marlin::crypto::Sha256& h, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  h.update(marlin::BytesView(b, 8));
}

/// Digest of what the episode committed, and when: every replica's
/// committed tip (which fixes its whole chain) plus each client's
/// completion count and virtual latency distribution.
std::string commit_digest(Cluster& c, TimePoint now) {
  marlin::crypto::Sha256 h;
  for (marlin::ReplicaId r = 0; r < c.n(); ++r) {
    const auto& p = c.replica(r).protocol();
    hash_u64(h, p.committed_height());
    h.update(p.committed_hash().view());
  }
  for (std::size_t i = 0; i < c.client_count(); ++i) {
    auto& cl = c.client(static_cast<marlin::ClientId>(i));
    hash_u64(h, cl.completed().total());
    hash_u64(h, cl.issued());
    hash_u64(h, cl.latency().count());
    hash_u64(h, static_cast<std::uint64_t>(cl.latency().mean().as_nanos()));
    hash_u64(h, static_cast<std::uint64_t>(
                    cl.latency().percentile(99).as_nanos()));
  }
  hash_u64(h, static_cast<std::uint64_t>(now.as_nanos()));
  return h.finish().to_hex();
}

std::unique_ptr<obs::TraceSink> txpool_sink() {
  auto sink = std::make_unique<obs::TraceSink>();
  for (std::size_t t = 0; t < obs::kEventTypeCount; ++t) {
    const auto type = static_cast<obs::EventType>(t);
    sink->set_enabled(type, type == obs::EventType::kBatchDequeued);
  }
  return sink;
}

Episode run_episode(const SimSpec& spec, Tracing* tr) {
  Episode ep;
  const std::uint64_t t0 = wall_ns();
  ClusterConfig cfg = spec.config;
  const std::uint32_t n = 3 * cfg.f + 1;
  const std::uint32_t nodes = n + cfg.clients.count;

  // Declaration order is teardown order in reverse: the cluster goes
  // first, while the schedulers and engine its timers point into live.
  Engine engine(cfg.seed);
  std::unique_ptr<SpanScheduler> control;
  std::vector<std::unique_ptr<SpanScheduler>> scheds;
  std::unique_ptr<obs::TraceSink> sink;
  std::unique_ptr<Cluster> cluster;
  if (tr != nullptr) {
    sink = txpool_sink();
    cfg.trace = sink.get();
    control = std::make_unique<SpanScheduler>(engine.scheduler(), tr->spans,
                                              kControlNode);
    for (std::uint32_t id = 0; id < nodes; ++id) {
      scheds.push_back(
          std::make_unique<SpanScheduler>(engine.scheduler(), tr->spans, id));
    }
    Cluster::EngineBinding binding;
    binding.control = control.get();
    binding.node_sched = [&scheds](marlin::sim::NodeId id) {
      return static_cast<marlin::Scheduler*>(scheds[id].get());
    };
    cluster = engine.cluster(binding, cfg);
    cluster->network().set_delivery_probe(
        [tr](marlin::sim::NodeId, marlin::sim::NodeId,
             const marlin::Payload& p) { tr->deliveries.observe(p); });
    tr->spans.set_classifier([c = cluster.get(), n](std::uint32_t node) {
      if (node >= n) return Role::kClient;
      return c->replica(node).current_view() % n == node ? Role::kLeader
                                                         : Role::kFollower;
    });
  } else {
    cluster = engine.cluster(cfg);
  }
  cluster->start();
  ep.setup_s = static_cast<double>(wall_ns() - t0) * 1e-9;

  const Usage u0 = Usage::now();
  const std::uint64_t a0 = allocations();
  const std::uint64_t spans0 = tr ? tr->spans.total_busy_ns() : 0;
  const std::uint64_t wraps0 = tr ? tr->spans.wraps() : 0;
  const std::uint64_t ev0 = engine.events_executed();
  const std::uint64_t t1 = wall_ns();

  const TimePoint origin = TimePoint::origin();
  engine.run_until(origin + spec.warmup);
  for (std::size_t i = 0; i < cluster->client_count(); ++i) {
    cluster->client(static_cast<marlin::ClientId>(i)).latency().clear();
  }
  std::vector<marlin::Height> base(n, 0);
  if (spec.quiesce > Duration::zero()) {
    engine.run_until(origin + std::max(spec.quiesce, spec.warmup));
    for (marlin::ReplicaId r = 0; r < n; ++r) {
      base[r] = cluster->replica(r).protocol().committed_height();
    }
  }
  engine.run_until(origin + spec.horizon);

  ep.run_s = static_cast<double>(wall_ns() - t1) * 1e-9;
  ep.sim_s = spec.horizon.as_seconds_f();
  ep.usage.add_delta(u0, Usage::now());
  ep.events = engine.events_executed() - ev0;
  if (tr != nullptr) {
    ep.span_ns = tr->spans.total_busy_ns() - spans0;
    // The tracing wrapper itself heap-allocates once per wrapped event.
    ep.allocs = allocations() - a0 - (tr->spans.wraps() - wraps0);
  } else {
    ep.allocs = allocations() - a0;
  }

  for (std::size_t i = 0; i < cluster->client_count(); ++i) {
    auto& cl = cluster->client(static_cast<marlin::ClientId>(i));
    ep.ops += cl.completed().total();
    ep.issued += cl.issued();
    ep.retransmitted += cl.retransmissions();
    ep.latency.merge_from(cl.latency());
  }
  ep.safe = !cluster->any_safety_violation() &&
            cluster->committed_heights_consistent();
  if (spec.quiesce > Duration::zero()) {
    for (marlin::ReplicaId r = 0; r < n; ++r) {
      if (cluster->network().is_down(r) ||
          cluster->replica(r).protocol().committed_height() <= base[r]) {
        ep.live = false;
      }
    }
  }
  ep.faults_fired = cluster->faults().log().size();
  for (marlin::ReplicaId r = 0; r < n; ++r) {
    ep.state_transfer_bytes +=
        cluster->replica(r).metrics().counter_value("state_transfer.bytes");
  }
  ep.digest = commit_digest(*cluster, engine.now());
  ep.max_view = cluster->max_view();
  if (tr != nullptr) {
    cluster->export_metrics(ep.registry);
    ep.net = cluster->network().total_stats();
    for (marlin::ReplicaId r = 0; r < n; ++r) {
      ep.leader_bytes_out = std::max(ep.leader_bytes_out,
                                     cluster->network().stats(r).bytes_sent);
    }
    for (const obs::TraceEvent& e : sink->events()) {
      if (e.type == obs::EventType::kBatchDequeued) {
        tr->txpool_wait_ns.push_back(e.b);
      }
    }
    tr->spans.set_classifier(nullptr);
  }
  return ep;
}

/// Runs episodes until the next one would overrun the budget, but at least
/// `min_episodes`.
std::vector<Episode> run_episodes(const SimSpec& spec, double seconds,
                                  std::size_t min_episodes, Tracing* tr) {
  std::vector<Episode> eps;
  const std::uint64_t start = wall_ns();
  double longest = 0;
  while (true) {
    const std::uint64_t e0 = wall_ns();
    eps.push_back(run_episode(spec, tr));
    const Episode& e = eps.back();
    std::fprintf(stderr, "sim episode %zu: setup %.4f s, %.3f sim-s/wall-s\n",
                 eps.size() - 1, e.setup_s, e.sim_s / e.run_s);
    longest = std::max(longest, static_cast<double>(wall_ns() - e0) * 1e-9);
    const double elapsed = static_cast<double>(wall_ns() - start) * 1e-9;
    if (eps.size() >= min_episodes && elapsed + longest > seconds) break;
  }
  return eps;
}

template <typename F>
double median_of(const std::vector<Episode>& eps, F f) {
  std::vector<double> v;
  for (const Episode& e : eps) v.push_back(f(e));
  return median(v);
}

double per(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer figures of traced episodes (see BENCHMARK.json for meaning).
std::map<std::string, double> sim_layers(const std::vector<Episode>& eps,
                                         const Tracing& tr,
                                         const ClusterConfig& cfg) {
  std::map<std::string, double> m;
  double ops = 0, events = 0, allocs = 0, run_ns = 0, span_ns = 0;
  Usage usage;
  for (const Episode& e : eps) {
    ops += static_cast<double>(e.ops);
    events += static_cast<double>(e.events);
    allocs += static_cast<double>(e.allocs);
    run_ns += e.run_s * 1e9;
    span_ns += static_cast<double>(e.span_ns);
    usage.user_s += e.usage.user_s;
    usage.sys_s += e.usage.sys_s;
    usage.minor_faults += e.usage.minor_faults;
    usage.vol_ctx += e.usage.vol_ctx;
    usage.invol_ctx += e.usage.invol_ctx;
  }
  m["simnet.events_per_op"] = per(events, ops);
  m["simnet.allocs_per_event"] = per(allocs, events);
  m["simnet.engine_self_ns_per_event"] = per(run_ns - span_ns, events);
  m["runtime.leader_busy_us_per_op"] =
      per(static_cast<double>(tr.spans.busy_ns(Role::kLeader)) * 1e-3, ops);
  m["runtime.follower_busy_us_per_op"] =
      per(static_cast<double>(tr.spans.busy_ns(Role::kFollower)) * 1e-3, ops);
  m["runtime.client_busy_us_per_op"] =
      per(static_cast<double>(tr.spans.busy_ns(Role::kClient)) * 1e-3, ops);

  // Counters repeat exactly across same-seed episodes: read the last one.
  const Episode& last = eps.back();
  const double ops1 = static_cast<double>(last.ops);
  const obs::MetricsRegistry& reg = last.registry;
  double decode_ns = 0;
  for (std::size_t k = 0; k < DeliverySampler::kKinds; ++k) {
    if (tr.deliveries.delivered(k) == 0) continue;
    decode_ns += replay_decode_ns(tr.deliveries.samples(k)) *
                 static_cast<double>(tr.deliveries.delivered(k));
  }
  m["types.decode_us_per_op"] = per(decode_ns * 1e-3, ops);
  m["net.msgs_per_op"] = per(static_cast<double>(last.net.messages_sent), ops1);
  m["net.bytes_per_op"] = per(static_cast<double>(last.net.bytes_sent), ops1);
  m["net.leader_bytes_out_per_op"] =
      per(static_cast<double>(last.leader_bytes_out), ops1);
  m["net.dropped_per_op"] =
      per(static_cast<double>(last.net.messages_dropped), ops1);

  const double verifies = static_cast<double>(reg.counter_value("crypto.verifies"));
  const double hash_bytes =
      static_cast<double>(reg.counter_value("crypto.hash_bytes"));
  m["crypto.verifies_per_op"] = per(verifies, ops1);
  m["crypto.signs_per_op"] =
      per(static_cast<double>(reg.counter_value("crypto.signs")), ops1);
  m["crypto.hash_bytes_per_op"] = per(hash_bytes, ops1);
  m["crypto.verify_us_per_op"] =
      per(replay_verify_ns(3 * cfg.f + 1, cfg.seed) * verifies * 1e-3, ops1);
  m["crypto.hash_us_per_op"] =
      per(replay_hash_ns_per_byte(4096) * hash_bytes * 1e-3, ops1);

  const double blocks =
      static_cast<double>(reg.counter_value("replica.committed_blocks"));
  m["storage.pstate_writes_per_block"] =
      per(static_cast<double>(reg.counter_value("storage.pstate_writes")),
          blocks);
  m["storage.checkpoints"] =
      static_cast<double>(reg.counter_value("storage.checkpoints"));
  m["storage.wal_records_replayed"] =
      static_cast<double>(reg.counter_value("recovery.wal_records_replayed"));
  m["storage.put_us_per_block"] = replay_put_ns("", cfg.seed) * 1e-3;

  m["consensus.ops_per_block"] =
      per(static_cast<double>(reg.counter_value("replica.committed_ops")),
          blocks);
  std::vector<double> waits;
  for (std::uint64_t w : tr.txpool_wait_ns) waits.push_back(w * 1e-6);
  m["consensus.txpool_wait_p50_ms"] = waits.empty() ? 0 : median(waits);
  m["consensus.view_changes"] =
      last.max_view > 0 ? static_cast<double>(last.max_view - 1) : 0;

  m["process.sys_cpu_share"] = per(usage.sys_s, usage.cpu_s());
  m["process.minor_faults_per_op"] =
      per(static_cast<double>(usage.minor_faults), ops);
  m["process.vol_ctx_switches_per_op"] =
      per(static_cast<double>(usage.vol_ctx), ops);
  m["process.invol_ctx_switches_per_op"] =
      per(static_cast<double>(usage.invol_ctx), ops);
  m["process.allocs_per_op"] = per(allocs, ops);
  // The simulator opens no sockets and runs no event loop; workloads with
  // a metal twin overwrite these.
  for (const char* name :
       {"realnet.sendmsg_per_op", "realnet.frames_per_flush",
        "realnet.ingress_wakes_per_op", "realnet.frames_per_wake",
        "realnet.loop_iterations_per_op", "realnet.loop_wake_delay_p50_us",
        "realnet.loop_wake_delay_p99_us", "realnet.timer_fire_drift_p99_us",
        "metal.throughput_ops_s", "metal.commit_p50_ms", "metal.commit_p99_ms",
        "metal.cpu_us_per_op"}) {
    m[name] = 0;
  }
  return m;
}

}  // namespace

ClusterConfig lan_n4_config(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.f = 1;
  cfg.seed = seed;
  cfg.clients.count = 1;
  cfg.clients.window = 64;
  cfg.clients.payload_size = 150;
  cfg.consensus.reply_size = 150;
  cfg.consensus.pacemaker.base_timeout = Duration::millis(500);
  cfg.consensus.pacemaker.timeout_jitter = 0.2;
  // Localhost-class model, the same as bench_realnet's sim side.
  cfg.net.one_way_delay = Duration::micros(50);
  cfg.net.link_bandwidth_bps = 10e9;
  cfg.net.nic_bandwidth_bps = 10e9;
  return cfg;
}

SimSpec sim_paper_n100(std::uint64_t seed) {
  SimSpec s;
  ClusterConfig& cfg = s.config;
  cfg.f = 33;
  cfg.seed = seed;
  cfg.clients.count = 32;
  cfg.clients.window = 250;
  cfg.clients.payload_size = 150;
  cfg.consensus.reply_size = 150;
  cfg.consensus.pipelined = false;
  cfg.consensus.max_batch_ops = 32000;
  cfg.consensus.pacemaker.base_timeout_per_replica = Duration::millis(5);
  // NetConfig and crypto::CostModel defaults are the paper's testbed:
  // 40 ms one-way, 200 Mbps links, 1 Gbps NICs, ECDSA-class costs.
  s.horizon = Duration::seconds(3);
  s.warmup = Duration::seconds(1);
  s.quiesce = Duration::zero();
  s.min_ops = 5000;
  return s;
}

SimSpec sim_lan_n4_faults(std::uint64_t seed) {
  SimSpec s;
  s.config = lan_n4_config(seed);
  // Checkpoints every 500 blocks, so several fire per episode.
  s.config.consensus.checkpoint_interval = 500;
  // View 1 is led by replica 1: restarting it from disk forces a view
  // change plus a WAL replay; wiping follower 3 later forces amnesia
  // recovery with a snapshot state transfer.
  s.config.faults.name = "restart-leader-then-wipe-follower";
  s.config.faults.actions.push_back(marlin::faults::FaultAction::restart(
      Duration::millis(600), 1, Duration::millis(100)));
  s.config.faults.actions.push_back(marlin::faults::FaultAction::wipe_disk(
      Duration::millis(1500), 3, Duration::millis(100)));
  s.horizon = Duration::seconds(3);
  s.warmup = Duration::millis(200);
  s.quiesce = s.config.faults.quiesce_time();
  s.min_ops = 20000;
  return s;
}

void run_sim(const Args& args, const SimSpec& spec, RunResult& out) {
  Tracing tracing;
  Tracing* tr = args.traced ? &tracing : nullptr;
  const std::vector<Episode> eps =
      run_episodes(spec, args.seconds, args.traced ? 1 : 2, tr);

  bool safe = true, live = true, faults = true, floor = true, repeat = true;
  const auto& plan = spec.config.faults.actions;
  const bool wipes = std::any_of(plan.begin(), plan.end(), [](const auto& a) {
    return a.kind == marlin::faults::FaultKind::kWipeDisk;
  });
  for (const Episode& e : eps) {
    safe = safe && e.safe;
    live = live && e.live;
    // Every action fired, and an amnesiac replica caught up by snapshot.
    faults = faults && e.faults_fired == plan.size() &&
             (!wipes || e.state_transfer_bytes > 0);
    floor = floor && e.ops >= spec.min_ops;
    repeat = repeat && e.digest == eps.front().digest;
    out.attempted += e.issued;
    out.failed += e.retransmitted;
  }
  out.episodes = eps.size();
  out.digest = eps.front().digest;
  out.check("safety_and_prefix_consistency", safe);
  if (!plan.empty()) {
    out.check("fault_plan_executed", faults);
    out.check("liveness_after_faults", live);
  }
  out.check("committed_ops_floor", floor,
            "min " + std::to_string(spec.min_ops) + " per episode");
  out.check("same_seed_repeat_digest", repeat,
            std::to_string(eps.size()) + " episodes");

  const Episode& first = eps.front();
  auto& m = out.metrics;
  m["sim_s_per_wall_s"] =
      median_of(eps, [](const Episode& e) { return e.sim_s / e.run_s; });
  m["throughput_ops_s"] = median_of(
      eps, [](const Episode& e) { return static_cast<double>(e.ops) / e.run_s; });
  m["commit_p50_ms"] = percentile_ms(first.latency, 50);
  m["commit_p99_ms"] = percentile_ms(first.latency, 99);
  m["cpu_us_per_op"] = median_of(eps, [](const Episode& e) {
    return per(e.usage.cpu_s() * 1e6, static_cast<double>(e.ops));
  });
  m["setup_s"] = median_of(eps, [](const Episode& e) { return e.setup_s; });
  m["peak_rss_mb"] = Usage::now().max_rss_mb;
  m["client.latency_samples"] = static_cast<double>(first.latency.count());
  if (tr != nullptr) {
    for (const auto& [k, v] : sim_layers(eps, *tr, spec.config)) m[k] = v;
    const std::string path = args.out_dir + "/spans-" + args.workload + ".csv";
    if (!tr->spans.write_csv(path)) {
      std::fprintf(stderr, "could not write spans to %s\n", path.c_str());
    }
  }
}

}  // namespace perfbench
