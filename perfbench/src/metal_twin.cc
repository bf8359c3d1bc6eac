// The metal twin of sim-lan-n4-faults: the fault-free n=4 LAN description
// on realnet::RealCluster over 127.0.0.1 TCP, with durable stores on
// PosixEnv (no fsync) and inline verification. It runs in the traced run
// only: its wall-clock figures on a shared 4-core host spread far beyond
// any bound an end-to-end metric could carry, so they are reported as
// per-layer metal.* metrics next to the realnet.* counters taken from
// RealCluster::sample_metrics. Each episode is a freshly built cluster with
// its own data dir.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "realnet/clock.h"
#include "realnet/real_cluster.h"
#include "workloads.h"

namespace perfbench {

namespace {

using marlin::Duration;
using marlin::TimePoint;
namespace obs = marlin::obs;

constexpr std::uint64_t kMinOps = 10000;  // per episode
const Duration kWarmup = Duration::millis(300);
const Duration kMeasure = Duration::millis(1500);

struct MetalEpisode {
  std::string error;
  bool safe = false;
  double throughput = 0;
  std::uint64_t ops = 0;
  std::uint64_t issued = 0;
  std::uint64_t retransmitted = 0;
  Usage usage;
  marlin::LatencyHistogram latency;
  obs::MetricsRegistry registry;
};

MetalEpisode run_episode(const marlin::runtime::ClusterConfig& cfg,
                         const std::string& dir) {
  MetalEpisode ep;
  marlin::realnet::RealClusterOptions opt;
  opt.data_dir = dir;
  marlin::realnet::RealCluster cluster(cfg, opt);
  if (!cluster.ok().is_ok()) {
    ep.error = cluster.ok().message();
    return ep;
  }
  const TimePoint window = marlin::realnet::mono_now() + kWarmup;
  cluster.set_measurement_window(window, window + kMeasure);
  const Usage u0 = Usage::now();
  cluster.start();
  std::this_thread::sleep_for(std::chrono::nanoseconds(
      (window + kMeasure - marlin::realnet::mono_now()).as_nanos()));
  cluster.stop();
  ep.usage.add_delta(u0, Usage::now());

  ep.throughput = cluster.client_throughput();
  for (marlin::ClientId c = 0; c < cluster.client_count(); ++c) {
    auto& cl = cluster.client(c);
    ep.ops += cl.completed().total();
    ep.issued += cl.issued();
    ep.retransmitted += cl.retransmissions();
    ep.latency.merge_from(cl.latency());
  }
  ep.safe = !cluster.any_safety_violation() &&
            cluster.committed_heights_consistent() &&
            cluster.min_committed_height() > 0;
  ep.registry = cluster.sample_metrics();
  return ep;
}

double per(double num, double den) { return den > 0 ? num / den : 0; }

double latency_us(const obs::MetricsRegistry& reg, const std::string& name,
                  double p) {
  for (const auto& [key, h] : reg.latencies()) {
    if (key.name == name && key.label.empty() && h.count() > 0) {
      return h.percentile(p).as_micros_f();
    }
  }
  return 0;
}

double sizes_mean(const obs::MetricsRegistry& reg, const std::string& name) {
  for (const auto& [key, h] : reg.size_histograms()) {
    if (key.name == name && key.label.empty()) return h.mean();
  }
  return 0;
}

}  // namespace

void run_metal_twin(const Args& args, double seconds, RunResult& out) {
  const marlin::runtime::ClusterConfig cfg = lan_n4_config(args.seed);
  const std::string base = args.out_dir + "/metal-" + std::to_string(args.seed);
  const std::uint64_t start = wall_ns();
  std::vector<MetalEpisode> eps;
  std::string error;
  double longest = 0;
  while (true) {
    const std::uint64_t e0 = wall_ns();
    const std::string dir = base + "-" + std::to_string(eps.size());
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    MetalEpisode ep = run_episode(cfg, dir);
    std::filesystem::remove_all(dir, ec);
    if (!ep.error.empty()) {
      error = ep.error;
      break;
    }
    std::fprintf(stderr, "metal episode %zu: %.0f ops/s\n", eps.size(),
                 ep.throughput);
    eps.push_back(std::move(ep));
    longest = std::max(longest, static_cast<double>(wall_ns() - e0) * 1e-9);
    const double elapsed = static_cast<double>(wall_ns() - start) * 1e-9;
    if (elapsed + longest > seconds) break;
  }
  out.check("metal_twin_init", error.empty(), error);
  if (eps.empty()) return;

  bool safe = true, floor = true;
  obs::MetricsRegistry reg;
  marlin::LatencyHistogram latency;
  std::vector<double> throughput, cpu;
  double ops = 0;
  for (const MetalEpisode& e : eps) {
    safe = safe && e.safe;
    floor = floor && e.ops >= kMinOps;
    out.attempted += e.issued;
    out.failed += e.retransmitted;
    reg.merge_from(e.registry);
    latency.merge_from(e.latency);
    throughput.push_back(e.throughput);
    cpu.push_back(per(e.usage.cpu_s() * 1e6, static_cast<double>(e.ops)));
    ops += static_cast<double>(e.ops);
  }
  out.check("metal_twin_safety_and_prefix_consistency", safe);
  out.check("metal_twin_committed_ops_floor", floor,
            "min " + std::to_string(kMinOps) + " per episode");

  auto counter = [&reg](const char* name) {
    return static_cast<double>(reg.counter_value(name));
  };
  auto& m = out.metrics;
  m["metal.throughput_ops_s"] = median(throughput);
  m["metal.commit_p50_ms"] = percentile_ms(latency, 50);
  m["metal.commit_p99_ms"] = percentile_ms(latency, 99);
  m["metal.cpu_us_per_op"] = median(cpu);
  // The transport counts one flush per successful sendmsg call.
  m["realnet.sendmsg_per_op"] = per(counter("transport.flushes"), ops);
  m["realnet.frames_per_flush"] = sizes_mean(reg, "transport.frames_per_flush");
  m["realnet.ingress_wakes_per_op"] =
      per(counter("transport.ingress_wakes"), ops);
  m["realnet.frames_per_wake"] = sizes_mean(reg, "loop.frames_per_wake");
  m["realnet.loop_iterations_per_op"] = per(counter("loop.iterations"), ops);
  m["realnet.loop_wake_delay_p50_us"] = latency_us(reg, "loop.wake_delay", 50);
  m["realnet.loop_wake_delay_p99_us"] = latency_us(reg, "loop.wake_delay", 99);
  m["realnet.timer_fire_drift_p99_us"] =
      latency_us(reg, "timer.fire_drift", 99);
}

}  // namespace perfbench
