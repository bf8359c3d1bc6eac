// Shared configuration and table-printing helpers for the per-figure
// benchmark binaries. Every figure bench builds deterministic simulated
// clusters calibrated to the paper's testbed (DESIGN.md §1): 40 ms one-way
// delay, 200 Mbps provisioned links, 1 Gbps NICs, ECDSA-cost crypto,
// LevelDB-class storage, checkpoint every 5000 blocks, 150 B requests and
// replies.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "obs/export.h"
#include "runtime/experiment.h"

namespace marlin::bench {

using runtime::ClusterConfig;
using runtime::ProtocolKind;

using runtime::protocol_name;

/// Paper-calibrated base configuration for a given f.
inline ClusterConfig paper_config(std::uint32_t f, ProtocolKind protocol) {
  ClusterConfig cfg;
  cfg.f = f;
  cfg.consensus.protocol = protocol;
  cfg.net.one_way_delay = Duration::millis(40);
  cfg.net.link_bandwidth_bps = 200e6;
  cfg.net.nic_bandwidth_bps = 1e9;
  cfg.consensus.max_batch_ops = 32000;
  // One consensus instance at a time (propose after decide). This is the
  // operating mode whose throughput ratios match the paper's measurements;
  // fully-chained pipelining (pipelined = true, the library default)
  // equalizes both protocols' block rates at saturation — shown explicitly
  // by bench_ablations.
  cfg.consensus.pipelined = false;
  cfg.consensus.checkpoint_interval = 5000;
  cfg.clients.payload_size = 150;
  cfg.consensus.reply_size = 150;
  cfg.clients.count = 32;
  cfg.consensus.pacemaker.base_timeout = Duration::seconds(3);
  cfg.seed = 20220701;
  return cfg;
}

/// Load points (total outstanding client requests) per f, spanning light
/// load through the saturation knee while keeping latencies in the
/// paper's plotted range (≤ ~1 s).
inline std::vector<std::uint32_t> load_points(std::uint32_t f) {
  if (f <= 2) return {2000, 8000, 16000, 32000, 48000};
  if (f <= 5) return {2000, 8000, 16000, 32000};
  if (f <= 10) return {1000, 4000, 8000, 16000};
  return {1000, 4000, 8000};
}

/// Measurement window per f: large clusters commit in coarse ~1 s
/// generations, so short windows quantize badly; average over more of them.
inline Duration measure_for(std::uint32_t f) {
  return f >= 10 ? Duration::seconds(15) : Duration::seconds(5);
}

struct SweepPoint {
  std::uint32_t outstanding;
  runtime::ExperimentReport result;
};

/// Observability artifacts a bench can accumulate across runs and dump at
/// exit: a cluster metrics snapshot (merged additively over every run) and
/// the protocol trace of the runs it was wired into (the ring keeps the
/// newest events when a long sweep overflows it).
struct ObsArtifacts {
  obs::MetricsRegistry metrics;
  obs::TraceSink trace{1u << 17};

  /// Writes <prefix>.metrics.json and <prefix>.trace.jsonl; returns false
  /// if either write fails.
  bool write(const std::string& prefix) const {
    bool ok = obs::write_text_file(prefix + ".metrics.json",
                                   obs::metrics_to_json(metrics));
    ok = obs::write_text_file(prefix + ".trace.jsonl",
                              obs::trace_to_jsonl(trace)) &&
         ok;
    return ok;
  }
};

/// Runs a load sweep for one (f, protocol), printing rows as they finish.
/// With `artifacts`, every run traces into its sink and merges its metrics
/// snapshot (authenticator counting included, for the Table I cross-check).
inline std::vector<SweepPoint> run_sweep(std::uint32_t f,
                                         ProtocolKind protocol,
                                         std::size_t payload_size = 150,
                                         Duration warmup = Duration::seconds(3),
                                         ObsArtifacts* artifacts = nullptr) {
  std::vector<SweepPoint> out;
  for (std::uint32_t outstanding : load_points(f)) {
    ClusterConfig cfg = paper_config(f, protocol);
    cfg.clients.payload_size = payload_size;
    cfg.clients.window = std::max(1u, outstanding / cfg.clients.count);
    if (artifacts) {
      cfg.trace = &artifacts->trace;
      cfg.count_authenticators = true;
    }
    auto opt = runtime::throughput_options(cfg, warmup, measure_for(f));
    opt.metrics = artifacts ? &artifacts->metrics : nullptr;
    auto res = runtime::run_experiment(opt);
    std::printf("%-9s f=%-3u out=%-6u  tput=%8.2f ktx/s  mean=%7.1f ms  "
                "p50=%7.1f  p95=%7.1f  safe=%d\n",
                protocol_name(protocol), f, outstanding,
                res.throughput_ops / 1000.0, res.mean_latency_ms,
                res.p50_latency_ms, res.p95_latency_ms,
                res.safety_ok && res.consistent);
    std::fflush(stdout);
    out.push_back({outstanding, res});
  }
  return out;
}

/// Peak throughput over a sweep (the paper reports the max of its sweep).
inline double peak_ktx(const std::vector<SweepPoint>& sweep) {
  double best = 0;
  for (const auto& p : sweep) {
    best = std::max(best, p.result.throughput_ops / 1000.0);
  }
  return best;
}

inline void print_header(const char* title) {
  std::printf("\n==================================================================\n");
  std::printf("%s\n", title);
  std::printf("==================================================================\n");
  std::fflush(stdout);
}

}  // namespace marlin::bench
