// Shared vocabulary of the benchmark binary: the result a workload run
// produces, process-level measurements taken from outside the program
// (getrusage, the counting allocator), and the JSON result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace perfbench {

/// Wall clock for every span and phase the benchmark times.
inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// getrusage(RUSAGE_SELF) snapshot: covers every thread of the process.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t vol_ctx = 0;
  std::uint64_t invol_ctx = 0;
  double max_rss_mb = 0;

  static Usage now();
  double cpu_s() const { return user_s + sys_s; }
  /// Accumulates the counters of `later - earlier` (max_rss is not a delta).
  void add_delta(const Usage& earlier, const Usage& later);
};

/// Heap allocations since process start; always 0 in the untraced build,
/// which does not link the counting allocator (see flavor.cc).
std::uint64_t allocations();
/// True in the traced build (perfbench_marlin_traced).
bool traced_build();

/// One named check of a run's outputs.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one workload run reports. `metrics` holds values keyed by the
/// names in BENCHMARK.json; the binary emits every name it measured and the
/// benchmark script (run.py) selects the end-to-end or per-layer set.
struct RunResult {
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t episodes = 0;
  /// Hex digest of the committed sequence (sim runs; empty on metal).
  std::string digest;
  std::map<std::string, double> metrics;

  bool correct() const {
    for (const Check& c : checks) {
      if (!c.ok) return false;
    }
    return !checks.empty();
  }
  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  /// Scratch directory for data dirs and written-out spans.
  std::string out_dir = ".";
};

/// Median of a sample: the mean of the two middle values for even sizes,
/// 0 when empty.
double median(std::vector<double> v);

/// p-th percentile of a latency sample in milliseconds (0 when empty).
double percentile_ms(const marlin::LatencyHistogram& h, double p);

/// Serializes a result as one JSON object line.
std::string to_json(const Args& args, const RunResult& r);

}  // namespace perfbench
