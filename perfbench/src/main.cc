// perfbench_marlin — one workload run of the repository benchmark.
//
//   perfbench_marlin --workload=NAME --seed=N --seconds=S [--out-dir=DIR]
//
// Prints one JSON object: the run's header (workload, seed, nproc, build
// type, compiler), its correctness checks, attempted/failed request counts
// and every metric it measured. The traced build (perfbench_marlin_traced)
// binds sim nodes to span-recording schedulers, links the counting
// allocator and adds the per-layer metrics. perfbench/run.py is the
// benchmark's entry point; it runs this binary and checks its output.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "workloads.h"

namespace perfbench {

Usage Usage::now() {
  Usage u;
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return u;
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  u.user_s = secs(ru.ru_utime);
  u.sys_s = secs(ru.ru_stime);
  u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  u.vol_ctx = static_cast<std::uint64_t>(ru.ru_nvcsw);
  u.invol_ctx = static_cast<std::uint64_t>(ru.ru_nivcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

void Usage::add_delta(const Usage& earlier, const Usage& later) {
  user_s += later.user_s - earlier.user_s;
  sys_s += later.sys_s - earlier.sys_s;
  minor_faults += later.minor_faults - earlier.minor_faults;
  vol_ctx += later.vol_ctx - earlier.vol_ctx;
  invol_ctx += later.invol_ctx - earlier.invol_ctx;
  max_rss_mb = later.max_rss_mb;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double percentile_ms(const marlin::LatencyHistogram& h, double p) {
  return h.count() ? h.percentile(p).as_millis_f() : 0;
}

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string to_json(const Args& args, const RunResult& r) {
  std::string out = "{\"workload\":\"" + escape(args.workload) + "\"";
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"seconds\":" + number(args.seconds);
  out += std::string(",\"traced\":") + (args.traced ? "true" : "false");
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"build_type\":\"" + escape(PERFBENCH_BUILD_TYPE) + "\"";
  out += ",\"compiler\":\"" + escape(__VERSION__) + "\"";
  out += std::string(",\"correct\":") + (r.correct() ? "true" : "false");
  out += ",\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    out += i ? "," : "";
    out += "{\"name\":\"" + escape(c.name) + "\",\"ok\":" +
           (c.ok ? "true" : "false") + ",\"detail\":\"" + escape(c.detail) +
           "\"}";
  }
  out += "],\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"episodes\":" + std::to_string(r.episodes);
  out += ",\"digest\":\"" + r.digest + "\"";
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    out += first ? "" : ",";
    first = false;
    out += "\"" + escape(name) + "\":" + number(value);
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

namespace {

bool flag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_marlin --workload=sim-paper-n100|"
               "sim-lan-n4-faults --seed=N --seconds=S "
               "[--out-dir=DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.traced = perfbench::traced_build();
  for (int i = 1; i < argc; ++i) {
    std::string v;
    try {
      if (flag(argv[i], "--workload", &v)) {
        args.workload = v;
      } else if (flag(argv[i], "--seed", &v)) {
        args.seed = std::stoull(v);
      } else if (flag(argv[i], "--seconds", &v)) {
        args.seconds = std::stod(v);
      } else if (flag(argv[i], "--out-dir", &v)) {
        args.out_dir = v;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (args.seconds <= 0) return usage();

  perfbench::RunResult result;
  if (args.workload == "sim-paper-n100") {
    perfbench::run_sim(args, perfbench::sim_paper_n100(args.seed), result);
  } else if (args.workload == "sim-lan-n4-faults") {
    // A traced run splits its budget with the metal twin.
    perfbench::Args sim_args = args;
    if (args.traced) sim_args.seconds = args.seconds / 2;
    perfbench::run_sim(sim_args, perfbench::sim_lan_n4_faults(args.seed),
                       result);
    if (args.traced) {
      perfbench::run_metal_twin(args, args.seconds / 2, result);
    }
  } else {
    return usage();
  }
  std::printf("%s\n", perfbench::to_json(args, result).c_str());
  return result.correct() ? 0 : 1;
}
