#include "span_scheduler.h"

#include <cstdio>

#include "bench.h"

namespace perfbench {

const char* role_name(Role r) {
  switch (r) {
    case Role::kControl: return "control";
    case Role::kLeader: return "leader";
    case Role::kFollower: return "follower";
    case Role::kClient: return "client";
  }
  return "?";
}

void SpanRecorder::record(std::uint32_t node, std::uint64_t start_ns,
                          std::uint64_t end_ns) {
  const Role role = node == kControlNode || !classify_ ? Role::kControl
                                                       : classify_(node);
  const std::uint64_t dur = end_ns - start_ns;
  busy_[static_cast<std::size_t>(role)] += dur;
  if (kept_.size() < keep_) kept_.push_back({node, role, start_ns, dur});
}

std::uint64_t SpanRecorder::total_busy_ns() const {
  std::uint64_t total = 0;
  for (std::uint64_t b : busy_) total += b;
  return total;
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "node,role,start_ns,duration_ns\n");
  const std::uint64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  for (const Span& s : kept_) {
    std::fprintf(f, "%lld,%s,%llu,%llu\n",
                 s.node == kControlNode ? -1LL : static_cast<long long>(s.node),
                 role_name(s.role),
                 static_cast<unsigned long long>(s.start_ns - origin),
                 static_cast<unsigned long long>(s.dur_ns));
  }
  return std::fclose(f) == 0;
}

marlin::EventFn SpanScheduler::wrap(marlin::EventFn fn) {
  recorder_.note_wrap();
  return [this, fn = std::move(fn)]() mutable {
    const std::uint64_t start = wall_ns();
    fn();
    recorder_.record(node_, start, wall_ns());
  };
}

void DeliverySampler::observe(const marlin::Payload& p) {
  if (p.empty()) return;
  const std::size_t kind = p.data()[0];
  const std::uint64_t seen = seen_[kind]++;
  if (seen % stride_ == 0 && samples_[kind].size() < per_kind_) {
    samples_[kind].push_back(p);
  }
}

}  // namespace perfbench
