#include "faults/fault_plan.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <variant>

#include "common/json.h"

namespace marlin::faults {

namespace {
constexpr std::string_view kKindNames[] = {
    "crash",      "crash_leader", "recover",    "partition", "heal",
    "silence",    "drop_burst",   "slow_links", "gst",       "byzantine",
    "restart",    "wipe_disk",
};
constexpr std::size_t kKindCount = sizeof kKindNames / sizeof kKindNames[0];

std::optional<FaultKind> kind_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kKindCount; ++i) {
    if (name == kKindNames[i]) return static_cast<FaultKind>(i);
  }
  return std::nullopt;
}
}  // namespace

const char* fault_kind_name(FaultKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kKindCount ? kKindNames[i].data() : "unknown";
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

FaultAction FaultAction::crash(Duration at, ReplicaId r) {
  FaultAction a;
  a.kind = FaultKind::kCrash;
  a.at = at;
  a.replica = r;
  return a;
}

FaultAction FaultAction::crash_leader(Duration at) {
  FaultAction a;
  a.kind = FaultKind::kCrashLeader;
  a.at = at;
  return a;
}

FaultAction FaultAction::recover(Duration at, ReplicaId r) {
  FaultAction a;
  a.kind = FaultKind::kRecover;
  a.at = at;
  a.replica = r;
  return a;
}

FaultAction FaultAction::partition(Duration at,
                                   std::vector<std::vector<ReplicaId>> groups) {
  FaultAction a;
  a.kind = FaultKind::kPartition;
  a.at = at;
  a.groups = std::move(groups);
  return a;
}

FaultAction FaultAction::heal(Duration at) {
  FaultAction a;
  a.kind = FaultKind::kHeal;
  a.at = at;
  return a;
}

FaultAction FaultAction::silence(Duration at, ReplicaId r,
                                 std::vector<ReplicaId> allowed) {
  FaultAction a;
  a.kind = FaultKind::kSilence;
  a.at = at;
  a.replica = r;
  a.allowed = std::move(allowed);
  return a;
}

FaultAction FaultAction::drop_burst(Duration at, double probability,
                                    Duration duration) {
  FaultAction a;
  a.kind = FaultKind::kDropBurst;
  a.at = at;
  a.probability = probability;
  a.duration = duration;
  return a;
}

FaultAction FaultAction::slow_links(Duration at, Duration extra_delay,
                                    Duration duration) {
  FaultAction a;
  a.kind = FaultKind::kSlowLinks;
  a.at = at;
  a.extra_delay = extra_delay;
  a.duration = duration;
  return a;
}

FaultAction FaultAction::gst(Duration at, Duration extra_delay_max,
                             double probability) {
  FaultAction a;
  a.kind = FaultKind::kGst;
  a.at = at;
  a.extra_delay = extra_delay_max;
  a.probability = probability;
  return a;
}

FaultAction FaultAction::byzantine(Duration at, ReplicaId r,
                                   ByzantineMode mode) {
  FaultAction a;
  a.kind = FaultKind::kByzantine;
  a.at = at;
  a.replica = r;
  a.mode = mode;
  return a;
}

FaultAction FaultAction::restart(Duration at, ReplicaId r, Duration down_for) {
  FaultAction a;
  a.kind = FaultKind::kRestart;
  a.at = at;
  a.replica = r;
  a.duration = down_for;
  return a;
}

FaultAction FaultAction::wipe_disk(Duration at, ReplicaId r,
                                   Duration down_for) {
  FaultAction a;
  a.kind = FaultKind::kWipeDisk;
  a.at = at;
  a.replica = r;
  a.duration = down_for;
  return a;
}

// ---------------------------------------------------------------------------
// Plan analysis
// ---------------------------------------------------------------------------

Duration FaultPlan::quiesce_time() const {
  Duration q = Duration::zero();
  for (const FaultAction& a : actions) {
    Duration end = a.at;
    if (a.kind == FaultKind::kDropBurst || a.kind == FaultKind::kSlowLinks ||
        a.kind == FaultKind::kRestart || a.kind == FaultKind::kWipeDisk) {
      // Restart/wipe quiesce when the replica is back up; the recovery
      // itself (WAL replay, state transfer) runs after that instant.
      end = a.at + a.duration;
    }
    q = std::max(q, end);
  }
  return q;
}

std::vector<ReplicaId> FaultPlan::crashed_at_end() const {
  std::map<ReplicaId, bool> down;  // ordered for a stable result
  for (const FaultAction& a : actions) {
    if (a.kind == FaultKind::kCrash) down[a.replica] = true;
    if (a.kind == FaultKind::kRecover || a.kind == FaultKind::kRestart ||
        a.kind == FaultKind::kWipeDisk) {
      down[a.replica] = false;  // restart/wipe targets come back up
    }
  }
  std::vector<ReplicaId> out;
  for (const auto& [r, d] : down) {
    if (d) out.push_back(r);
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

namespace {

/// Durations are written as whole milliseconds when exact, nanoseconds
/// otherwise, so any plan round-trips losslessly while hand-written plans
/// stay in human units.
void append_duration(std::string& out, const char* ms_key, Duration d) {
  char buf[64];
  const std::int64_t ns = d.as_nanos();
  if (ns % 1000000 == 0) {
    std::snprintf(buf, sizeof buf, "\"%s_ms\":%" PRId64, ms_key,
                  ns / 1000000);
  } else {
    std::snprintf(buf, sizeof buf, "\"%s_ns\":%" PRId64, ms_key, ns);
  }
  out += buf;
}

void append_number(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Trim to the shortest representation that parses back exactly.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[48];
    std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
    if (std::strtod(shorter, nullptr) == v) {
      out += shorter;
      return;
    }
  }
  out += buf;
}

void append_id_list(std::string& out, const std::vector<ReplicaId>& ids) {
  out += '[';
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(ids[i]);
  }
  out += ']';
}

}  // namespace

std::string FaultPlan::to_json() const {
  std::string out = "{\n  \"name\": \"";
  json::append_escaped(out, name);
  out += "\",\n  \"actions\": [";
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const FaultAction& a = actions[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"kind\":\"";
    out += fault_kind_name(a.kind);
    out += "\",";
    append_duration(out, "at", a.at);
    switch (a.kind) {
      case FaultKind::kCrash:
      case FaultKind::kRecover:
        out += ",\"replica\":" + std::to_string(a.replica);
        break;
      case FaultKind::kCrashLeader:
      case FaultKind::kHeal:
        break;
      case FaultKind::kPartition:
        out += ",\"groups\":[";
        for (std::size_t g = 0; g < a.groups.size(); ++g) {
          if (g) out += ',';
          append_id_list(out, a.groups[g]);
        }
        out += ']';
        break;
      case FaultKind::kSilence:
        out += ",\"replica\":" + std::to_string(a.replica) + ",\"allowed\":";
        append_id_list(out, a.allowed);
        break;
      case FaultKind::kDropBurst:
        out += ",\"probability\":";
        append_number(out, a.probability);
        out += ',';
        append_duration(out, "duration", a.duration);
        break;
      case FaultKind::kSlowLinks:
        out += ',';
        append_duration(out, "extra_delay", a.extra_delay);
        out += ',';
        append_duration(out, "duration", a.duration);
        break;
      case FaultKind::kGst:
        out += ',';
        append_duration(out, "extra_delay", a.extra_delay);
        out += ",\"probability\":";
        append_number(out, a.probability);
        break;
      case FaultKind::kByzantine:
        out += ",\"replica\":" + std::to_string(a.replica);
        out += ",\"mode\":\"";
        out += byzantine_mode_name(a.mode);
        out += '"';
        break;
      case FaultKind::kRestart:
      case FaultKind::kWipeDisk:
        out += ",\"replica\":" + std::to_string(a.replica) + ',';
        append_duration(out, "duration", a.duration);
        break;
    }
    out += '}';
  }
  out += actions.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// JSON plan decoding — the document parser moved to common/json (it is
// shared with cluster configs and bench baselines); only the plan-schema
// readers stay here.
// ---------------------------------------------------------------------------

namespace {

using JsonValue = json::Value;
using JsonArray = json::Array;
using JsonObject = json::Object;

Status plan_error(std::size_t index, const std::string& what) {
  return error(ErrorCode::kInvalidArgument,
               "action " + std::to_string(index) + ": " + what);
}

/// Reads "<key>_ms" (number) or "<key>_ns" (number) from an action object.
std::optional<Duration> read_duration(const JsonObject& o,
                                      const std::string& key) {
  if (auto it = o.find(key + "_ms"); it != o.end()) {
    if (const double* n = it->second.num()) {
      return Duration::nanos(static_cast<std::int64_t>(*n * 1e6));
    }
    return std::nullopt;
  }
  if (auto it = o.find(key + "_ns"); it != o.end()) {
    if (const double* n = it->second.num()) {
      return Duration::nanos(static_cast<std::int64_t>(*n));
    }
  }
  return std::nullopt;
}

std::optional<ReplicaId> read_replica(const JsonObject& o, const char* key) {
  auto it = o.find(key);
  if (it == o.end()) return std::nullopt;
  const double* n = it->second.num();
  if (!n || *n < 0) return std::nullopt;
  return static_cast<ReplicaId>(*n);
}

std::optional<std::vector<ReplicaId>> read_id_list(const JsonValue& v) {
  const JsonArray* arr = v.array();
  if (!arr) return std::nullopt;
  std::vector<ReplicaId> out;
  for (const JsonValue& e : *arr) {
    const double* n = e.num();
    if (!n || *n < 0) return std::nullopt;
    out.push_back(static_cast<ReplicaId>(*n));
  }
  return out;
}

}  // namespace

Result<FaultPlan> FaultPlan::from_json(std::string_view text) {
  auto doc = ::marlin::json::parse(text);
  if (!doc.is_ok()) return doc.status();
  const JsonObject* root = doc.value().object();
  if (!root) {
    return error(ErrorCode::kInvalidArgument, "plan must be a JSON object");
  }

  FaultPlan plan;
  if (auto it = root->find("name"); it != root->end()) {
    if (const std::string* s = it->second.str()) plan.name = *s;
  }
  auto actions_it = root->find("actions");
  if (actions_it == root->end()) return plan;  // an empty plan is valid
  const JsonArray* actions = actions_it->second.array();
  if (!actions) {
    return error(ErrorCode::kInvalidArgument, "\"actions\" must be an array");
  }

  for (std::size_t i = 0; i < actions->size(); ++i) {
    const JsonObject* o = (*actions)[i].object();
    if (!o) return plan_error(i, "must be an object");
    auto kind_it = o->find("kind");
    const std::string* kind_name =
        kind_it != o->end() ? kind_it->second.str() : nullptr;
    if (!kind_name) return plan_error(i, "missing \"kind\"");
    auto kind = kind_from_name(*kind_name);
    if (!kind) return plan_error(i, "unknown kind \"" + *kind_name + "\"");

    FaultAction a;
    a.kind = *kind;
    auto at = read_duration(*o, "at");
    if (!at) return plan_error(i, "missing \"at_ms\"/\"at_ns\"");
    a.at = *at;

    switch (a.kind) {
      case FaultKind::kCrash:
      case FaultKind::kRecover: {
        auto r = read_replica(*o, "replica");
        if (!r) return plan_error(i, "missing \"replica\"");
        a.replica = *r;
        break;
      }
      case FaultKind::kCrashLeader:
      case FaultKind::kHeal:
        break;
      case FaultKind::kPartition: {
        auto it = o->find("groups");
        const JsonArray* groups = it != o->end() ? it->second.array() : nullptr;
        if (!groups || groups->empty()) {
          return plan_error(i, "partition needs non-empty \"groups\"");
        }
        for (const JsonValue& g : *groups) {
          auto ids = read_id_list(g);
          if (!ids) return plan_error(i, "groups must be arrays of ids");
          a.groups.push_back(std::move(*ids));
        }
        break;
      }
      case FaultKind::kSilence: {
        auto r = read_replica(*o, "replica");
        if (!r) return plan_error(i, "missing \"replica\"");
        a.replica = *r;
        if (auto it = o->find("allowed"); it != o->end()) {
          auto ids = read_id_list(it->second);
          if (!ids) return plan_error(i, "\"allowed\" must be an id array");
          a.allowed = std::move(*ids);
        }
        break;
      }
      case FaultKind::kDropBurst: {
        auto it = o->find("probability");
        const double* p = it != o->end() ? it->second.num() : nullptr;
        if (!p || *p < 0 || *p > 1) {
          return plan_error(i, "needs \"probability\" in [0,1]");
        }
        a.probability = *p;
        auto dur = read_duration(*o, "duration");
        if (!dur) return plan_error(i, "missing \"duration_ms\"");
        a.duration = *dur;
        break;
      }
      case FaultKind::kSlowLinks: {
        auto delay = read_duration(*o, "extra_delay");
        if (!delay) return plan_error(i, "missing \"extra_delay_ms\"");
        a.extra_delay = *delay;
        auto dur = read_duration(*o, "duration");
        if (!dur) return plan_error(i, "missing \"duration_ms\"");
        a.duration = *dur;
        break;
      }
      case FaultKind::kGst: {
        if (auto delay = read_duration(*o, "extra_delay")) {
          a.extra_delay = *delay;
        }
        if (auto it = o->find("probability"); it != o->end()) {
          const double* p = it->second.num();
          if (!p || *p < 0 || *p > 1) {
            return plan_error(i, "\"probability\" must be in [0,1]");
          }
          a.probability = *p;
        }
        break;
      }
      case FaultKind::kByzantine: {
        auto r = read_replica(*o, "replica");
        if (!r) return plan_error(i, "missing \"replica\"");
        a.replica = *r;
        auto it = o->find("mode");
        const std::string* mode = it != o->end() ? it->second.str() : nullptr;
        if (!mode) return plan_error(i, "missing \"mode\"");
        auto m = byzantine_mode_from_name(*mode);
        if (!m) return plan_error(i, "unknown mode \"" + *mode + "\"");
        a.mode = *m;
        break;
      }
      case FaultKind::kRestart:
      case FaultKind::kWipeDisk: {
        auto r = read_replica(*o, "replica");
        if (!r) return plan_error(i, "missing \"replica\"");
        a.replica = *r;
        if (auto dur = read_duration(*o, "duration")) a.duration = *dur;
        break;
      }
    }
    plan.actions.push_back(std::move(a));
  }
  return plan;
}

}  // namespace marlin::faults
