#include "obs/telemetry.h"

#include <cinttypes>
#include <cstdio>
#include <string>

#include "common/json.h"
#include "common/wire_codec.h"

namespace marlin::obs {

namespace {

// "replica.committed_ops" -> "marlin_replica_committed_ops". Prometheus
// metric names admit [a-zA-Z0-9_:]; everything else becomes '_'.
std::string prom_name(const std::string& name) {
  std::string out = "marlin_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void append_escaped_label_value(std::string& out, std::string_view v) {
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
}

// Registry label string "k=v,k2=v2" -> Prometheus 'k="v",k2="v2"'.
// `extra` (e.g. quantile="0.5") is appended when non-empty.
std::string prom_labels(const std::string& label, const std::string& extra) {
  std::string inner;
  std::size_t pos = 0;
  while (pos < label.size()) {
    std::size_t comma = label.find(',', pos);
    if (comma == std::string::npos) comma = label.size();
    const std::string_view pair(label.data() + pos, comma - pos);
    const std::size_t eq = pair.find('=');
    if (!inner.empty()) inner.push_back(',');
    if (eq == std::string_view::npos) {
      // Label without '=': keep it visible rather than dropping data.
      inner += "label=\"";
      append_escaped_label_value(inner, pair);
      inner.push_back('"');
    } else {
      inner.append(pair.substr(0, eq));
      inner += "=\"";
      append_escaped_label_value(inner, pair.substr(eq + 1));
      inner.push_back('"');
    }
    pos = comma + 1;
  }
  if (!extra.empty()) {
    if (!inner.empty()) inner.push_back(',');
    inner += extra;
  }
  if (inner.empty()) return "";
  return "{" + inner + "}";
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

// Emits "# TYPE" once per family; map iteration is ordered by (name,
// label), so a family's series are contiguous.
template <typename Map, typename EmitSeries>
void emit_families(std::string& out, const Map& map, const char* type,
                   EmitSeries&& emit) {
  const std::string* prev_name = nullptr;
  for (const auto& [key, value] : map) {
    if (prev_name == nullptr || *prev_name != key.name) {
      out += "# TYPE " + prom_name(key.name) + " " + type + "\n";
      prev_name = &key.name;
    }
    emit(key, value);
  }
}

double ms(Duration d) { return static_cast<double>(d.as_nanos()) / 1e6; }

}  // namespace

std::string metrics_to_prometheus(const MetricsRegistry& reg) {
  std::string out;
  out.reserve(4096);

  emit_families(out, reg.counters(), "counter",
                [&out](const MetricKey& key, std::uint64_t v) {
                  char buf[32];
                  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
                  out += prom_name(key.name) + prom_labels(key.label, "") +
                         " " + buf + "\n";
                });

  emit_families(out, reg.gauges(), "gauge",
                [&out](const MetricKey& key, double v) {
                  out += prom_name(key.name) + prom_labels(key.label, "") +
                         " " + fmt_double(v) + "\n";
                });

  // Histograms render as Prometheus summaries: quantile series + _sum +
  // _count. Latency values are exported in seconds (the Prometheus base
  // unit); ValueHistograms keep their native unit (bytes, counts).
  static constexpr double kQuantiles[] = {0.5, 0.9, 0.95, 0.99};

  emit_families(
      out, reg.latencies(), "summary",
      [&out](const MetricKey& key, const LatencyHistogram& h) {
        const std::string name = prom_name(key.name);
        for (double q : kQuantiles) {
          const double secs =
              static_cast<double>(h.percentile(q * 100.0).as_nanos()) / 1e9;
          out += name +
                 prom_labels(key.label,
                             "quantile=\"" + fmt_double(q) + "\"") +
                 " " + fmt_double(secs) + "\n";
        }
        const double sum_secs =
            static_cast<double>(h.mean().as_nanos()) / 1e9 *
            static_cast<double>(h.count());
        out += name + "_sum" + prom_labels(key.label, "") + " " +
               fmt_double(sum_secs) + "\n";
        out += name + "_count" + prom_labels(key.label, "") + " " +
               std::to_string(h.count()) + "\n";
      });

  emit_families(
      out, reg.size_histograms(), "summary",
      [&out](const MetricKey& key, const ValueHistogram& h) {
        const std::string name = prom_name(key.name);
        for (double q : kQuantiles) {
          out += name +
                 prom_labels(key.label,
                             "quantile=\"" + fmt_double(q) + "\"") +
                 " " + fmt_double(h.percentile(q * 100.0)) + "\n";
        }
        out += name + "_sum" + prom_labels(key.label, "") + " " +
               std::to_string(h.sum()) + "\n";
        out += name + "_count" + prom_labels(key.label, "") + " " +
               std::to_string(h.count()) + "\n";
      });

  return out;
}

void net_stats_to_metrics(const net::NodeNetStats& stats, MetricsRegistry& reg,
                          std::string_view node_label) {
  reg.counter("net.messages_sent", node_label) += stats.messages_sent;
  reg.counter("net.bytes_sent", node_label) += stats.bytes_sent;
  reg.counter("net.messages_delivered", node_label) +=
      stats.messages_delivered;
  reg.counter("net.bytes_delivered", node_label) += stats.bytes_delivered;
  reg.counter("net.messages_dropped", node_label) += stats.messages_dropped;
  for (std::size_t k = 0; k < net::kNetKindSlots; ++k) {
    if (stats.msgs_sent_by_kind[k] == 0 &&
        stats.msgs_delivered_by_kind[k] == 0) {
      continue;
    }
    const std::string label =
        "kind=" + std::string(wire::kind_slot_name(k));
    reg.counter("net.messages_sent", label) += stats.msgs_sent_by_kind[k];
    reg.counter("net.bytes_sent", label) += stats.bytes_sent_by_kind[k];
    reg.counter("net.messages_delivered", label) +=
        stats.msgs_delivered_by_kind[k];
    reg.counter("net.bytes_delivered", label) +=
        stats.bytes_delivered_by_kind[k];
  }
}

std::string metrics_series_line(double t_seconds, const MetricsRegistry& reg) {
  std::string out;
  out.reserve(1024);
  out += "{\"t\":" + fmt_double(t_seconds);

  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [key, v] : reg.counters()) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    json::append_escaped(out, key.to_string());
    out += "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [key, v] : reg.gauges()) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    json::append_escaped(out, key.to_string());
    out += "\":" + fmt_double(v);
  }
  out += "},\"latency_ms\":{";
  first = true;
  for (const auto& [key, h] : reg.latencies()) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    json::append_escaped(out, key.to_string());
    out += "\":{\"count\":" + std::to_string(h.count()) +
           ",\"mean\":" + fmt_double(ms(h.mean())) +
           ",\"p50\":" + fmt_double(ms(h.percentile(50))) +
           ",\"p95\":" + fmt_double(ms(h.percentile(95))) +
           ",\"p99\":" + fmt_double(ms(h.percentile(99))) +
           ",\"max\":" + fmt_double(ms(h.max())) + "}";
  }
  out += "},\"sizes\":{";
  first = true;
  for (const auto& [key, h] : reg.size_histograms()) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    json::append_escaped(out, key.to_string());
    out += "\":{\"count\":" + std::to_string(h.count()) +
           ",\"mean\":" + fmt_double(h.mean()) +
           ",\"p50\":" + fmt_double(h.percentile(50)) +
           ",\"p99\":" + fmt_double(h.percentile(99)) +
           ",\"max\":" + std::to_string(h.max()) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace marlin::obs
