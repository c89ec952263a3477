#include "obs/report.h"

#include <cmath>
#include <cstdio>

namespace proxdet {
namespace obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

std::string JsonNum(double v) {
  // JSON has no Inf/NaN; encode them as strings so the document stays valid.
  if (!std::isfinite(v)) {
    if (std::isnan(v)) return "\"nan\"";
    return v > 0 ? "\"inf\"" : "\"-inf\"";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* KindDir(Kind kind) {
  return kind == Kind::kDeterministic ? "deterministic" : "wall_clock";
}

/// Emits the snapshot's metrics of one Kind as a JSON object body
/// {"counters": {...}, "gauges": {...}, "histograms": {...},
///  "quantiles": {...}}.
std::string MetricsJson(const MetricsSnapshot& snap, Kind kind,
                        const std::string& pad) {
  std::string out = "{";
  const std::string inner = pad + "  ";
  bool group_first = true;
  auto open_group = [&](const char* key) {
    if (!group_first) out += ",";
    group_first = false;
    out += "\n" + inner + "\"" + key + "\": {";
  };

  open_group("counters");
  bool first = true;
  for (const auto& [name, entry] : snap.counters) {
    if (entry.first != kind) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += inner + "  \"" + JsonEscape(name) +
           "\": " + std::to_string(entry.second);
  }
  out += first ? "}" : "\n" + inner + "}";

  open_group("gauges");
  first = true;
  for (const auto& [name, entry] : snap.gauges) {
    if (entry.first != kind) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += inner + "  \"" + JsonEscape(name) + "\": " + JsonNum(entry.second);
  }
  out += first ? "}" : "\n" + inner + "}";

  open_group("histograms");
  first = true;
  for (const auto& [name, entry] : snap.histograms) {
    if (entry.kind != kind) continue;
    out += first ? "\n" : ",\n";
    first = false;
    const Histogram& h = entry.value;
    out += inner + "  \"" + JsonEscape(name) + "\": {\"count\": " +
           std::to_string(h.count()) + ", \"sum\": " + JsonNum(h.sum()) +
           ", \"bounds\": [";
    for (size_t b = 0; b < h.bounds().size(); ++b) {
      if (b > 0) out += ", ";
      out += JsonNum(h.bounds()[b]);
    }
    out += "], \"bucket_counts\": [";
    for (size_t b = 0; b < h.bucket_counts().size(); ++b) {
      if (b > 0) out += ", ";
      out += std::to_string(h.bucket_counts()[b]);
    }
    out += "]}";
  }
  out += first ? "}" : "\n" + inner + "}";

  open_group("quantiles");
  first = true;
  for (const auto& [name, entry] : snap.quantiles) {
    if (entry.kind != kind) continue;
    out += first ? "\n" : ",\n";
    first = false;
    const StreamingQuantile& q = entry.value;
    out += inner + "  \"" + JsonEscape(name) + "\": {\"count\": " +
           std::to_string(q.count()) + ", \"sum\": " + JsonNum(q.sum()) +
           ", \"min\": " + JsonNum(q.min()) + ", \"max\": " + JsonNum(q.max()) +
           ", \"p50\": " + JsonNum(q.Quantile(0.5)) +
           ", \"p90\": " + JsonNum(q.Quantile(0.9)) +
           ", \"p99\": " + JsonNum(q.Quantile(0.99)) +
           ", \"p999\": " + JsonNum(q.Quantile(0.999)) + "}";
  }
  out += first ? "}" : "\n" + inner + "}";

  out += "\n" + pad + "}";
  return out;
}

}  // namespace

RunReport::Section& RunReport::SectionFor(const std::string& section) {
  for (auto& [name, body] : sections_) {
    if (name == section) return body;
  }
  sections_.emplace_back(section, Section{});
  return sections_.back().second;
}

void RunReport::AddInfo(const std::string& key, const std::string& value) {
  info_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
}

void RunReport::AddCount(const std::string& section, const std::string& key,
                         uint64_t value) {
  SectionFor(section).emplace_back(key, std::to_string(value));
}

void RunReport::AddScalar(const std::string& section, const std::string& key,
                          double value) {
  SectionFor(section).emplace_back(key, JsonNum(value));
}

void RunReport::CaptureMetrics(MetricsSnapshot snapshot) {
  metrics_ = std::move(snapshot);
  have_metrics_ = true;
}

std::string RunReport::ToJson() const {
  std::string out = "{\n  \"run\": \"" + JsonEscape(name_) + "\",\n";
  out += "  \"info\": {";
  for (size_t i = 0; i < info_.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + JsonEscape(info_[i].first) + "\": " + info_[i].second;
  }
  out += info_.empty() ? "},\n" : "\n  },\n";
  out += "  \"sections\": {";
  for (size_t s = 0; s < sections_.size(); ++s) {
    out += s == 0 ? "\n" : ",\n";
    out += "    \"" + JsonEscape(sections_[s].first) + "\": {";
    const Section& body = sections_[s].second;
    for (size_t i = 0; i < body.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += "      \"" + JsonEscape(body[i].first) + "\": " + body[i].second;
    }
    out += body.empty() ? "}" : "\n    }";
  }
  out += sections_.empty() ? "},\n" : "\n  },\n";
  out += "  \"metrics\": {\n";
  for (const Kind kind : {Kind::kDeterministic, Kind::kWallClock}) {
    out += std::string("    \"") + KindDir(kind) +
           "\": " + MetricsJson(metrics_, kind, "    ");
    out += kind == Kind::kDeterministic ? ",\n" : "\n";
  }
  out += "  }\n}\n";
  return out;
}

bool RunReport::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  return std::fclose(f) == 0 && written == json.size();
}

}  // namespace obs
}  // namespace proxdet
