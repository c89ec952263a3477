#include "obs/trace.h"

#include <cstdio>

namespace proxdet {
namespace obs {

void Tracer::Record(const char* name, const char* category, uint64_t start_us,
                    uint64_t end_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.start_us = start_us;
  event.dur_us = end_us > start_us ? end_us - start_us : 0;
  const auto [it, inserted] = thread_index_.emplace(
      std::this_thread::get_id(),
      static_cast<uint32_t>(thread_index_.size()));
  event.tid = it->second;
  events_.push_back(event);
}

void Tracer::FlowBegin(const char* name, const char* category,
                       uint64_t flow_id) {
  if (!enabled()) return;
  const uint64_t now_us = NowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.start_us = now_us;
  event.phase = TracePhase::kFlowStart;
  event.flow_id = flow_id;
  const auto [it, inserted] = thread_index_.emplace(
      std::this_thread::get_id(),
      static_cast<uint32_t>(thread_index_.size()));
  event.tid = it->second;
  events_.push_back(event);
}

void Tracer::FlowEnd(const char* name, const char* category,
                     uint64_t flow_id) {
  if (!enabled()) return;
  const uint64_t now_us = NowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.start_us = now_us;
  event.phase = TracePhase::kFlowEnd;
  event.flow_id = flow_id;
  const auto [it, inserted] = thread_index_.emplace(
      std::this_thread::get_id(),
      static_cast<uint32_t>(thread_index_.size()));
  event.tid = it->second;
  events_.push_back(event);
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

uint64_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  thread_index_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

std::string Tracer::ToChromeTraceJson() const {
  const std::vector<TraceEvent> events = snapshot();
  std::string out = "{\"traceEvents\": [";
  char buf[256];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.phase == TracePhase::kComplete) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %llu, \"dur\": %llu, \"pid\": 1, \"tid\": %u}",
                    i == 0 ? "" : ",", e.name, e.category,
                    static_cast<unsigned long long>(e.start_us),
                    static_cast<unsigned long long>(e.dur_us), e.tid);
    } else {
      // Flow arrows: "s" starts at the detect site, "f" (binding point
      // "e": enclosing slice) lands on the deliver site, so one alert
      // renders as one flow across shard tracks.
      const bool start = e.phase == TracePhase::kFlowStart;
      std::snprintf(buf, sizeof(buf),
                    "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                    "\"%s\"%s, \"id\": %llu, "
                    "\"ts\": %llu, \"pid\": 1, \"tid\": %u}",
                    i == 0 ? "" : ",", e.name, e.category, start ? "s" : "f",
                    start ? "" : ", \"bp\": \"e\"",
                    static_cast<unsigned long long>(e.flow_id),
                    static_cast<unsigned long long>(e.start_us), e.tid);
    }
    out += buf;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ToChromeTraceJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  return ok;
}

Tracer& Tracer::Global() {
  // Intentionally leaked, like MetricsRegistry::Global(): spans may close
  // during static destruction and must find the tracer alive.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

}  // namespace obs
}  // namespace proxdet
