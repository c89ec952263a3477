#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>

namespace proxdet {
namespace obs {

void FlightRecorder::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  for (Ring& ring : rings_) {
    if (ring.slots.empty()) continue;
    // Re-lay the newest min(count, capacity) events out oldest-first.
    std::vector<FlightEvent> kept;
    const size_t keep = std::min(ring.count, capacity_);
    for (size_t i = ring.count - keep; i < ring.count; ++i) {
      kept.push_back(ring.slots[(ring.head + i) % ring.slots.size()]);
    }
    kept.resize(capacity_);
    ring.slots = std::move(kept);
    ring.head = 0;
    ring.count = keep;
  }
}

size_t FlightRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void FlightRecorder::set_dump_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  dump_path_ = path;
}

std::string FlightRecorder::dump_path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dump_path_;
}

void FlightRecorder::Record(const FlightEvent& event) {
  if (!enabled()) return;
  recorded_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0) return;
  const size_t index = event.shard < 0 ? 0 : static_cast<size_t>(event.shard) + 1;
  if (index >= rings_.size()) rings_.resize(index + 1);
  Ring& ring = rings_[index];
  if (ring.slots.empty()) ring.slots.resize(capacity_);
  size_t slot;
  if (ring.count < capacity_) {
    slot = (ring.head + ring.count) % capacity_;
    ring.count += 1;
  } else {
    slot = ring.head;  // Full: the newest overwrites the oldest.
    ring.head = (ring.head + 1) % capacity_;
  }
  ring.slots[slot] = event;
  ring.slots[slot].id = next_id_++;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Ring& ring : rings_) {
    ring.head = 0;
    ring.count = 0;
  }
  next_id_ = 0;
  recorded_.store(0, std::memory_order_relaxed);
}

void FlightRecorder::CollectLocked(std::vector<FlightEvent>* out) const {
  for (const Ring& ring : rings_) {
    for (size_t i = 0; i < ring.count; ++i) {
      out->push_back(ring.slots[(ring.head + i) % ring.slots.size()]);
    }
  }
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CollectLocked(&out);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.id < b.id;
            });
  return out;
}

std::vector<FlightEvent> FlightRecorder::Head(size_t n) const {
  std::vector<FlightEvent> all = snapshot();
  if (all.size() > n) all.erase(all.begin(), all.end() - n);
  return all;
}

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

std::string FlightRecorder::ToJson(const std::string& reason) const {
  const std::vector<FlightEvent> events = snapshot();
  std::string out = "{\n  \"reason\": \"";
  AppendEscaped(reason, &out);
  out += "\",\n  \"recorded\": " + std::to_string(recorded());
  out += ",\n  \"buffered\": " + std::to_string(events.size());
  out += ",\n  \"events\": [";
  char buf[224];
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"id\": %llu, \"kind\": \"%s\", \"shard\": %d, "
                  "\"src\": %d, \"dst\": %d, \"seq\": %llu, \"msg_kind\": %u, "
                  "\"time_s\": %.9f}",
                  i == 0 ? "" : ",", static_cast<unsigned long long>(e.id),
                  FlightEventKindName(e.kind), e.shard, e.src, e.dst,
                  static_cast<unsigned long long>(e.seq),
                  static_cast<unsigned>(e.msg_kind), e.time_s);
    out += buf;
  }
  out += events.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool FlightRecorder::DumpOnFailure(const std::string& reason) const {
  const std::string path = dump_path();
  if (path.empty()) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ToJson(reason);
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  return ok;
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // Leaked: exit-safe.
  return *recorder;
}

}  // namespace obs
}  // namespace proxdet
