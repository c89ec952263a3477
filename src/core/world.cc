#include "core/world.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "exec/thread_pool.h"

namespace proxdet {

namespace {

[[noreturn]] void UnreadableEpoch(int epoch, int first, int end) {
  std::fprintf(stderr,
               "FATAL: World::Position read epoch %d outside the streaming "
               "window [%d, %d); call BeginEpoch(epoch) first.\n",
               epoch, first, end);
  std::abort();
}

}  // namespace

void SortAlerts(std::vector<AlertEvent>* alerts) {
  std::sort(alerts->begin(), alerts->end());
}

World::World(std::vector<Trajectory> trajectories, InterestGraph graph,
             int speed_steps, int epochs)
    : trajectories_(std::move(trajectories)),
      graph_(std::move(graph)),
      speed_steps_(speed_steps),
      epochs_(epochs),
      schedule_state_(std::make_unique<ScheduleState>()) {}

World::World(std::unique_ptr<StreamingGenerator> stream, InterestGraph graph,
             int epochs)
    : graph_(std::move(graph)),
      speed_steps_(1),
      epochs_(epochs),
      stream_(std::make_unique<StreamState>()),
      schedule_state_(std::make_unique<ScheduleState>()) {
  stream_->gen = std::move(stream);
  stream_->ring.resize(static_cast<size_t>(kStreamWindow) *
                       stream_->gen->user_count());
}

double World::epoch_seconds() const {
  if (stream_) return stream_->gen->epoch_seconds();
  const double tick =
      trajectories_.empty() ? 1.0 : trajectories_.front().dt();
  return tick * static_cast<double>(speed_steps_);
}

void World::BeginEpoch(int epoch) const {
  if (!stream_) return;
  StreamState& s = *stream_;
  if (epoch == 0 && s.generated > 0) {
    // A fresh Run over the same world: rewind and replay bit-identically.
    s.gen->Reset();
    s.generated = 0;
  }
  const size_t n = s.gen->user_count();
  while (s.generated <= epoch) {
    s.gen->NextEpoch(
        &s.ring[static_cast<size_t>(s.generated % kStreamWindow) * n]);
    ++s.generated;
  }
}

Vec2 World::Position(UserId u, int epoch) const {
  if (stream_) {
    const StreamState& s = *stream_;
    // Readable epochs are the ring window ending at the BeginEpoch cursor;
    // anything else means a caller skipped its BeginEpoch call, and reading
    // the ring there would return another epoch's row (or index before it).
    const int first = std::max(0, s.generated - kStreamWindow);
    if (epoch < first || epoch >= s.generated) {
      UnreadableEpoch(epoch, first, s.generated);
    }
    const size_t n = s.gen->user_count();
    return s.ring[static_cast<size_t>(epoch % kStreamWindow) * n +
                  static_cast<size_t>(u)];
  }
  const Trajectory& traj = trajectories_[u];
  const size_t idx = std::min(static_cast<size_t>(epoch) * speed_steps_,
                              traj.size() - 1);
  return traj.at(idx);
}

std::vector<Vec2> World::RecentWindow(UserId u, int epoch,
                                      size_t count) const {
  std::vector<Vec2> out;
  RecentWindow(u, epoch, count, &out);
  return out;
}

void World::RecentWindow(UserId u, int epoch, size_t count,
                         std::vector<Vec2>* out) const {
  out->clear();
  const int first = std::max(0, epoch - static_cast<int>(count) + 1);
  out->reserve(static_cast<size_t>(epoch - first + 1));
  for (int e = first; e <= epoch; ++e) out->push_back(Position(u, e));
}

void World::ScheduleUpdate(const GraphUpdate& update) {
  updates_.push_back(update);
  schedule_state_->dirty.store(true, std::memory_order_release);
}

const std::vector<GraphUpdate>& World::scheduled_updates() const {
  ScheduleState& state = *schedule_state_;
  if (state.dirty.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(state.mutex);
    if (state.dirty.load(std::memory_order_relaxed)) {
      std::stable_sort(updates_.begin(), updates_.end(),
                       [](const GraphUpdate& a, const GraphUpdate& b) {
                         return a.epoch < b.epoch;
                       });
      state.dirty.store(false, std::memory_order_release);
    }
  }
  return updates_;
}

namespace {

/// Per-pair ground-truth replay inputs (see GroundTruthAlerts).
struct PairState {
  UserId u = -1;
  UserId w = -1;
  double initial_radius = 0.0;
  bool initially_live = false;
  // Indices into the update schedule touching this pair, in order.
  std::vector<size_t> updates;
};

/// Every pair that is ever live: the initial edges plus every pair the
/// update schedule touches, each carrying its private update queue.
std::vector<PairState> BuildPairStates(const InterestGraph& graph,
                                       const std::vector<GraphUpdate>& updates) {
  std::vector<PairState> pairs;
  std::unordered_map<uint64_t, size_t> pair_index;
  for (const auto& e : graph.Edges()) {
    pair_index.emplace(PairKey(e.u, e.w), pairs.size());
    pairs.push_back({std::min(e.u, e.w), std::max(e.u, e.w), e.alert_radius,
                     true, {}});
  }
  for (size_t i = 0; i < updates.size(); ++i) {
    const uint64_t key = PairKey(updates[i].u, updates[i].w);
    auto [it, inserted] = pair_index.emplace(key, pairs.size());
    if (inserted) {
      pairs.push_back({std::min(updates[i].u, updates[i].w),
                       std::max(updates[i].u, updates[i].w), 0.0, false,
                       {}});
    }
    pairs[it->second].updates.push_back(i);
  }
  return pairs;
}

}  // namespace

std::vector<AlertEvent> World::GroundTruthAlerts() const {
  // Epoch-major replay: one position row per epoch, shared by pair chunks
  // that carry their live/matched state across epochs. A streaming world
  // has no random epoch access, so an independent rewound clone re-walks
  // its stream; a materialized world reads Position directly. Memory is
  // O(user_count + pairs) either way. Pairs never interact, so the alert
  // set does not depend on the chunking or the thread count.
  const std::vector<GraphUpdate>& updates = scheduled_updates();
  const std::vector<PairState> pairs = BuildPairStates(graph_, updates);

  const std::unique_ptr<StreamingGenerator> gen =
      stream_ ? stream_->gen->Clone() : nullptr;
  const size_t n = user_count();
  std::vector<Vec2> pos(n);

  struct ReplayState {
    bool live = false;
    bool matched = false;
    double radius = 0.0;
    size_t next_update = 0;
  };
  std::vector<ReplayState> states(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    states[p].live = pairs[p].initially_live;
    states[p].radius = pairs[p].initial_radius;
  }

  const size_t chunk = 64;
  const size_t chunks = (pairs.size() + chunk - 1) / chunk;
  std::vector<std::vector<AlertEvent>> partial(chunks);
  for (int epoch = 0; epoch < epochs_; ++epoch) {
    if (gen) {
      gen->NextEpoch(pos.data());
    } else {
      for (size_t u = 0; u < n; ++u) {
        pos[u] = Position(static_cast<UserId>(u), epoch);
      }
    }
    ParallelFor(chunks, [&](size_t c) {
      const size_t lo = c * chunk;
      const size_t hi = std::min(lo + chunk, pairs.size());
      for (size_t p = lo; p < hi; ++p) {
        const PairState& pair = pairs[p];
        ReplayState& st = states[p];
        while (st.next_update < pair.updates.size() &&
               updates[pair.updates[st.next_update]].epoch <= epoch) {
          const GraphUpdate& up = updates[pair.updates[st.next_update]];
          if (up.insert) {
            if (!st.live) {  // Inserting an already-live edge keeps the
              st.live = true;  // old radius.
              st.radius = up.alert_radius;
            }
          } else {
            st.live = false;
            st.matched = false;
          }
          ++st.next_update;
        }
        if (!st.live) continue;
        const double d = Distance(pos[pair.u], pos[pair.w]);
        const bool inside = d < st.radius;
        if (inside && !st.matched) {
          partial[c].push_back({epoch, pair.u, pair.w});
          st.matched = true;
        } else if (!inside && st.matched) {
          st.matched = false;
        }
      }
    });
  }

  std::vector<AlertEvent> alerts;
  for (const std::vector<AlertEvent>& part : partial) {
    alerts.insert(alerts.end(), part.begin(), part.end());
  }
  SortAlerts(&alerts);
  return alerts;
}

}  // namespace proxdet
