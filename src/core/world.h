#ifndef PROXDET_CORE_WORLD_H_
#define PROXDET_CORE_WORLD_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "core/events.h"
#include "graph/interest_graph.h"
#include "traj/streaming.h"
#include "traj/trajectory.h"

namespace proxdet {

/// A scheduled interest-graph change (Sec. VI-E's dynamic workload).
struct GraphUpdate {
  int epoch = 0;
  bool insert = true;  // false = delete
  UserId u = -1;
  UserId w = -1;
  double alert_radius = 0.0;
};

/// The immutable simulation input: user trajectories, the interest graph,
/// and the epoch clock. The paper's "moving speed V (steps per epoch)"
/// knob is `speed_steps`: each detection epoch consumes V raw trajectory
/// ticks, so higher V means users cover more ground between checks.
class World {
 public:
  World(std::vector<Trajectory> trajectories, InterestGraph graph,
        int speed_steps, int epochs);

  /// Streaming world: positions come from the generator one epoch at a
  /// time into a fixed ring of `kStreamWindow` epoch rows, so steady-state
  /// memory is O(user_count) instead of O(user_count x epochs). Drivers
  /// must call BeginEpoch(e) (serially) before reading epoch e; Position/
  /// RecentWindow then serve any epoch within the ring window. Epoch 0
  /// rewinds the stream, so repeated detector Runs over one streaming
  /// world replay bit-identical positions.
  World(std::unique_ptr<StreamingGenerator> stream, InterestGraph graph,
        int epochs);

  /// Epoch rows held by a streaming world's ring: the deepest lookback any
  /// engine needs (the region detector's 10-epoch report window, plus the
  /// current epoch) with one row of slack.
  static constexpr int kStreamWindow = 12;

  size_t user_count() const {
    return stream_ ? stream_->gen->user_count() : trajectories_.size();
  }
  int epochs() const { return epochs_; }
  int speed_steps() const { return speed_steps_; }
  bool streaming() const { return stream_ != nullptr; }

  /// Seconds covered by one epoch.
  double epoch_seconds() const;

  /// Streaming worlds: generates positions up through `epoch` (a no-op for
  /// materialized worlds and already-generated epochs; epoch 0 rewinds the
  /// stream first). Serial point — detectors call it at the top of the
  /// epoch loop, before any parallel Position/RecentWindow fan-out.
  void BeginEpoch(int epoch) const;

  /// User u's exact position at the given epoch (clamped to the trajectory
  /// end if the data runs short).
  Vec2 Position(UserId u, int epoch) const;

  /// The last `count` epoch-spaced positions of u ending at `epoch`
  /// (inclusive, oldest first) — the payload a reporting client attaches
  /// for the server-side predictor.
  std::vector<Vec2> RecentWindow(UserId u, int epoch, size_t count) const;

  /// Allocation-free overload: clears `*out` and fills it with the window.
  /// The detector hot path calls this once per report and once per rebuild;
  /// a reused buffer keeps the epoch loop free of per-user allocations.
  void RecentWindow(UserId u, int epoch, size_t count,
                    std::vector<Vec2>* out) const;

  const InterestGraph& graph() const { return graph_; }

  /// Schedules a graph insertion/deletion; updates apply at epoch start.
  /// Appends in O(1) and marks the schedule dirty — the epoch-ordered
  /// stable sort is deferred to the first read, so an n-update schedule
  /// costs one sort instead of n (the historical per-call re-sort was
  /// O(n^2 log n) across a fig13-style schedule). Must not race with
  /// readers, like any non-const method.
  void ScheduleUpdate(const GraphUpdate& update);

  /// Updates stable-sorted by epoch (ties keep scheduling order). Lazily
  /// sorts on first read after a burst of ScheduleUpdate calls; safe to
  /// call from concurrent readers (the one-time sort is mutex-guarded).
  const std::vector<GraphUpdate>& scheduled_updates() const;

  /// Ground-truth alert stream per Def. 1, honoring scheduled updates:
  /// an inserted edge alerts at its insertion epoch when already within
  /// radius. This is the oracle every detector must match exactly.
  std::vector<AlertEvent> GroundTruthAlerts() const;

 private:
  // Synchronization for the lazy schedule sort; heap-held so World stays
  // movable (moving a World while readers are active is already UB).
  struct ScheduleState {
    std::atomic<bool> dirty{false};
    std::mutex mutex;
  };

  // Streaming mode: the generator plus the epoch-major position ring
  // (`ring[(epoch % kStreamWindow) * N + u]`). Heap-held and mutable:
  // BeginEpoch is logically const (the stream is a pure function of the
  // seed) but advances the cursor. Only the serial BeginEpoch writes it.
  struct StreamState {
    std::unique_ptr<StreamingGenerator> gen;
    std::vector<Vec2> ring;
    int generated = 0;  // Epochs emitted since the last rewind.
  };

  std::vector<Trajectory> trajectories_;
  InterestGraph graph_;
  int speed_steps_;
  int epochs_;
  mutable std::unique_ptr<StreamState> stream_;
  mutable std::vector<GraphUpdate> updates_;  // Sorted by epoch when clean.
  std::unique_ptr<ScheduleState> schedule_state_;
};

}  // namespace proxdet

#endif  // PROXDET_CORE_WORLD_H_
