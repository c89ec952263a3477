#ifndef PROXDET_TRAJ_TRAJECTORY_H_
#define PROXDET_TRAJ_TRAJECTORY_H_

#include <vector>

#include "geom/vec2.h"

namespace proxdet {

/// A trajectory sampled at a fixed tick `dt_seconds`: position i is the
/// user's location at time i * dt. The paper interpolates all four datasets
/// at a 5 s step (Sec. VI-A); our generators emit ticked samples directly.
class Trajectory {
 public:
  Trajectory() = default;
  Trajectory(std::vector<Vec2> points, double dt_seconds);

  const std::vector<Vec2>& points() const { return points_; }
  double dt() const { return dt_; }
  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const Vec2& at(size_t i) const { return points_[i]; }

  /// Mean over ticks of the per-tick speed, in m/s.
  double AverageSpeed() const;

  /// Instantaneous speed entering tick i (0 for i == 0), in m/s.
  double SpeedAt(size_t i) const;

  /// Total traveled length in meters.
  double PathLength() const;

  /// Recent window: the last `count` points ending at index `end`
  /// (inclusive); shorter near the start.
  std::vector<Vec2> RecentWindow(size_t end, size_t count) const;

 private:
  std::vector<Vec2> points_;
  double dt_ = 1.0;
};

}  // namespace proxdet

#endif  // PROXDET_TRAJ_TRAJECTORY_H_
