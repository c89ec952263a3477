#include "traj/trajectory.h"

#include <algorithm>

namespace proxdet {

Trajectory::Trajectory(std::vector<Vec2> points, double dt_seconds)
    : points_(std::move(points)), dt_(dt_seconds) {}

double Trajectory::AverageSpeed() const {
  if (points_.size() < 2 || dt_ <= 0.0) return 0.0;
  return PathLength() / (dt_ * static_cast<double>(points_.size() - 1));
}

double Trajectory::SpeedAt(size_t i) const {
  if (i == 0 || i >= points_.size() || dt_ <= 0.0) return 0.0;
  return Distance(points_[i - 1], points_[i]) / dt_;
}

double Trajectory::PathLength() const {
  double acc = 0.0;
  for (size_t i = 1; i < points_.size(); ++i) {
    acc += Distance(points_[i - 1], points_[i]);
  }
  return acc;
}

std::vector<Vec2> Trajectory::RecentWindow(size_t end, size_t count) const {
  if (points_.empty()) return {};
  end = std::min(end, points_.size() - 1);
  const size_t begin = end + 1 >= count ? end + 1 - count : 0;
  return std::vector<Vec2>(points_.begin() + begin, points_.begin() + end + 1);
}

}  // namespace proxdet
