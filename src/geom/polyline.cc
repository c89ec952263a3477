#include "geom/polyline.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace proxdet {

Polyline::Polyline(std::vector<Vec2> points) : points_(std::move(points)) {}

double Polyline::DistanceToPoint(const Vec2& p) const {
  return std::sqrt(SquaredDistanceToPoint(p));
}

double Polyline::SquaredDistanceToPoint(const Vec2& p) const {
  if (points_.empty()) return std::numeric_limits<double>::infinity();
  if (points_.size() == 1) return SquaredDistance(p, points_[0]);
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i + 1 < points_.size(); ++i) {
    best = std::min(best, SquaredDistancePointToSegment(p, segment(i)));
  }
  return best;
}

Vec2 Polyline::PointAtArcLength(double s) const {
  if (points_.empty()) return Vec2();
  if (s <= 0.0 || points_.size() == 1) return points_.front();
  for (size_t i = 0; i + 1 < points_.size(); ++i) {
    const double seg_len = Distance(points_[i], points_[i + 1]);
    if (s <= seg_len) {
      const double t = seg_len > 0.0 ? s / seg_len : 0.0;
      return points_[i] + (points_[i + 1] - points_[i]) * t;
    }
    s -= seg_len;
  }
  return points_.back();
}

}  // namespace proxdet
