#ifndef PROXDET_GEOM_POLYLINE_H_
#define PROXDET_GEOM_POLYLINE_H_

#include <vector>

#include "geom/segment.h"
#include "geom/vec2.h"

namespace proxdet {

/// Open polygonal chain through an ordered list of points. The predictive
/// safe region is a fixed-radius buffer around a polyline of predicted
/// locations p_1..p_m (Def. 4).
class Polyline {
 public:
  Polyline() = default;
  explicit Polyline(std::vector<Vec2> points);

  const std::vector<Vec2>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  size_t size() const { return points_.size(); }

  Segment segment(size_t i) const { return {points_[i], points_[i + 1]}; }

  /// min_i d(p, segment_i); for a single-point polyline, the distance to
  /// that point. Returns +inf for an empty polyline.
  double DistanceToPoint(const Vec2& p) const;

  /// Squared form of DistanceToPoint: the per-segment scan compares squared
  /// distances and defers the single sqrt to the caller, which is bit-exact
  /// because correctly-rounded sqrt is monotone.
  double SquaredDistanceToPoint(const Vec2& p) const;

  /// Point at arc-length s from the start (clamped to the ends).
  Vec2 PointAtArcLength(double s) const;

  /// Exact (bitwise) structural equality; the wire codec's round-trip
  /// guarantee is stated in terms of it.
  friend bool operator==(const Polyline& a, const Polyline& b) {
    return a.points_ == b.points_;
  }

 private:
  std::vector<Vec2> points_;
};

}  // namespace proxdet

#endif  // PROXDET_GEOM_POLYLINE_H_
