#ifndef PROXDET_GEOM_CIRCLE_H_
#define PROXDET_GEOM_CIRCLE_H_

#include "geom/vec2.h"

namespace proxdet {

/// Closed disk. Used for initialization safe regions (Sec. V-C), the
/// FMD/CMD mobile regions, and match regions (Def. 3).
struct Circle {
  Vec2 center;
  double radius = 0.0;

  /// Closed containment: boundary points are inside.
  bool Contains(const Vec2& p) const {
    return SquaredDistance(center, p) <= radius * radius;
  }

  /// Strict containment: boundary points are outside. The match region uses
  /// the strict form so that two members always satisfy d(u,w) < r (Def. 1
  /// alerts on strict inequality).
  bool ContainsStrict(const Vec2& p) const {
    return SquaredDistance(center, p) < radius * radius;
  }

  /// Exact (bitwise) structural equality; the wire codec's round-trip
  /// guarantee is stated in terms of it.
  friend bool operator==(const Circle& a, const Circle& b) {
    return a.center == b.center && a.radius == b.radius;
  }
};

/// Minimum distance from p to the disk (0 when inside).
double DistancePointToCircle(const Vec2& p, const Circle& c);

/// Minimum distance between two disks (0 when overlapping).
double DistanceCircleToCircle(const Circle& a, const Circle& b);

}  // namespace proxdet

#endif  // PROXDET_GEOM_CIRCLE_H_
