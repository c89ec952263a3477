#ifndef PROXDET_GEOM_STRIPE_H_
#define PROXDET_GEOM_STRIPE_H_

#include <vector>

#include "geom/bbox.h"
#include "geom/circle.h"
#include "geom/polyline.h"
#include "geom/simd/simd.h"
#include "geom/vec2.h"

namespace proxdet {

/// Fixed-radius stripe (Def. 4): the set of points within `radius` of a
/// polyline of predicted locations. This is the paper's predictive safe
/// region. Containment is *time-independent* — a user anywhere along the
/// buffered path is safe regardless of speed (Sec. V-A).
///
/// The anchors are stored once, in one heap buffer laid out as
/// [xs(n) | ys(n) | dx(s) | dy(s) | len2(s)] with s = n - 1 segments
/// (s = 1 for a single anchor: one degenerate segment). The segment kernels
/// read the anchor arrays in place: segment i runs from anchor i to
/// anchor i + 1, so its a lanes are xs/ys and its b lanes the same arrays
/// offset by one.
class Stripe {
 public:
  Stripe() = default;
  Stripe(const Polyline& path, double radius);
  /// Stripe over anchors[0..n).
  Stripe(const Vec2* anchors, size_t n, double radius);

  double radius() const { return radius_; }

  /// Cached axis-aligned bounds: the anchor box inflated by radius_ plus
  /// the reject margin. Contains the whole stripe, so box distances derived
  /// from it are sound lower bounds. Only meaningful when has_bounds().
  const BBox& bounds() const { return reject_box_; }
  bool has_bounds() const { return !buf_.empty(); }

  /// The buffer holds 2n + 3s doubles: 5 for one anchor, 5n - 3 for
  /// n >= 2, so the anchor count is derived from its size, not stored.
  size_t anchor_count() const { return (buf_.size() + 3) / 5; }
  Vec2 anchor(size_t i) const { return {anchor_xs()[i], anchor_ys()[i]}; }
  /// The anchors split into coordinate arrays (anchor_count() each).
  const double* anchor_xs() const { return buf_.data(); }
  const double* anchor_ys() const { return buf_.data() + anchor_count(); }

  /// SoA view of the segments, read in place from the stored buffer (the
  /// batched kernels read d = b - a and |d|^2 instead of re-deriving them
  /// per query). A single-anchor stripe is one degenerate segment, which
  /// the point-distance kernels resolve bitwise like the scalar special
  /// case; callers doing segment-segment work must branch on
  /// anchor_count() == 1 and take a point kernel instead, as
  /// DistanceToStripe does.
  simd::SegmentSoA segments_soa() const;

  /// Closed containment: boundary points are inside the safe region.
  bool Contains(const Vec2& p) const;

  /// Minimum distance from p to the stripe (0 when inside).
  double DistanceToPoint(const Vec2& p) const;

  /// Exact minimum distance between two stripes: the polyline-polyline
  /// distance minus both radii, clamped at 0. Used for the sound
  /// region-pair safety check.
  double DistanceToStripe(const Stripe& other) const;

  /// Minimum distance from a disk to the stripe (0 when intersecting).
  double DistanceToCircle(const Circle& c) const;

  /// Exact (bitwise, Vec2 ==) structural equality on radius and anchors
  /// (the reject box and segment lanes are derived from them); the wire
  /// codec's round-trip guarantee is stated in terms of it.
  friend bool operator==(const Stripe& a, const Stripe& b);

 private:
  // [xs | ys | dx | dy | len2], filled once in the constructor; empty when
  // there are no anchors.
  std::vector<double> buf_;
  double radius_ = 0.0;
  // Bounding box of the anchors inflated by radius_ plus a margin that
  // safely dominates the containment tolerance; Contains() rejects points
  // outside it without scanning a single segment. Invalid without anchors.
  BBox reject_box_;
};

}  // namespace proxdet

#endif  // PROXDET_GEOM_STRIPE_H_
