#include "geom/stripe.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace proxdet {
namespace {

// Segment lanes for n >= 1 anchors: n - 1, or one degenerate segment.
size_t SegmentLanes(size_t n) { return n == 1 ? 1 : n - 1; }

}  // namespace

Stripe::Stripe(const Polyline& path, double radius)
    : Stripe(path.points().data(), path.size(), radius) {}

Stripe::Stripe(const Vec2* anchors, size_t n, double radius)
    : radius_(radius) {
  if (n == 0) return;
  reject_box_.lo = reject_box_.hi = anchors[0];
  for (size_t i = 0; i < n; ++i) reject_box_.Extend(anchors[i]);
  // Inflate by the radius plus 1e-6: three orders of magnitude above the
  // 1e-9 containment tolerance, so rounding in the inflation can never
  // turn a contained point into a reject.
  const double margin = radius_ + 1e-6;
  reject_box_.lo -= Vec2{margin, margin};
  reject_box_.hi += Vec2{margin, margin};

  // Anchors, then per segment d = b - a and len2 = |d|^2 (the exact doubles
  // ClosestPointOnSegment derives per call). A single anchor is one
  // degenerate segment from the anchor to itself.
  const size_t s = SegmentLanes(n);
  buf_.resize(2 * n + 3 * s);
  double* xs = buf_.data();
  double* ys = xs + n;
  double* dx = ys + n;
  double* dy = dx + s;
  double* len2 = dy + s;
  for (size_t i = 0; i < n; ++i) {
    xs[i] = anchors[i].x;
    ys[i] = anchors[i].y;
  }
  for (size_t i = 0; i < s; ++i) {
    const size_t j = n == 1 ? 0 : i + 1;
    dx[i] = xs[j] - xs[i];
    dy[i] = ys[j] - ys[i];
    len2[i] = dx[i] * dx[i] + dy[i] * dy[i];
  }
}

simd::SegmentSoA Stripe::segments_soa() const {
  const size_t n = anchor_count();
  if (n == 0) return simd::SegmentSoA{};
  const size_t s = SegmentLanes(n);
  const double* xs = anchor_xs();
  const double* ys = xs + n;
  const size_t b = n == 1 ? 0 : 1;  // Offset of segment i's end anchor.
  const double* dx = ys + n;
  return simd::SegmentSoA{xs, ys, xs + b, ys + b, dx, dx + s, dx + 2 * s, s};
}

bool operator==(const Stripe& a, const Stripe& b) {
  const size_t n = a.anchor_count();
  if (a.radius_ != b.radius_ || n != b.anchor_count()) return false;
  for (size_t i = 0; i < n; ++i) {
    if (!(a.anchor(i) == b.anchor(i))) return false;
  }
  return true;
}

bool Stripe::Contains(const Vec2& p) const {
  // AABB early-reject: every anchor is inside reject_box_ deflated by
  // radius_ + 1e-6, so any p outside the box is strictly farther than the
  // containment threshold from every segment.
  if (!has_bounds() || !reject_box_.Contains(p)) {
    return false;
  }
  return std::sqrt(simd::PolylineSquaredDistanceToPoint(segments_soa(), p.x,
                                                        p.y)) <=
         radius_ + 1e-9;
}

double Stripe::DistanceToPoint(const Vec2& p) const {
  return std::max(
      0.0, std::sqrt(simd::PolylineSquaredDistanceToPoint(segments_soa(), p.x,
                                                          p.y)) -
               radius_);
}

double Stripe::DistanceToStripe(const Stripe& other) const {
  // Either path empty: +infinity. A single-anchor stripe is a point, so
  // that side takes the point-to-polyline kernel (the degenerate-segment
  // encoding is only bit-safe for point kernels); otherwise every segment
  // of this path is scanned against the other's, stopping at a crossing.
  const size_t n = anchor_count();
  const size_t other_n = other.anchor_count();
  double d;
  if (n == 0 || other_n == 0) {
    d = std::numeric_limits<double>::infinity();
  } else if (n == 1) {
    d = std::sqrt(simd::PolylineSquaredDistanceToPoint(
        other.segments_soa(), anchor_xs()[0], anchor_ys()[0]));
  } else if (other_n == 1) {
    d = std::sqrt(simd::PolylineSquaredDistanceToPoint(
        segments_soa(), other.anchor_xs()[0], other.anchor_ys()[0]));
  } else {
    const simd::SegmentSoA mine = segments_soa();
    const simd::SegmentSoA theirs = other.segments_soa();
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < mine.n; ++i) {
      const double row = simd::SegmentToPolylineSquaredDistance(
          mine.ax[i], mine.ay[i], mine.bx[i], mine.by[i], theirs);
      best = std::min(best, row);
      if (best == 0.0) break;  // Crossing found: the scalar early exit.
    }
    d = std::sqrt(best);
  }
  return std::max(0.0, d - radius_ - other.radius_);
}

double Stripe::DistanceToCircle(const Circle& c) const {
  return std::max(
      0.0, std::sqrt(simd::PolylineSquaredDistanceToPoint(
               segments_soa(), c.center.x, c.center.y)) -
               radius_ - c.radius);
}

}  // namespace proxdet
