// Property tests for the batched geometry kernels (src/geom/simd): every
// lane must be *bitwise* identical to the per-pair primitive in src/geom it
// replicates (SquaredDistancePointToSegment, SquaredDistanceSegmentToSegment,
// Polyline::SquaredDistanceToPoint, Circle::Contains/ContainsStrict,
// DistanceCircleToCircle and Distance), on randomized batches — including
// the degenerate inputs the scalar library special-cases (zero-length
// segments, single-point and empty polylines), lanes exactly on a boundary,
// and batch sizes from empty to a few dozen lanes.
//
// ctest label: simd. scripts/check.sh also runs this suite in the TSan,
// UBSan and ASan trees.

#include "geom/simd/simd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geom/circle.h"
#include "geom/polyline.h"
#include "geom/segment.h"
#include "geom/stripe.h"
#include "geom/vec2.h"

namespace proxdet {
namespace {

// Batch sizes: empty, a single lane, a handful of small sizes, and 37.
const size_t kBatchSizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 37};

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

#define EXPECT_BITEQ(a, b) EXPECT_EQ(Bits(a), Bits(b))

/// Owning SoA segment batch.
struct SegBatch {
  std::vector<double> ax, ay, bx, by, dx, dy, len2;

  SegBatch() = default;

  /// `n` random segments; every 4th degenerate (a == b) so the zero-length
  /// guard is exercised mid-batch.
  SegBatch(Rng* rng, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const Vec2 a{rng->Uniform(-500, 500), rng->Uniform(-500, 500)};
      const Vec2 b{rng->Uniform(-500, 500), rng->Uniform(-500, 500)};
      Add(a, i % 4 == 3 ? a : b);
    }
  }

  /// The SoA form of `line`: one lane per segment, and a single-point
  /// polyline as one degenerate segment (SegmentSoA's convention).
  explicit SegBatch(const Polyline& line) {
    const std::vector<Vec2>& pts = line.points();
    if (pts.size() == 1) Add(pts[0], pts[0]);
    for (size_t i = 0; i + 1 < pts.size(); ++i) Add(pts[i], pts[i + 1]);
  }

  /// Appends segment a-b with the precomputed fields Segment's own math
  /// derives: d = b - a and len2 = d.SquaredNorm().
  void Add(const Vec2& a, const Vec2& b) {
    const Vec2 d = b - a;
    ax.push_back(a.x);
    ay.push_back(a.y);
    bx.push_back(b.x);
    by.push_back(b.y);
    dx.push_back(d.x);
    dy.push_back(d.y);
    len2.push_back(d.SquaredNorm());
  }

  Segment segment(size_t i) const { return {{ax[i], ay[i]}, {bx[i], by[i]}}; }

  simd::SegmentSoA View() const {
    return simd::SegmentSoA{ax.data(), ay.data(), bx.data(), by.data(),
                            dx.data(), dy.data(), len2.data(), ax.size()};
  }
};

struct PointBatch {
  std::vector<double> x, y;

  explicit PointBatch(Rng* rng, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      x.push_back(rng->Uniform(-500, 500));
      y.push_back(rng->Uniform(-500, 500));
    }
  }

  Vec2 at(size_t i) const { return {x[i], y[i]}; }
};

/// A random walk of `points` points; every 4th step repeats the point, so
/// chains of five or more points hold a zero-length segment.
Polyline RandomPath(Rng* rng, size_t points) {
  std::vector<Vec2> pts;
  Vec2 p{rng->Uniform(-200, 200), rng->Uniform(-200, 200)};
  for (size_t i = 0; i < points; ++i) {
    pts.push_back(p);
    if (i % 4 != 3) p += Vec2{rng->Uniform(-40, 40), rng->Uniform(-40, 40)};
  }
  return Polyline(pts);
}

/// Index-order std::min fold over the per-pair segment-segment distances:
/// the reduction SegmentToPolylineSquaredDistance replicates.
double MinSegmentToSegments(const Segment& q, const SegBatch& segs) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < segs.ax.size(); ++j) {
    best = std::min(best, SquaredDistanceSegmentToSegment(q, segs.segment(j)));
  }
  return best;
}

TEST(SimdDispatchTest, ActiveBackendConsistent) {
  EXPECT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
  EXPECT_STREQ(simd::BackendName(simd::ActiveBackend()), "scalar");
}

TEST(SimdKernelTest, SegmentSquaredDistanceToPointsBitwise) {
  Rng rng(102);
  for (const size_t n : kBatchSizes) {
    // One regular and one degenerate segment against every batch.
    SegBatch segs(&rng, 1);
    segs.Add({segs.ax[0], segs.ay[0]}, {segs.ax[0], segs.ay[0]});
    for (size_t s = 0; s < 2; ++s) {
      const PointBatch p(&rng, n);
      std::vector<double> got(n, -1);
      simd::SegmentSquaredDistanceToPoints(
          segs.ax[s], segs.ay[s], segs.dx[s], segs.dy[s], segs.len2[s],
          p.x.data(), p.y.data(), n, got.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_BITEQ(got[i],
                     SquaredDistancePointToSegment(p.at(i), segs.segment(s)))
            << "n=" << n << " seg=" << s << " lane=" << i;
      }
    }
  }
}

TEST(SimdKernelTest, PolylineSquaredDistanceBitwise) {
  Rng rng(103);
  // Empty, single-point (one degenerate lane), one segment, six segments
  // (one of them zero-length).
  for (const size_t points : {size_t{0}, size_t{1}, size_t{2}, size_t{7}}) {
    const Polyline line = RandomPath(&rng, points);
    const SegBatch segs(line);
    for (const size_t n : kBatchSizes) {
      const PointBatch p(&rng, n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_BITEQ(
            simd::PolylineSquaredDistanceToPoint(segs.View(), p.x[i], p.y[i]),
            line.SquaredDistanceToPoint(p.at(i)))
            << "points=" << points << " n=" << n << " point=" << i;
      }
    }
    if (points > 1) {  // A vertex of the path: distance 0.
      const Vec2 on = line.points()[points / 2];
      EXPECT_BITEQ(
          simd::PolylineSquaredDistanceToPoint(segs.View(), on.x, on.y), 0.0);
      EXPECT_BITEQ(line.SquaredDistanceToPoint(on), 0.0);
    }
  }
}

TEST(SimdKernelTest, SegmentToPolylineSquaredDistanceBitwise) {
  Rng rng(104);
  for (const size_t segs_n : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                              size_t{5}, size_t{8}, size_t{9}, size_t{37}}) {
    const SegBatch segs(&rng, segs_n);
    for (int q = 0; q < 12; ++q) {
      double qax = rng.Uniform(-500, 500);
      double qay = rng.Uniform(-500, 500);
      double qbx = rng.Uniform(-500, 500);
      double qby = rng.Uniform(-500, 500);
      if (q % 3 == 2) {  // Degenerate query segment.
        qbx = qax;
        qby = qay;
      }
      if (q == 5 && segs_n > 0) {  // Shared endpoint: collinear touching.
        qax = segs.ax[0];
        qay = segs.ay[0];
      }
      EXPECT_BITEQ(simd::SegmentToPolylineSquaredDistance(qax, qay, qbx, qby,
                                                          segs.View()),
                   MinSegmentToSegments({{qax, qay}, {qbx, qby}}, segs))
          << "segs=" << segs_n << " q=" << q;
    }
  }
}

TEST(SimdKernelTest, SegmentsSquaredDistanceToPointBitwise) {
  Rng rng(110);
  for (const size_t n : kBatchSizes) {
    const SegBatch segs(&rng, n);
    const Vec2 p{rng.Uniform(-500, 500), rng.Uniform(-500, 500)};
    std::vector<double> got(n, -1);
    simd::SegmentsSquaredDistanceToPoint(segs.View(), p.x, p.y, got.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_BITEQ(got[i], SquaredDistancePointToSegment(p, segs.segment(i)))
          << "n=" << n << " lane=" << i;
    }
    // The full-batch min is the reduced call, bit for bit.
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      best = got[i] < best ? got[i] : best;
    }
    EXPECT_BITEQ(best,
                 simd::PolylineSquaredDistanceToPoint(segs.View(), p.x, p.y));
  }
}

TEST(SimdKernelTest, SegmentToSegmentsSquaredDistancesBitwise) {
  Rng rng(111);
  for (const size_t n : kBatchSizes) {
    const SegBatch segs(&rng, n);
    for (int q = 0; q < 4; ++q) {
      double qax = rng.Uniform(-500, 500);
      double qay = rng.Uniform(-500, 500);
      double qbx = rng.Uniform(-500, 500);
      double qby = rng.Uniform(-500, 500);
      if (q == 1) {  // Degenerate query segment.
        qbx = qax;
        qby = qay;
      }
      if (q == 2 && n > 0) {  // Crossing guaranteed: lane must be 0.
        qax = segs.ax[0];
        qay = segs.ay[0];
        qbx = segs.bx[0];
        qby = segs.by[0];
      }
      const Segment query{{qax, qay}, {qbx, qby}};
      std::vector<double> got(n, -1);
      simd::SegmentToSegmentsSquaredDistances(qax, qay, qbx, qby, segs.View(),
                                              got.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_BITEQ(got[i],
                     SquaredDistanceSegmentToSegment(query, segs.segment(i)))
            << "n=" << n << " q=" << q << " lane=" << i;
      }
      if (q == 2 && n > 0) {
        EXPECT_BITEQ(got[0], 0.0);
      }
      // Batch min == the reduced kernel, bit for bit.
      double best = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < n; ++i) {
        best = got[i] < best ? got[i] : best;
      }
      EXPECT_BITEQ(best, simd::SegmentToPolylineSquaredDistance(
                             qax, qay, qbx, qby, segs.View()));
    }
  }

  // T-junctions whose touching endpoint lies on the other segment's line
  // 5e-13 past one side of its box, inside OnSegment's 1e-12 padding: the
  // per-pair code counts them as intersecting, so the lane is exactly 0.
  // One case per side of the query's box, then of the target's.
  const double e = 5e-13;
  const Segment h{{0, 0}, {10, 0}};
  const Segment v{{0, 0}, {0, 10}};
  const Segment past_h_min{{-e, 0}, {-e, 10}};
  const Segment past_h_max{{10 + e, 0}, {10 + e, 10}};
  const Segment past_v_min{{0, -e}, {10, -e}};
  const Segment past_v_max{{0, 10 + e}, {10, 10 + e}};
  const Segment cases[][2] = {
      {h, past_h_min}, {h, past_h_max}, {v, past_v_min}, {v, past_v_max},
      {past_h_min, h}, {past_h_max, h}, {past_v_min, v}, {past_v_max, v}};
  for (size_t c = 0; c < std::size(cases); ++c) {
    const Segment& q = cases[c][0];
    SegBatch segs;
    segs.Add(cases[c][1].a, cases[c][1].b);
    double got = -1;
    simd::SegmentToSegmentsSquaredDistances(q.a.x, q.a.y, q.b.x, q.b.y,
                                            segs.View(), &got);
    EXPECT_BITEQ(got, SquaredDistanceSegmentToSegment(q, segs.segment(0)))
        << "case " << c;
    EXPECT_BITEQ(got, 0.0) << "case " << c;
    EXPECT_BITEQ(simd::SegmentToPolylineSquaredDistance(q.a.x, q.a.y, q.b.x,
                                                        q.b.y, segs.View()),
                 0.0)
        << "case " << c;
  }
}

TEST(SimdKernelTest, StoreVariantRangedMinMatchesSubBatchReduction) {
  // The concatenated-SoA contract the stripe builder relies on: minima over
  // lane ranges of one big store-kernel call equal the reduced kernels run
  // on each sub-batch alone.
  Rng rng(112);
  const SegBatch all(&rng, 37);
  const size_t cuts[] = {0, 5, 8, 9, 24, 37};  // Sub-batches of the concat.
  const double px = rng.Uniform(-500, 500);
  const double py = rng.Uniform(-500, 500);
  const double qx = rng.Uniform(-500, 500);
  const double qy = rng.Uniform(-500, 500);
  std::vector<double> pt(all.ax.size()), ss(all.ax.size());
  simd::SegmentsSquaredDistanceToPoint(all.View(), px, py, pt.data());
  simd::SegmentToSegmentsSquaredDistances(px, py, qx, qy, all.View(),
                                          ss.data());
  for (size_t c = 0; c + 1 < std::size(cuts); ++c) {
    const size_t begin = cuts[c], end = cuts[c + 1];
    const simd::SegmentSoA sub{
        all.ax.data() + begin,   all.ay.data() + begin,
        all.bx.data() + begin,   all.by.data() + begin,
        all.dx.data() + begin,   all.dy.data() + begin,
        all.len2.data() + begin, end - begin};
    double best_pt = std::numeric_limits<double>::infinity();
    double best_ss = std::numeric_limits<double>::infinity();
    for (size_t j = begin; j < end; ++j) {
      best_pt = pt[j] < best_pt ? pt[j] : best_pt;
      best_ss = ss[j] < best_ss ? ss[j] : best_ss;
    }
    EXPECT_BITEQ(best_pt, simd::PolylineSquaredDistanceToPoint(sub, px, py))
        << "range [" << begin << "," << end << ")";
    EXPECT_BITEQ(best_ss,
                 simd::SegmentToPolylineSquaredDistance(px, py, qx, qy, sub))
        << "range [" << begin << "," << end << ")";
  }
}

TEST(SimdKernelTest, PairPredicatesBitwise) {
  Rng rng(105);
  for (const size_t n : kBatchSizes) {
    PointBatch a(&rng, n), b(&rng, n);
    std::vector<double> r(n), thr(n), ra(n), rb(n);
    for (size_t i = 0; i < n; ++i) {
      r[i] = rng.Uniform(0, 400);
      ra[i] = rng.Uniform(0, 50);
      rb[i] = rng.Uniform(0, 50);
      thr[i] = rng.Uniform(0, 400);
    }
    if (n > 1) {
      // Exact-threshold lane: r == distance, so < must say false.
      b.x[1] = a.x[1] + 3.0;
      b.y[1] = a.y[1];
      r[1] = 3.0;
    }
    if (n > 3) {
      // Exact-gap lane: the gap is 10 - 2 - 3 == thr, so < must say false.
      b.x[2] = a.x[2] + 10.0;
      b.y[2] = a.y[2];
      ra[2] = 2.0;
      rb[2] = 3.0;
      thr[2] = 5.0;
      // Overlapping circles: the gap clamps to 0, and 0 < 0 is false.
      b.x[3] = a.x[3] + 1.0;
      b.y[3] = a.y[3];
      ra[3] = 4.0;
      thr[3] = 0.0;
    }
    // From lane 4 on, every third lane sits exactly on its threshold and
    // the next one an ulp above it, so a lane whose distance or gap is off
    // by one ulp flips its predicate.
    const double inf = std::numeric_limits<double>::infinity();
    for (size_t i = 4; i < n; ++i) {
      const double d = Distance(a.at(i), b.at(i));
      const double gap = DistanceCircleToCircle(Circle{a.at(i), ra[i]},
                                                Circle{b.at(i), rb[i]});
      if (i % 3 == 1) {
        r[i] = d;
        thr[i] = gap;
      } else if (i % 3 == 2) {
        r[i] = std::nextafter(d, inf);
        thr[i] = std::nextafter(gap, inf);
      }
    }
    std::vector<uint8_t> got(n, 2);
    simd::PairsWithinRadii(a.x.data(), a.y.data(), b.x.data(), b.y.data(),
                           r.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], Distance(a.at(i), b.at(i)) < r[i] ? 1 : 0)
          << "PairsWithinRadii n=" << n << " lane=" << i;
    }
    std::fill(got.begin(), got.end(), 2);
    simd::CirclePairsGapBelow(a.x.data(), a.y.data(), ra.data(), b.x.data(),
                              b.y.data(), rb.data(), thr.data(), n,
                              got.data());
    for (size_t i = 0; i < n; ++i) {
      const double gap = DistanceCircleToCircle(Circle{a.at(i), ra[i]},
                                                Circle{b.at(i), rb[i]});
      EXPECT_EQ(got[i], gap < thr[i] ? 1 : 0)
          << "CirclePairsGapBelow n=" << n << " lane=" << i;
    }
  }
}

TEST(SimdKernelTest, CircleKernelsBitwise) {
  Rng rng(106);
  for (const size_t n : kBatchSizes) {
    PointBatch c(&rng, n), p(&rng, n);
    std::vector<double> cr(n);
    for (size_t i = 0; i < n; ++i) cr[i] = rng.Uniform(0, 100);
    if (n > 1) {
      // Boundary lane: p exactly on the circle — strict vs closed differ.
      p.x[1] = c.x[1] + 5.0;
      p.y[1] = c.y[1];
      cr[1] = 5.0;
    }
    for (const bool strict : {false, true}) {
      std::vector<uint8_t> got(n, 2);
      simd::CirclesContainPoints(c.x.data(), c.y.data(), cr.data(),
                                 p.x.data(), p.y.data(), n, strict,
                                 got.data());
      for (size_t i = 0; i < n; ++i) {
        const Circle circle{c.at(i), cr[i]};
        const bool want =
            strict ? circle.ContainsStrict(p.at(i)) : circle.Contains(p.at(i));
        EXPECT_EQ(got[i], want ? 1 : 0)
            << "strict=" << strict << " n=" << n << " lane=" << i;
      }
      if (n > 1) {
        EXPECT_EQ(got[1], strict ? 0 : 1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Stripe-level properties of the geometry entry points the detectors call.
// ---------------------------------------------------------------------------

TEST(SimdStripeTest, StripeContainsTolerancePoints) {
  // Containment is sqrt(d^2) <= radius + 1e-9: points at the exact radius
  // and just inside the tolerance band are in; beyond the band they are
  // out.
  const Stripe s(Polyline({{0, 0}, {10, 0}}), 10.0);
  EXPECT_TRUE(s.Contains({5.0, 10.0}));          // Exactly on the boundary.
  EXPECT_TRUE(s.Contains({5.0, 10.0 + 5e-10}));  // Inside the band.
  EXPECT_FALSE(s.Contains({5.0, 10.0 + 1e-8}));  // Beyond the band.
  EXPECT_FALSE(s.Contains({5.0, 10.1}));
  EXPECT_TRUE(s.Contains({0.0, 0.0}));    // Anchor.
  EXPECT_TRUE(s.Contains({-10.0, 0.0}));  // End-cap boundary.
}

TEST(SimdStripeTest, SinglePointAndEmptyPaths) {
  Rng rng(109);
  const Stripe point_stripe(Polyline({{3.0, 4.0}}), 2.0);
  const Stripe empty_stripe{};
  const Stripe regular(RandomPath(&rng, 5), 3.0);
  // Single-point path: one degenerate cached segment, distances match the
  // point convention.
  EXPECT_BITEQ(point_stripe.DistanceToPoint({3.0, 10.0}), 4.0);
  EXPECT_TRUE(point_stripe.Contains({3.0, 6.0}));
  EXPECT_FALSE(point_stripe.Contains({3.0, 6.1}));
  // Empty path: contains nothing, infinite distance conventions.
  EXPECT_FALSE(empty_stripe.Contains({0, 0}));
  EXPECT_EQ(empty_stripe.DistanceToStripe(regular),
            std::numeric_limits<double>::infinity());
  // Point-vs-regular takes the point-distance branch.
  const double d = point_stripe.DistanceToStripe(regular);
  EXPECT_GE(d, 0.0);
  EXPECT_TRUE(std::isfinite(d));
}

}  // namespace
}  // namespace proxdet
