#include "geom/stripe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geom/anchor_grid.h"

namespace proxdet {
namespace {

Polyline LPath() { return Polyline({{0, 0}, {10, 0}, {10, 10}}); }

Stripe MakeLStripe(double radius) { return Stripe(LPath(), radius); }

TEST(StripeTest, ContainsWithinRadiusOfAnySegment) {
  const Stripe s = MakeLStripe(2.0);
  EXPECT_TRUE(s.Contains({5, 1.5}));
  EXPECT_TRUE(s.Contains({11.5, 5}));
  EXPECT_TRUE(s.Contains({5, 2}));   // Exactly on the boundary.
  EXPECT_FALSE(s.Contains({5, 2.1}));
  EXPECT_FALSE(s.Contains({-3, 0}));
}

TEST(StripeTest, DefinitionEquivalence) {
  // Def. 4: contained iff min segment distance <= radius.
  const Polyline path = LPath();
  const Stripe s(path, 1.5);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const Vec2 p{rng.Uniform(-5, 15), rng.Uniform(-5, 15)};
    const bool by_def = path.DistanceToPoint(p) <= s.radius() + 1e-9;
    EXPECT_EQ(s.Contains(p), by_def);
  }
}

TEST(StripeTest, DistanceToPoint) {
  const Stripe s = MakeLStripe(2.0);
  // Nearest segment is the vertical one (distance 5), minus radius 2.
  EXPECT_DOUBLE_EQ(s.DistanceToPoint({5, 6}), 3.0);
  EXPECT_DOUBLE_EQ(s.DistanceToPoint({5, 1}), 0.0);  // Inside.
}

TEST(StripeTest, StripeStripeDistance) {
  const Stripe a(Polyline({{0, 0}, {10, 0}}), 1.0);
  const Stripe b(Polyline({{0, 10}, {10, 10}}), 2.0);
  EXPECT_DOUBLE_EQ(a.DistanceToStripe(b), 7.0);
  const Stripe overlapping(Polyline({{0, 2}, {10, 2}}), 1.5);
  EXPECT_DOUBLE_EQ(a.DistanceToStripe(overlapping), 0.0);
}

TEST(StripeTest, DistanceToCircle) {
  const Stripe s(Polyline({{0, 0}, {10, 0}}), 1.0);
  const Circle c{{5, 6}, 2.0};
  EXPECT_DOUBLE_EQ(s.DistanceToCircle(c), 3.0);
  const Circle touching{{5, 2.5}, 1.5};
  EXPECT_DOUBLE_EQ(s.DistanceToCircle(touching), 0.0);
}

TEST(StripeTest, SinglePointStripeActsAsDisk) {
  const Stripe s(Polyline({{3, 3}}), 2.0);
  EXPECT_TRUE(s.Contains({4, 3}));
  EXPECT_FALSE(s.Contains({6, 3}));
  EXPECT_DOUBLE_EQ(s.DistanceToPoint({3, 8}), 3.0);
}

TEST(StripeTest, ZeroRadiusStripeContainsOnlyPath) {
  const Stripe s(Polyline({{0, 0}, {10, 0}}), 0.0);
  EXPECT_TRUE(s.Contains({5, 0}));
  EXPECT_FALSE(s.Contains({5, 0.1}));
}

// Property: the AABB early-reject in Contains never changes the answer.
// Points are drawn from a range much wider than the stripe so most fall
// outside the reject box, and every verdict must still match Def. 4.
TEST(StripeTest, PropertyContainsMatchesDefinitionFarField) {
  Rng rng(47);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Vec2> pts;
    Vec2 p{rng.Uniform(-50, 50), rng.Uniform(-50, 50)};
    for (int i = 0; i < 5; ++i) {
      pts.push_back(p);
      p += Vec2{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    }
    const Polyline path(pts);
    const Stripe s(path, rng.Uniform(0.5, 5.0));
    for (int i = 0; i < 100; ++i) {
      const Vec2 q{rng.Uniform(-2000, 2000), rng.Uniform(-2000, 2000)};
      const bool by_def = path.DistanceToPoint(q) <= s.radius() + 1e-9;
      EXPECT_EQ(s.Contains(q), by_def);
    }
  }
}

// Boundary points sit exactly at the containment threshold; the inflated
// reject box must never clip them.
TEST(StripeTest, BoundaryPointsSurviveEarlyReject) {
  const Stripe s(Polyline({{0, 0}, {10, 0}}), 2.0);
  EXPECT_TRUE(s.Contains({5, 2}));     // On the boundary.
  EXPECT_TRUE(s.Contains({-2, 0}));    // End-cap extreme, outside the
  EXPECT_TRUE(s.Contains({12, 0}));    // path's own bbox.
  EXPECT_TRUE(s.Contains({0, -2}));
  EXPECT_FALSE(s.Contains({5, 2.001}));
  EXPECT_FALSE(s.Contains({1e6, 1e6}));  // Far-field reject.
}

// Property: the squared-distance segment scan with one final sqrt is
// bit-identical to the historical per-segment sqrt minimization (IEEE sqrt
// is monotone), so detector output cannot shift.
TEST(StripeTest, PropertySquaredScanMatchesPerSegmentSqrt) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Vec2> pts;
    Vec2 p{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
    const int n = 2 + static_cast<int>(rng.NextIndex(6));
    for (int i = 0; i < n; ++i) {
      pts.push_back(p);
      p += Vec2{rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
    }
    const Polyline poly(pts);
    const Vec2 q{rng.Uniform(-500, 500), rng.Uniform(-500, 500)};
    double per_segment = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i + 1 < poly.size(); ++i) {
      per_segment =
          std::min(per_segment, DistancePointToSegment(q, poly.segment(i)));
    }
    EXPECT_EQ(poly.DistanceToPoint(q), per_segment);  // Bit-exact.
    EXPECT_EQ(std::sqrt(poly.SquaredDistanceToPoint(q)), per_segment);
  }
}

// Property: symmetry and the triangle-ish consistency of stripe distance
// with containment (distance 0 iff some sampled path point of one is inside
// the other's buffer expanded by its radius).
TEST(StripeTest, PropertyStripeDistanceSymmetric) {
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    auto random_stripe = [&rng]() {
      std::vector<Vec2> pts;
      Vec2 p{rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
      for (int i = 0; i < 4; ++i) {
        pts.push_back(p);
        p += Vec2{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
      }
      return Stripe(Polyline(pts), rng.Uniform(0.1, 2.0));
    };
    const Stripe a = random_stripe();
    const Stripe b = random_stripe();
    EXPECT_DOUBLE_EQ(a.DistanceToStripe(b), b.DistanceToStripe(a));
    EXPECT_GE(a.DistanceToStripe(b), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Layout: the stored buffer is exactly the anchors plus the segment lanes
// derived from them, and every accessor reads back what went in.
// ---------------------------------------------------------------------------

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// A random walk of n anchors; on the anchor grid when `on_grid` (the form
// the stripe builder installs).
std::vector<Vec2> RandomAnchors(Rng* rng, size_t n, bool on_grid) {
  std::vector<Vec2> pts;
  Vec2 p{rng->Uniform(-500, 500), rng->Uniform(-500, 500)};
  for (size_t i = 0; i < n; ++i) {
    pts.push_back(on_grid ? SnapToAnchorGrid(p) : p);
    p += Vec2{rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
  }
  return pts;
}

void ExpectLayoutMatches(const std::vector<Vec2>& pts, double radius,
                         const Stripe& s) {
  const size_t n = pts.size();
  ASSERT_EQ(s.anchor_count(), n);
  EXPECT_EQ(Bits(s.radius()), Bits(radius));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(Bits(s.anchor_xs()[i]), Bits(pts[i].x)) << i;
    EXPECT_EQ(Bits(s.anchor_ys()[i]), Bits(pts[i].y)) << i;
    EXPECT_TRUE(s.anchor(i) == pts[i]) << i;
  }

  // Segment i runs from anchor i to anchor i + 1; a single anchor is one
  // degenerate segment from the anchor to itself; no anchors, no lanes.
  const simd::SegmentSoA segs = s.segments_soa();
  ASSERT_EQ(segs.n, n == 0 ? 0 : (n == 1 ? 1 : n - 1));
  for (size_t i = 0; i < segs.n; ++i) {
    const Vec2 a = pts[i];
    const Vec2 b = pts[n == 1 ? 0 : i + 1];
    const double dx = b.x - a.x;
    const double dy = b.y - a.y;
    EXPECT_EQ(Bits(segs.ax[i]), Bits(a.x)) << i;
    EXPECT_EQ(Bits(segs.ay[i]), Bits(a.y)) << i;
    EXPECT_EQ(Bits(segs.bx[i]), Bits(b.x)) << i;
    EXPECT_EQ(Bits(segs.by[i]), Bits(b.y)) << i;
    EXPECT_EQ(Bits(segs.dx[i]), Bits(dx)) << i;
    EXPECT_EQ(Bits(segs.dy[i]), Bits(dy)) << i;
    EXPECT_EQ(Bits(segs.len2[i]), Bits(dx * dx + dy * dy)) << i;
  }

  // Bounds: the anchor box inflated by radius + 1e-6.
  ASSERT_EQ(s.has_bounds(), n > 0);
  if (n == 0) return;
  Vec2 lo = pts[0];
  Vec2 hi = pts[0];
  for (const Vec2& p : pts) {
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }
  const double margin = radius + 1e-6;
  EXPECT_EQ(Bits(s.bounds().lo.x), Bits(lo.x - margin));
  EXPECT_EQ(Bits(s.bounds().lo.y), Bits(lo.y - margin));
  EXPECT_EQ(Bits(s.bounds().hi.x), Bits(hi.x + margin));
  EXPECT_EQ(Bits(s.bounds().hi.y), Bits(hi.y + margin));
}

TEST(StripeLayoutTest, LanesAnchorsAndBoundsMatchTheInput) {
  Rng rng(2024);
  for (const bool on_grid : {false, true}) {
    for (const size_t n : {0, 1, 2, 3, 64}) {
      for (int trial = 0; trial < 10; ++trial) {
        SCOPED_TRACE("n=" + std::to_string(n) +
                     (on_grid ? " grid" : " random"));
        const std::vector<Vec2> pts = RandomAnchors(&rng, n, on_grid);
        const double radius = trial == 0 ? 0.0 : rng.Uniform(0.5, 40.0);
        ExpectLayoutMatches(pts, radius, Stripe(Polyline(pts), radius));
        ExpectLayoutMatches(pts, radius,
                            Stripe(pts.data(), pts.size(), radius));
        // Copies and moves carry the whole layout.
        const Stripe original(pts.data(), pts.size(), radius);
        const Stripe copy(original);
        ExpectLayoutMatches(pts, radius, copy);
        Stripe moved_from(original);
        const Stripe moved(std::move(moved_from));
        ExpectLayoutMatches(pts, radius, moved);
      }
    }
  }
}

// operator== keeps the Vec2 == semantics on (radius, anchors) that the
// Polyline-backed equality had: -0.0 equals 0.0, a NaN coordinate is
// unequal even to itself, and anchor count, any coordinate or the radius
// breaks equality.
TEST(StripeLayoutTest, EqualityIsVec2EqualityOnRadiusAndAnchors) {
  Rng rng(99);
  for (const size_t n : {0, 1, 2, 3, 64}) {
    for (const bool on_grid : {false, true}) {
      const std::vector<Vec2> pts = RandomAnchors(&rng, n, on_grid);
      const Stripe s(Polyline(pts), 3.0);
      EXPECT_TRUE(s == Stripe(pts.data(), pts.size(), 3.0));
      EXPECT_FALSE(s == Stripe(Polyline(pts), 3.5));
      if (n == 0) continue;
      std::vector<Vec2> shifted = pts;
      shifted[n / 2].y = std::nextafter(shifted[n / 2].y, 1e9);
      EXPECT_FALSE(s == Stripe(Polyline(shifted), 3.0));
      std::vector<Vec2> shorter(pts.begin(), pts.end() - 1);
      EXPECT_FALSE(s == Stripe(Polyline(shorter), 3.0));
    }
  }
  const Stripe pos(Polyline({{0.0, 1.0}, {2.0, 0.0}}), 1.0);
  const Stripe neg(Polyline({{-0.0, 1.0}, {2.0, -0.0}}), 1.0);
  EXPECT_TRUE(pos == neg);
  EXPECT_TRUE(Stripe(Polyline({{0.0, 0.0}}), 0.0) ==
              Stripe(Polyline({{0.0, 0.0}}), -0.0));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Stripe with_nan(Polyline({{nan, 0.0}, {1.0, 1.0}}), 1.0);
  EXPECT_FALSE(with_nan == with_nan);
  // The same verdicts as Polyline equality plus radius equality.
  const std::vector<std::pair<Polyline, double>> cases = {
      {Polyline({{0.0, 1.0}, {2.0, 0.0}}), 1.0},
      {Polyline({{-0.0, 1.0}, {2.0, -0.0}}), 1.0},
      {Polyline({{0.0, 1.0}, {2.0, 0.0}}), 2.0},
      {Polyline({{0.0, 1.0}}), 1.0},
      {Polyline(), 1.0},
      {Polyline({{nan, 1.0}}), 1.0},
  };
  for (const auto& [pa, ra] : cases) {
    for (const auto& [pb, rb] : cases) {
      EXPECT_EQ(Stripe(pa, ra) == Stripe(pb, rb), pa == pb && ra == rb);
    }
  }
}

}  // namespace
}  // namespace proxdet
