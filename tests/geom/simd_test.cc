// Property tests for the batched geometry kernels (src/geom/simd): every
// dispatched kernel must be *bitwise* identical to the scalar reference
// (simd::scalar::*) on randomized batches, for every backend compiled in
// and supported by this CPU — including the degenerate inputs the scalar
// library special-cases (zero-length segments, empty polylines) and batch
// sizes straddling the vector widths (0, 1, W-1, W, W+1).
//
// ctest label: simd. scripts/check.sh runs this suite in the TSan tree, the
// UBSan tree (the branchless lane arithmetic must not hide UB behind masks)
// and in the regular tree under PROXDET_SIMD_FORCE=scalar, where dispatch
// binds only the scalar backend and the suite's default-backend runs
// collapse to scalar-vs-scalar identity.

#include "geom/simd/simd.h"

#include <sys/wait.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geom/polyline.h"
#include "geom/stripe.h"
#include "geom/vec2.h"

namespace proxdet {
namespace {

// The batch sizes the contract calls out: empty, single lane, and W-1 / W /
// W+1 for both vector widths, plus a size that is a multiple of neither.
const size_t kBatchSizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 37};

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

#define EXPECT_BITEQ(a, b) EXPECT_EQ(Bits(a), Bits(b))

/// Backends usable on this build + CPU. Scalar always; a vector backend
/// only when compiled in and accepted by the dispatcher.
std::vector<simd::Backend> TestableBackends() {
  std::vector<simd::Backend> out = {simd::Backend::kScalar};
  for (const simd::Backend b : {simd::Backend::kW4, simd::Backend::kW8}) {
    if (simd::SetActiveBackendForTest(b)) out.push_back(b);
  }
  simd::SetActiveBackendForTest(simd::Backend::kScalar);
  return out;
}

/// Runs `fn` once per testable backend with that backend active.
template <typename Fn>
void ForEachBackend(Fn fn) {
  for (const simd::Backend b : TestableBackends()) {
    ASSERT_TRUE(simd::SetActiveBackendForTest(b));
    SCOPED_TRACE(std::string("backend=") + simd::BackendName(b));
    fn();
  }
  simd::SetActiveBackendForTest(simd::Backend::kScalar);
}

/// Owning SoA segment batch; every 4th segment degenerate (a == b) so the
/// zero-length guard is exercised mid-batch in every chunk.
struct SegBatch {
  std::vector<double> ax, ay, bx, by, dx, dy, len2;

  explicit SegBatch(Rng* rng, size_t n, bool with_degenerate = true) {
    for (size_t i = 0; i < n; ++i) {
      const double x0 = rng->Uniform(-500, 500);
      const double y0 = rng->Uniform(-500, 500);
      double x1 = rng->Uniform(-500, 500);
      double y1 = rng->Uniform(-500, 500);
      if (with_degenerate && i % 4 == 3) {
        x1 = x0;
        y1 = y0;
      }
      ax.push_back(x0);
      ay.push_back(y0);
      bx.push_back(x1);
      by.push_back(y1);
      dx.push_back(x1 - x0);
      dy.push_back(y1 - y0);
      len2.push_back(dx.back() * dx.back() + dy.back() * dy.back());
    }
  }

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
};

TEST(SimdDispatchTest, ActiveBackendConsistent) {
  const simd::Backend b = simd::ActiveBackend();
  if (b != simd::Backend::kScalar) {
    EXPECT_TRUE(simd::CompiledWithSimd());
  }
  // A rejected self-check forces scalar; with the check green, a compiled
  // vector backend on a supporting CPU must not silently run scalar.
  EXPECT_TRUE(simd::SelfCheckPassed());
  EXPECT_STREQ(simd::BackendName(simd::Backend::kScalar), "scalar");
}

// PROXDET_SIMD_FORCE is read once, at dispatch's first use. Each value is
// checked in a freshly exec'd child (the threadsafe death-test style
// re-runs the binary) whose first dispatch call comes after the variable
// is set; the child reports the backend it got as its exit code.
TEST(SimdDispatchTest, ForceVariablePinsBackendAtFirstUse) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* const kNames[] = {"scalar", "w4", "w8"};
  int got[3] = {-1, -1, -1};
  for (int i = 0; i < 3; ++i) {
    const auto record_exit_code = [&got, i](int status) {
      got[i] = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      return got[i] >= 0;
    };
    EXPECT_EXIT(
        {
          setenv("PROXDET_SIMD_FORCE", kNames[i], 1);
          std::_Exit(static_cast<int>(simd::ActiveBackend()));
        },
        record_exit_code, "");
  }
  // This process's own first use: under PROXDET_SIMD_FORCE=scalar (the
  // forced-scalar pass of scripts/check.sh) every kernel runs scalar.
  const char* ambient = std::getenv("PROXDET_SIMD_FORCE");
  if (ambient != nullptr && std::strcmp(ambient, "scalar") == 0) {
    EXPECT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
  }
  // A forced vector backend runs where it is compiled and the CPU supports
  // it; anywhere else the force leaves scalar installed.
  const simd::Backend before = simd::ActiveBackend();
  for (int i = 0; i < 3; ++i) {
    const bool usable =
        simd::SetActiveBackendForTest(static_cast<simd::Backend>(i));
    EXPECT_EQ(got[i], usable ? i : 0) << "PROXDET_SIMD_FORCE=" << kNames[i];
  }
  ASSERT_TRUE(simd::SetActiveBackendForTest(before));
}

TEST(SimdKernelTest, SegmentSquaredDistanceToPointsBitwise) {
  Rng rng(102);
  ForEachBackend([&] {
    for (const size_t n : kBatchSizes) {
      // One regular and one degenerate segment against every batch.
      SegBatch segs(&rng, 2);
      segs.dx[1] = segs.dy[1] = segs.len2[1] = 0.0;
      for (size_t s = 0; s < 2; ++s) {
        PointBatch p(&rng, n);
        std::vector<double> got(n, -1), want(n, -2);
        simd::SegmentSquaredDistanceToPoints(
            segs.ax[s], segs.ay[s], segs.dx[s], segs.dy[s], segs.len2[s],
            p.x.data(), p.y.data(), n, got.data());
        simd::scalar::SegmentSquaredDistanceToPoints(
            segs.ax[s], segs.ay[s], segs.dx[s], segs.dy[s], segs.len2[s],
            p.x.data(), p.y.data(), n, want.data());
        for (size_t i = 0; i < n; ++i) {
          EXPECT_BITEQ(got[i], want[i]) << "n=" << n << " seg=" << s
                                        << " lane=" << i;
        }
      }
    }
  });
}

TEST(SimdKernelTest, PolylineSquaredDistanceBitwise) {
  Rng rng(103);
  ForEachBackend([&] {
    for (const size_t segs_n : {size_t{0}, size_t{1}, size_t{6}}) {
      const SegBatch segs(&rng, segs_n);
      for (const size_t n : kBatchSizes) {
        const PointBatch p(&rng, n);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_BITEQ(
              simd::PolylineSquaredDistanceToPoint(segs.View(), p.x[i],
                                                   p.y[i]),
              simd::scalar::PolylineSquaredDistanceToPoint(segs.View(),
                                                           p.x[i], p.y[i]))
              << "segs=" << segs_n << " n=" << n << " point=" << i;
        }
      }
    }
  });
}

TEST(SimdKernelTest, SegmentToPolylineSquaredDistanceBitwise) {
  Rng rng(104);
  ForEachBackend([&] {
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
        EXPECT_BITEQ(
            simd::SegmentToPolylineSquaredDistance(qax, qay, qbx, qby,
                                                   segs.View()),
            simd::scalar::SegmentToPolylineSquaredDistance(qax, qay, qbx, qby,
                                                           segs.View()))
            << "segs=" << segs_n << " q=" << q;
      }
    }
  });
}

TEST(SimdKernelTest, SegmentsSquaredDistanceToPointBitwise) {
  Rng rng(110);
  ForEachBackend([&] {
    for (const size_t n : kBatchSizes) {
      const SegBatch segs(&rng, n);
      const double px = rng.Uniform(-500, 500);
      const double py = rng.Uniform(-500, 500);
      std::vector<double> got(n, -1), want(n, -2);
      simd::SegmentsSquaredDistanceToPoint(segs.View(), px, py, got.data());
      simd::scalar::SegmentsSquaredDistanceToPoint(segs.View(), px, py,
                                                   want.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_BITEQ(got[i], want[i]) << "n=" << n << " lane=" << i;
      }
      // Each lane is the single-segment kernel's value...
      for (size_t i = 0; i < n; ++i) {
        double lane;
        simd::scalar::SegmentSquaredDistanceToPoints(
            segs.ax[i], segs.ay[i], segs.dx[i], segs.dy[i], segs.len2[i],
            &px, &py, 1, &lane);
        EXPECT_BITEQ(got[i], lane) << "lane=" << i;
      }
      // ...and the full-batch min is the reduced call, bit for bit.
      double best = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < n; ++i) {
        best = got[i] < best ? got[i] : best;
      }
      EXPECT_BITEQ(best,
                   simd::PolylineSquaredDistanceToPoint(segs.View(), px, py));
    }
  });
}

TEST(SimdKernelTest, SegmentToSegmentsSquaredDistancesBitwise) {
  Rng rng(111);
  ForEachBackend([&] {
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
        std::vector<double> got(n, -1), want(n, -2);
        simd::SegmentToSegmentsSquaredDistances(qax, qay, qbx, qby,
                                                segs.View(), got.data());
        simd::scalar::SegmentToSegmentsSquaredDistances(
            qax, qay, qbx, qby, segs.View(), want.data());
        for (size_t i = 0; i < n; ++i) {
          EXPECT_BITEQ(got[i], want[i]) << "n=" << n << " q=" << q
                                        << " lane=" << i;
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
  });
}

TEST(SimdKernelTest, StoreVariantRangedMinMatchesSubBatchReduction) {
  // The concatenated-SoA contract the stripe builder relies on: minima over
  // lane ranges of one big store-kernel call equal the reduced kernels run
  // on each sub-batch alone.
  Rng rng(112);
  ForEachBackend([&] {
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
      EXPECT_BITEQ(best_ss, simd::SegmentToPolylineSquaredDistance(px, py, qx,
                                                                   qy, sub))
          << "range [" << begin << "," << end << ")";
    }
  });
}

TEST(SimdKernelTest, PairPredicatesBitwise) {
  Rng rng(105);
  ForEachBackend([&] {
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
      std::vector<uint8_t> got(n, 2), want(n, 3);
      simd::PairsWithinRadii(a.x.data(), a.y.data(), b.x.data(), b.y.data(),
                             r.data(), n, got.data());
      simd::scalar::PairsWithinRadii(a.x.data(), a.y.data(), b.x.data(),
                                     b.y.data(), r.data(), n, want.data());
      EXPECT_EQ(got, want) << "PairsWithinRadii n=" << n;

      simd::CirclePairsGapBelow(a.x.data(), a.y.data(), ra.data(), b.x.data(),
                                b.y.data(), rb.data(), thr.data(), n,
                                got.data());
      simd::scalar::CirclePairsGapBelow(a.x.data(), a.y.data(), ra.data(),
                                        b.x.data(), b.y.data(), rb.data(),
                                        thr.data(), n, want.data());
      EXPECT_EQ(got, want) << "CirclePairsGapBelow n=" << n;
    }
  });
}

TEST(SimdKernelTest, CircleKernelsBitwise) {
  Rng rng(106);
  ForEachBackend([&] {
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
        std::vector<uint8_t> got(n, 2), want(n, 3);
        simd::CirclesContainPoints(c.x.data(), c.y.data(), cr.data(),
                                   p.x.data(), p.y.data(), n, strict,
                                   got.data());
        simd::scalar::CirclesContainPoints(c.x.data(), c.y.data(), cr.data(),
                                           p.x.data(), p.y.data(), n, strict,
                                           want.data());
        EXPECT_EQ(got, want) << "strict=" << strict << " n=" << n;
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Stripe-level properties: the geometry entry points the detectors call must
// give identical answers whichever backend serves them.
// ---------------------------------------------------------------------------

Polyline RandomPath(Rng* rng, size_t points) {
  std::vector<Vec2> pts;
  Vec2 p{rng->Uniform(-200, 200), rng->Uniform(-200, 200)};
  for (size_t i = 0; i < points; ++i) {
    pts.push_back(p);
    p += Vec2{rng->Uniform(-40, 40), rng->Uniform(-40, 40)};
  }
  return Polyline(pts);
}

TEST(SimdStripeTest, StripeQueriesBackendInvariant) {
  Rng rng(108);
  const auto backends = TestableBackends();
  for (int trial = 0; trial < 20; ++trial) {
    const size_t pts_a = 1 + rng.NextIndex(9);
    const size_t pts_b = 1 + rng.NextIndex(9);
    // Zero-width stripes every few trials: radius 0 must behave as the
    // bare polyline.
    const double ra = trial % 5 == 0 ? 0.0 : rng.Uniform(1, 30);
    const double rb = trial % 7 == 0 ? 0.0 : rng.Uniform(1, 30);
    const Stripe a(RandomPath(&rng, pts_a), ra);
    const Stripe b(RandomPath(&rng, pts_b), rb);
    const Vec2 probe{rng.Uniform(-250, 250), rng.Uniform(-250, 250)};

    ASSERT_TRUE(simd::SetActiveBackendForTest(simd::Backend::kScalar));
    const bool want_contains = a.Contains(probe);
    const double want_dp = a.DistanceToPoint(probe);
    const double want_ds = a.DistanceToStripe(b);
    for (const simd::Backend backend : backends) {
      ASSERT_TRUE(simd::SetActiveBackendForTest(backend));
      SCOPED_TRACE(std::string("backend=") + simd::BackendName(backend));
      EXPECT_EQ(a.Contains(probe), want_contains);
      EXPECT_BITEQ(a.DistanceToPoint(probe), want_dp);
      EXPECT_BITEQ(a.DistanceToStripe(b), want_ds);
    }
  }
  simd::SetActiveBackendForTest(simd::Backend::kScalar);
}

TEST(SimdStripeTest, StripeContainsTolerancePoints) {
  // Containment is sqrt(d^2) <= radius + 1e-9: points at the exact radius
  // and just inside the tolerance band are in; beyond the band they are
  // out — on every backend.
  const Stripe s(Polyline({{0, 0}, {10, 0}}), 10.0);
  ForEachBackend([&] {
    EXPECT_TRUE(s.Contains({5.0, 10.0}));          // Exactly on the boundary.
    EXPECT_TRUE(s.Contains({5.0, 10.0 + 5e-10}));  // Inside the band.
    EXPECT_FALSE(s.Contains({5.0, 10.0 + 1e-8}));  // Beyond the band.
    EXPECT_FALSE(s.Contains({5.0, 10.1}));
    EXPECT_TRUE(s.Contains({0.0, 0.0}));   // Anchor.
    EXPECT_TRUE(s.Contains({-10.0, 0.0}));  // End-cap boundary.
  });
}

TEST(SimdStripeTest, SinglePointAndEmptyPaths) {
  Rng rng(109);
  const Stripe point_stripe(Polyline({{3.0, 4.0}}), 2.0);
  const Stripe empty_stripe{};
  const Stripe regular(RandomPath(&rng, 5), 3.0);
  ForEachBackend([&] {
    // Single-point path: one degenerate cached segment, distances match
    // the point convention.
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
  });
}

}  // namespace
}  // namespace proxdet
