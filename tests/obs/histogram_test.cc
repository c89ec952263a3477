// Golden and property tests for the fixed-bucket Histogram and the
// HDR-style StreamingQuantile sketch: exact bucket placement (Prometheus
// "le" semantics), quantile accuracy bounds, the sentinel buckets for
// non-positive / non-finite samples, and the merge discipline — merging
// two instances must equal the instance built from the concatenated
// sample streams.

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/histogram.h"

namespace proxdet {
namespace obs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(HistogramTest, LeBucketPlacementGolden) {
  Histogram h(std::vector<double>{1.0, 2.0, 5.0});
  // A sample lands in the first bucket whose upper bound is >= the value.
  h.Record(0.5);   // bucket 0 (le 1)
  h.Record(1.0);   // bucket 0 (le semantics: boundary is inclusive)
  h.Record(1.5);   // bucket 1 (le 2)
  h.Record(5.0);   // bucket 2 (le 5)
  h.Record(100.0); // overflow (+inf)
  const std::vector<uint64_t> expected{2, 1, 1, 1};
  EXPECT_EQ(h.bucket_counts(), expected);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 5.0 + 100.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum() / 5.0);
}

TEST(HistogramTest, EmptyAndDegenerate) {
  Histogram empty(std::vector<double>{1.0});
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);

  // No bounds: one overflow bucket catches everything.
  Histogram degenerate;
  degenerate.Record(3.0);
  ASSERT_EQ(degenerate.bucket_counts().size(), 1u);
  EXPECT_EQ(degenerate.bucket_counts()[0], 1u);
  EXPECT_DOUBLE_EQ(degenerate.Quantile(0.5), 3.0);  // Overflow yields max.
}

TEST(HistogramTest, LinearFactoryGolden) {
  const Histogram h = Histogram::Linear(0.0, 10.0, 5);
  const std::vector<double> expected{2.0, 4.0, 6.0, 8.0, 10.0};
  EXPECT_EQ(h.bounds(), expected);
  EXPECT_EQ(h.bucket_counts().size(), 6u);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  // 100 samples uniform on (0, 10]: the interpolated median of a linear
  // histogram must sit near the true median.
  Histogram h = Histogram::Linear(0.0, 10.0, 10);
  for (int i = 1; i <= 100; ++i) h.Record(i * 0.1);
  EXPECT_NEAR(h.Quantile(0.5), 5.0, 0.5);
  EXPECT_NEAR(h.Quantile(0.9), 9.0, 0.5);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), h.max());
}

TEST(HistogramTest, MergeEqualsConcatenatedStream) {
  const std::vector<double> bounds{0.25, 0.5, 0.75};
  Rng rng(7);
  Histogram a(bounds), b(bounds), concat(bounds);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.Uniform(0.0, 1.0);
    a.Record(x);
    concat.Record(x);
  }
  for (int i = 0; i < 300; ++i) {
    const double x = rng.Uniform(0.0, 1.0);
    b.Record(x);
    concat.Record(x);
  }
  ASSERT_TRUE(a.Merge(b));
  EXPECT_EQ(a.bucket_counts(), concat.bucket_counts());
  EXPECT_EQ(a.count(), concat.count());
  // Counts and extremes are exact; the sum regroups the additions
  // ((sum_a) + (sum_b) vs one sequential pass), so only near-equality.
  EXPECT_NEAR(a.sum(), concat.sum(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), concat.min());
  EXPECT_DOUBLE_EQ(a.max(), concat.max());
}

TEST(HistogramTest, MergeRejectsMismatchedBounds) {
  Histogram a(std::vector<double>{1.0, 2.0});
  Histogram b(std::vector<double>{1.0, 3.0});
  a.Record(0.5);
  b.Record(0.5);
  EXPECT_FALSE(a.Merge(b));
  EXPECT_EQ(a.count(), 1u);  // Left untouched.
}

TEST(HistogramTest, ResetKeepsBoundsClearsCounts) {
  Histogram h(std::vector<double>{1.0});
  h.Record(0.5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bounds(), std::vector<double>{1.0});
  EXPECT_EQ(h.bucket_counts(), (std::vector<uint64_t>{0, 0}));
}

// ---------------------------------------------------------------------------
// StreamingQuantile

TEST(StreamingQuantileTest, SentinelBucketsGolden) {
  constexpr int32_t kFloor = std::numeric_limits<int32_t>::min();
  constexpr int32_t kCeil = std::numeric_limits<int32_t>::max();
  EXPECT_EQ(StreamingQuantile::BucketIndex(0.0), kFloor);
  EXPECT_EQ(StreamingQuantile::BucketIndex(-3.5), kFloor);
  EXPECT_EQ(StreamingQuantile::BucketIndex(
                std::numeric_limits<double>::quiet_NaN()),
            kFloor);
  EXPECT_EQ(StreamingQuantile::BucketIndex(kInf), kCeil);
  EXPECT_DOUBLE_EQ(StreamingQuantile::BucketLower(kFloor), 0.0);
  EXPECT_DOUBLE_EQ(StreamingQuantile::BucketLower(kCeil), kInf);
}

TEST(StreamingQuantileTest, BucketBracketsItsSample) {
  for (const double x : {1e-6, 0.37, 1.0, 3.7, 1024.5, 9.9e12}) {
    const int32_t index = StreamingQuantile::BucketIndex(x);
    EXPECT_LE(StreamingQuantile::BucketLower(index), x) << x;
    EXPECT_GT(StreamingQuantile::BucketUpper(index), x) << x;
  }
}

TEST(StreamingQuantileTest, RelativeErrorBoundOnUniformStream) {
  StreamingQuantile q;
  for (int i = 1; i <= 1000; ++i) q.Record(static_cast<double>(i));
  EXPECT_EQ(q.count(), 1000u);
  // Bucket midpoints are within 1/(2*kSubbuckets) ~ 1.6% relative error;
  // allow 2x slack for the rank landing at a bucket edge.
  for (const double p : {0.25, 0.5, 0.9, 0.99}) {
    const double truth = p * 1000.0;
    EXPECT_NEAR(q.Quantile(p) / truth, 1.0, 2.0 / StreamingQuantile::kSubbuckets)
        << "p=" << p;
  }
  // Extremes are tracked exactly.
  EXPECT_DOUBLE_EQ(q.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.Quantile(1.0), 1000.0);
}

TEST(StreamingQuantileTest, OrderIndependentSketch) {
  std::vector<double> samples;
  Rng rng(13);
  for (int i = 0; i < 400; ++i) samples.push_back(rng.Uniform(0.001, 50.0));

  StreamingQuantile forward, backward;
  for (const double x : samples) forward.Record(x);
  std::reverse(samples.begin(), samples.end());
  for (const double x : samples) backward.Record(x);

  // The sketch is a pure function of the sample multiset.
  EXPECT_EQ(forward.buckets(), backward.buckets());
  EXPECT_DOUBLE_EQ(forward.min(), backward.min());
  EXPECT_DOUBLE_EQ(forward.max(), backward.max());
  EXPECT_DOUBLE_EQ(forward.Quantile(0.5), backward.Quantile(0.5));
}

TEST(StreamingQuantileTest, MergeEqualsConcatenatedStream) {
  Rng rng(21);
  StreamingQuantile a, b, concat;
  for (int i = 0; i < 250; ++i) {
    const double x = rng.Uniform(0.0, 100.0);
    a.Record(x);
    concat.Record(x);
  }
  // Include the sentinel buckets in the property.
  for (const double x : {0.0, -1.0, kInf}) {
    b.Record(x);
    concat.Record(x);
  }
  for (int i = 0; i < 150; ++i) {
    const double x = rng.Uniform(0.0, 0.01);
    b.Record(x);
    concat.Record(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.buckets(), concat.buckets());
  EXPECT_EQ(a.count(), concat.count());
  EXPECT_DOUBLE_EQ(a.min(), concat.min());
  EXPECT_DOUBLE_EQ(a.max(), concat.max());
}

// The dense bucket span against the plain keyed-count definition: a map
// from BucketIndex to count, walked in index order for the quantile. The
// samples hit both sentinels (0, negatives, NaN, +inf), subnormals and
// exponents far apart, so the span grows on both sides and the buckets out
// of its bounded reach go to the side map.
TEST(StreamingQuantileTest, DenseSpanMatchesKeyedCountReference) {
  struct Reference {
    std::map<int32_t, uint64_t> buckets;
    uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    void Record(double x) {
      buckets[StreamingQuantile::BucketIndex(x)] += 1;
      min = count == 0 ? x : std::min(min, x);
      max = count == 0 ? x : std::max(max, x);
      count += 1;
    }
    double Quantile(double q) const {
      if (count == 0) return 0.0;
      q = std::clamp(q, 0.0, 1.0);
      if (q <= 0.0) return min;
      if (q >= 1.0) return max;
      const double rank = q * static_cast<double>(count);
      uint64_t cumulative = 0;
      for (const auto& [index, n] : buckets) {
        cumulative += n;
        if (static_cast<double>(cumulative) < rank) continue;
        if (index == std::numeric_limits<int32_t>::min()) return 0.0;
        if (index == std::numeric_limits<int32_t>::max()) return max;
        const double mid = 0.5 * (StreamingQuantile::BucketLower(index) +
                                  StreamingQuantile::BucketUpper(index));
        return std::clamp(mid, min, max);
      }
      return max;
    }
  };
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  const double specials[] = {0.0,
                             -0.0,
                             -2.5,
                             -kInf,
                             std::numeric_limits<double>::quiet_NaN(),
                             kInf,
                             std::numeric_limits<double>::denorm_min(),
                             3e-310,
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             1e-200,
                             1e200};
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    StreamingQuantile a, b;
    Reference ra, rb, rall;
    const int n = static_cast<int>(rng.NextIndex(300));
    for (int i = 0; i < n; ++i) {
      double x;
      if (rng.NextIndex(8) == 0) {
        x = specials[rng.NextIndex(std::size(specials))];
      } else {
        x = std::ldexp(rng.Uniform(0.5, 1.0),
                       static_cast<int>(rng.NextIndex(120)) - 60);
      }
      if (rng.NextIndex(2) == 0) {
        a.Record(x);
        ra.Record(x);
      } else {
        b.Record(x);
        rb.Record(x);
      }
      rall.Record(x);
    }
    EXPECT_EQ(a.buckets(), ra.buckets);
    EXPECT_EQ(b.buckets(), rb.buckets);
    EXPECT_LE(a.dense_slots(), StreamingQuantile::kMaxDenseSlots);
    EXPECT_LE(b.dense_slots(), StreamingQuantile::kMaxDenseSlots);
    for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(bits(a.Quantile(q)), bits(ra.Quantile(q))) << "q=" << q;
      EXPECT_EQ(bits(b.Quantile(q)), bits(rb.Quantile(q))) << "q=" << q;
    }
    a.Merge(b);
    EXPECT_EQ(a.buckets(), rall.buckets);
    EXPECT_EQ(a.count(), rall.count);
    EXPECT_LE(a.dense_slots(), StreamingQuantile::kMaxDenseSlots);
    for (const double q : {0.0, 0.05, 0.5, 0.95, 1.0}) {
      EXPECT_EQ(bits(a.Quantile(q)), bits(rall.Quantile(q))) << "q=" << q;
    }
  }
}

// A sample 2^1000 times smaller or larger than the rest does not widen the
// dense span: it lands in the side map, whether it comes after the
// ordinary samples (a) or before them (b, whose span then stays at the
// outlier's bucket), and Merge keeps the bound.
TEST(StreamingQuantileTest, FarOutliersDoNotInflateTheDenseSpan) {
  const double outliers[] = {std::numeric_limits<double>::denorm_min(),
                             1e-300, 1e300,
                             std::numeric_limits<double>::max()};
  // The ordinary samples span 8 octaves; growth may double that.
  const size_t sixteen_octaves = 16 * StreamingQuantile::kSubbuckets;
  StreamingQuantile a, b;
  std::map<int32_t, uint64_t> expected;
  const auto record = [&expected](StreamingQuantile& q, double x) {
    q.Record(x);
    expected[StreamingQuantile::BucketIndex(x)] += 1;
  };
  record(b, outliers[0]);
  for (int i = 0; i < 200; ++i) {
    record(i % 2 == 0 ? a : b, std::ldexp(1.0 + i / 200.0, i % 8));
  }
  for (const double x : outliers) record(a, x);
  EXPECT_LE(a.dense_slots(), sixteen_octaves);
  EXPECT_EQ(b.dense_slots(), 1u);
  a.Merge(b);
  EXPECT_LE(a.dense_slots(), sixteen_octaves);
  EXPECT_EQ(a.buckets(), expected);
  EXPECT_EQ(a.count(), 205u);
  EXPECT_GE(a.Quantile(0.5), 1.0);
  EXPECT_LT(a.Quantile(0.5), 256.0);
}

TEST(StreamingQuantileTest, ResetClearsEverything) {
  StreamingQuantile q;
  q.Record(2.0);
  q.Reset();
  EXPECT_EQ(q.count(), 0u);
  EXPECT_TRUE(q.buckets().empty());
  EXPECT_DOUBLE_EQ(q.Quantile(0.5), 0.0);
}

}  // namespace
}  // namespace obs
}  // namespace proxdet
