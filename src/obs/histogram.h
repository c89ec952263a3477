#ifndef PROXDET_OBS_HISTOGRAM_H_
#define PROXDET_OBS_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace proxdet {
namespace obs {

/// Fixed-bucket histogram: explicit, sorted upper bounds plus an implicit
/// +inf overflow bucket (Prometheus "le" semantics: a sample lands in the
/// first bucket whose upper bound is >= the value). Counts, sum, min and
/// max are exact; Quantile() interpolates linearly inside the bucket.
///
/// Merge discipline: two histograms with identical bounds merge by adding
/// bucket counts, so Merge(a, b) equals the histogram of the concatenated
/// sample streams exactly (the property the obs test suite enforces).
class Histogram {
 public:
  Histogram() : Histogram(std::vector<double>{}) {}
  /// `upper_bounds` must be strictly increasing; may be empty (single
  /// overflow bucket, degenerate but legal).
  explicit Histogram(std::vector<double> upper_bounds);

  /// Evenly spaced bounds: `buckets` buckets covering [lo, hi], i.e. bounds
  /// lo + i*(hi-lo)/buckets for i = 1..buckets.
  static Histogram Linear(double lo, double hi, int buckets);

  void Record(double x);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }  // 0 when empty.
  double max() const { return max_; }  // 0 when empty.
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the +inf overflow bucket.
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

  /// q in [0, 1]. Linear interpolation inside the containing bucket (the
  /// overflow bucket yields max()). 0 for an empty histogram.
  double Quantile(double q) const;

  /// Adds `other`'s counts into this histogram. Bounds must be identical.
  /// Returns false (and leaves *this untouched) otherwise.
  bool Merge(const Histogram& other);

  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Streaming quantile sketch over non-negative samples with bounded
/// *relative* error, HDR-histogram style: a sample lands in a log-spaced
/// bucket (each power-of-two span split into kSubbuckets equal slices), so
/// memory is O(distinct scales), not O(samples). Quantile() returns the
/// containing bucket's midpoint — within 1/(2*kSubbuckets) ~ 1.6% relative
/// error of the true order statistic.
///
/// The sketch is a pure function of the sample *multiset*: buckets are
/// keyed counts, so recording order never matters and Merge() equals the
/// sketch of the concatenated streams exactly. That also makes it safe for
/// the determinism contract: identical sample multisets (bit-exact values)
/// yield identical sketches regardless of thread interleaving.
///
/// Storage: finite positive samples count into a dense array over a span
/// of bucket indices (grown on demand, at most kMaxDenseSlots slots: 64
/// octaves, 16 KiB), so Record is usually an index computation and an
/// increment. A bucket the span cannot reach within that bound — a sample
/// more than 2^64 times larger or smaller than the others — counts in a
/// sorted side map of one node per such bucket, so an outlier cannot
/// inflate a sketch or a merge. The two sentinel buckets (non-positive or
/// NaN, +inf) are plain counters. The ordered map form is built only where
/// it is read.
class StreamingQuantile {
 public:
  static constexpr int kSubbuckets = 32;  // Relative error <= 1/64.
  static constexpr size_t kMaxDenseSlots = 64 * kSubbuckets;

  void Record(double x);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }  // 0 when empty.
  double max() const { return max_; }  // 0 when empty.
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }

  /// q in [0, 1]; 0 for an empty sketch. Exact for the 0- and 1-quantile
  /// (min/max are tracked exactly).
  double Quantile(double q) const;

  void Merge(const StreamingQuantile& other);

  void Reset();

  /// Bucket index for `x` (implementation detail, exposed for the golden
  /// tests): values <= 0 share the index of the smallest representable
  /// bucket.
  static int32_t BucketIndex(double x);
  /// [lower, upper) value range of bucket `index`.
  static double BucketLower(int32_t index);
  static double BucketUpper(int32_t index);

  /// Nonzero bucket counts keyed by BucketIndex, in index order.
  std::map<int32_t, uint64_t> buckets() const;
  /// Slots the dense span holds (never more than kMaxDenseSlots).
  size_t dense_slots() const { return dense_.size(); }

 private:
  /// The count of finite-positive bucket `index`: a dense slot, growing
  /// the span when it stays within kMaxDenseSlots, else a side-map entry.
  uint64_t& Slot(int32_t index);
  /// Calls f(index, count) for every nonzero bucket in index order until f
  /// returns true; returns whether it did.
  template <typename F>
  bool ForEachBucket(F f) const;

  uint64_t floor_count_ = 0;    // BucketIndex INT32_MIN: <= 0 and NaN.
  uint64_t ceiling_count_ = 0;  // BucketIndex INT32_MAX: +inf.
  int32_t base_ = 0;            // Bucket index of dense_[0].
  std::vector<uint64_t> dense_;
  std::map<int32_t, uint64_t> far_;  // Buckets outside the dense span.
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace obs
}  // namespace proxdet

#endif  // PROXDET_OBS_HISTOGRAM_H_
