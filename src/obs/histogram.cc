#include "obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace proxdet {
namespace obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {}

Histogram Histogram::Linear(double lo, double hi, int buckets) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(std::max(buckets, 0)));
  for (int i = 1; i <= buckets; ++i) {
    bounds.push_back(lo + (hi - lo) * i / buckets);
  }
  return Histogram(std::move(bounds));
}

void Histogram::Record(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  counts_[static_cast<size_t>(it - bounds_.begin())] += 1;
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  count_ += 1;
  sum_ += x;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    const uint64_t next = cumulative + counts_[b];
    if (static_cast<double>(next) >= rank) {
      if (b == counts_.size() - 1) return max_;  // Overflow bucket.
      const double lo = b == 0 ? std::min(min_, bounds_[0]) : bounds_[b - 1];
      const double hi = bounds_[b];
      const double within =
          (rank - static_cast<double>(cumulative)) / counts_[b];
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    cumulative = next;
  }
  return max_;
}

bool Histogram::Merge(const Histogram& other) {
  if (bounds_ != other.bounds_) return false;
  for (size_t b = 0; b < counts_.size(); ++b) counts_[b] += other.counts_[b];
  if (other.count_ > 0) {
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  return true;
}

void Histogram::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
}

// ---------------------------------------------------------------------------
// StreamingQuantile

int32_t StreamingQuantile::BucketIndex(double x) {
  if (!(x > 0.0) || !std::isfinite(x)) {
    // Non-positive, NaN: the floor bucket. +inf: the ceiling bucket.
    return x > 0.0 ? std::numeric_limits<int32_t>::max()
                   : std::numeric_limits<int32_t>::min();
  }
  int exp = 0;
  const double frac = std::frexp(x, &exp);  // frac in [0.5, 1).
  const int sub = std::min(
      kSubbuckets - 1,
      static_cast<int>((frac - 0.5) * 2.0 * kSubbuckets));
  return static_cast<int32_t>(exp) * kSubbuckets + sub;
}

double StreamingQuantile::BucketLower(int32_t index) {
  if (index == std::numeric_limits<int32_t>::min()) return 0.0;
  if (index == std::numeric_limits<int32_t>::max()) {
    return std::numeric_limits<double>::infinity();
  }
  // Floor division: index = exp * kSubbuckets + sub with sub in [0, kSub).
  int32_t exp = index / kSubbuckets;
  int32_t sub = index % kSubbuckets;
  if (sub < 0) {
    sub += kSubbuckets;
    exp -= 1;
  }
  return std::ldexp(0.5 + static_cast<double>(sub) / (2.0 * kSubbuckets),
                    exp);
}

double StreamingQuantile::BucketUpper(int32_t index) {
  if (index == std::numeric_limits<int32_t>::min()) return 0.0;
  if (index == std::numeric_limits<int32_t>::max()) {
    return std::numeric_limits<double>::infinity();
  }
  return BucketLower(index + 1);
}

uint64_t& StreamingQuantile::Slot(int32_t index) {
  if (dense_.empty()) {
    base_ = index;
    dense_.assign(1, 0);
  }
  // Finite positive samples have indices within about +-2^15, so none of
  // this arithmetic overflows.
  const int32_t top = base_ + static_cast<int32_t>(dense_.size());
  const size_t need = static_cast<size_t>(std::max(top, index + 1) -
                                          std::min(base_, index));
  // The span only grows and never past kMaxDenseSlots, so a side-map
  // bucket, already out of reach of the span's far end, stays outside it.
  if (need > kMaxDenseSlots) return far_[index];
  if (need > dense_.size()) {
    // Growth at least doubles the span (up to the bound), keeping a
    // monotone sweep of new scales amortized O(1) per sample.
    const size_t size =
        std::min(kMaxDenseSlots, std::max(need, 2 * dense_.size()));
    if (index < base_) {
      const size_t front = size - dense_.size();
      dense_.insert(dense_.begin(), front, 0);
      base_ -= static_cast<int32_t>(front);
    } else {
      dense_.resize(size, 0);
    }
  }
  return dense_[static_cast<size_t>(index - base_)];
}

template <typename F>
bool StreamingQuantile::ForEachBucket(F f) const {
  if (floor_count_ > 0 &&
      f(std::numeric_limits<int32_t>::min(), floor_count_)) {
    return true;
  }
  // Side-map buckets lie wholly below or above the dense span.
  auto far = far_.begin();
  for (; far != far_.end() && far->first < base_; ++far) {
    if (f(far->first, far->second)) return true;
  }
  for (size_t i = 0; i < dense_.size(); ++i) {
    if (dense_[i] > 0 && f(base_ + static_cast<int32_t>(i), dense_[i])) {
      return true;
    }
  }
  for (; far != far_.end(); ++far) {
    if (f(far->first, far->second)) return true;
  }
  return ceiling_count_ > 0 &&
         f(std::numeric_limits<int32_t>::max(), ceiling_count_);
}

std::map<int32_t, uint64_t> StreamingQuantile::buckets() const {
  std::map<int32_t, uint64_t> out;
  ForEachBucket([&out](int32_t index, uint64_t n) {
    out.emplace_hint(out.end(), index, n);
    return false;
  });
  return out;
}

void StreamingQuantile::Record(double x) {
  const int32_t index = BucketIndex(x);
  if (index == std::numeric_limits<int32_t>::min()) {
    floor_count_ += 1;
  } else if (index == std::numeric_limits<int32_t>::max()) {
    ceiling_count_ += 1;
  } else {
    Slot(index) += 1;
  }
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  count_ += 1;
  sum_ += x;
}

double StreamingQuantile::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const double rank = q * static_cast<double>(count_);
  uint64_t cumulative = 0;
  double result = max_;
  ForEachBucket([&](int32_t index, uint64_t n) {
    cumulative += n;
    if (static_cast<double>(cumulative) < rank) return false;
    if (index == std::numeric_limits<int32_t>::min()) {
      result = 0.0;
    } else if (index != std::numeric_limits<int32_t>::max()) {
      // Midpoint of the bucket, clamped to the exactly-tracked extremes.
      const double mid = 0.5 * (BucketLower(index) + BucketUpper(index));
      result = std::clamp(mid, min_, max_);
    }
    return true;
  });
  return result;
}

void StreamingQuantile::Merge(const StreamingQuantile& other) {
  floor_count_ += other.floor_count_;
  ceiling_count_ += other.ceiling_count_;
  for (size_t i = 0; i < other.dense_.size(); ++i) {
    const uint64_t n = other.dense_[i];
    if (n > 0) Slot(other.base_ + static_cast<int32_t>(i)) += n;
  }
  for (const auto& [index, n] : other.far_) Slot(index) += n;
  if (other.count_ > 0) {
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void StreamingQuantile::Reset() {
  floor_count_ = ceiling_count_ = 0;
  base_ = 0;
  dense_.clear();
  far_.clear();
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
}

}  // namespace obs
}  // namespace proxdet
