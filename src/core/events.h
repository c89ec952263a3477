#ifndef PROXDET_CORE_EVENTS_H_
#define PROXDET_CORE_EVENTS_H_

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "graph/interest_graph.h"

namespace proxdet {

/// Canonical 64-bit key of an unordered user pair: the smaller id in the
/// high word. Ascending key order equals the sorted-edge-list order
/// (u < w, sorted by (u, w)) that every serial commit walks.
inline uint64_t PairKey(UserId u, UserId w) {
  const uint64_t a = static_cast<uint64_t>(std::min(u, w));
  const uint64_t b = static_cast<uint64_t>(std::max(u, w));
  return (a << 32) | b;
}

/// The smaller / larger endpoint encoded in a PairKey.
inline UserId PairKeyMin(uint64_t key) {
  return static_cast<UserId>(key >> 32);
}
inline UserId PairKeyMax(uint64_t key) {
  return static_cast<UserId>(key & 0xffffffffULL);
}

/// A proximity alert: pair (u, w) with u < w crossed below its alert radius
/// at `epoch` (Def. 1 fires only on the first crossing).
struct AlertEvent {
  int epoch = 0;
  UserId u = -1;
  UserId w = -1;

  friend bool operator==(const AlertEvent& a, const AlertEvent& b) {
    return a.epoch == b.epoch && a.u == b.u && a.w == b.w;
  }
  friend bool operator<(const AlertEvent& a, const AlertEvent& b) {
    return std::tie(a.epoch, a.u, a.w) < std::tie(b.epoch, b.u, b.w);
  }
};

/// Canonical ordering so alert streams from different detectors compare
/// exactly.
void SortAlerts(std::vector<AlertEvent>* alerts);

}  // namespace proxdet

#endif  // PROXDET_CORE_EVENTS_H_
