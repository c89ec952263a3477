#ifndef PROXDET_COMMON_TIMER_H_
#define PROXDET_COMMON_TIMER_H_

#include <chrono>

namespace proxdet {

/// Monotonic wall-clock stopwatch used for server-side CPU accounting in the
/// benchmark harness (Figure 8 reports server CPU alongside I/O).
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// RAII stopwatch: accumulates the scope's elapsed wall-clock seconds into
/// the bound accumulator on destruction, so early returns and exceptions
/// cannot skip the accumulation around server-side bookkeeping.
class ScopedTimer {
 public:
  explicit ScopedTimer(double& accumulator) : accumulator_(accumulator) {}
  ~ScopedTimer() { accumulator_ += timer_.ElapsedSeconds(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double& accumulator_;
  WallTimer timer_;
};

}  // namespace proxdet

#endif  // PROXDET_COMMON_TIMER_H_
