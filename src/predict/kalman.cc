#include "predict/kalman.h"

#include <algorithm>

namespace proxdet {

namespace {

/// Matrix::operator* on fixed 4x4 row-major arrays, preserving its
/// `v == 0.0` accumulation skip (observable through signed zeros); the
/// measurement update's (I - KH) factor is mostly zeros, so the skip also
/// matters for the op sequence.
void Mul4(const double* a, const double* b, double* out) {
  for (int i = 0; i < 16; ++i) out[i] = 0.0;
  for (int r = 0; r < 4; ++r) {
    for (int k = 0; k < 4; ++k) {
      const double v = a[r * 4 + k];
      if (v == 0.0) continue;
      for (int c = 0; c < 4; ++c) {
        out[r * 4 + c] += v * b[k * 4 + c];
      }
    }
  }
}

/// Matrix::Apply on a fixed 4-vector (plain accumulation, no skip).
void Apply4(const double* m, const double* v, double* out) {
  for (int r = 0; r < 4; ++r) {
    double acc = 0.0;
    for (int c = 0; c < 4; ++c) acc += m[r * 4 + c] * v[c];
    out[r] = acc;
  }
}

/// state <- F state.
void TimeUpdateState(const double* f, double* state) {
  double next[4];
  Apply4(f, state, next);
  for (int r = 0; r < 4; ++r) state[r] = next[r];
}

/// state <- state + K (z - H state), the measurement update's state half.
void CorrectState(const double* k, const Vec2& z, double* state) {
  const double y0 = z.x - state[0];
  const double y1 = z.y - state[1];
  for (int row = 0; row < 4; ++row) {
    state[row] += k[row * 2 + 0] * y0 + k[row * 2 + 1] * y1;
  }
}

std::vector<Vec2> ForecastFrom(const double* f, const double* state,
                               size_t steps) {
  std::vector<Vec2> out;
  out.reserve(steps);
  double s[4] = {state[0], state[1], state[2], state[3]};
  for (size_t i = 0; i < steps; ++i) {
    TimeUpdateState(f, s);
    out.push_back({s[0], s[1]});
  }
  return out;
}

}  // namespace

KalmanFilter2D::KalmanFilter2D(double dt, double process_noise,
                               double measurement_noise)
    : dt_(dt), r_(measurement_noise * measurement_noise) {
  // Constant-velocity transition.
  for (int i = 0; i < 16; ++i) f_[i] = 0.0;
  for (int i = 0; i < 4; ++i) f_[i * 4 + i] = 1.0;
  f_[0 * 4 + 2] = dt_;
  f_[1 * 4 + 3] = dt_;
  // White-acceleration process noise (discretized), per axis:
  // Q = sigma_a^2 * [[dt^4/4, dt^3/2], [dt^3/2, dt^2]].
  const double s2 = process_noise * process_noise;
  const double dt2 = dt_ * dt_;
  const double dt3 = dt2 * dt_;
  const double dt4 = dt3 * dt_;
  for (int i = 0; i < 16; ++i) q_[i] = 0.0;
  q_[0 * 4 + 0] = q_[1 * 4 + 1] = s2 * dt4 / 4.0;
  q_[0 * 4 + 2] = q_[2 * 4 + 0] = s2 * dt3 / 2.0;
  q_[1 * 4 + 3] = q_[3 * 4 + 1] = s2 * dt3 / 2.0;
  q_[2 * 4 + 2] = q_[3 * 4 + 3] = s2 * dt2;
  for (int i = 0; i < 4; ++i) state_[i] = 0.0;
  for (int i = 0; i < 16; ++i) p_[i] = 0.0;
}

void KalmanFilter2D::Reset(const Vec2& position) {
  state_[0] = position.x;
  state_[1] = position.y;
  state_[2] = 0.0;
  state_[3] = 0.0;
  for (int i = 0; i < 16; ++i) p_[i] = 0.0;
  for (int i = 0; i < 4; ++i) p_[i * 4 + i] = 1.0;
  // Position known to measurement accuracy; velocity essentially unknown.
  p_[0 * 4 + 0] = p_[1 * 4 + 1] = r_;
  p_[2 * 4 + 2] = p_[3 * 4 + 3] = 1e4;
  initialized_ = true;
}

void KalmanFilter2D::PredictStep() {
  // state <- F state; P <- (F P) F^T + Q, each product with operator*'s
  // zero skip.
  TimeUpdateState(f_, state_);
  double ft[16];
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) ft[c * 4 + r] = f_[r * 4 + c];
  }
  double fp[16], fpft[16];
  Mul4(f_, p_, fp);
  Mul4(fp, ft, fpft);
  for (int i = 0; i < 16; ++i) p_[i] = fpft[i] + q_[i];  // operator+
}

bool KalmanFilter2D::Gain(double k[8]) const {
  // H picks (x, y); S = H P H^T + R is 2x2 so invert it directly.
  const double s00 = p_[0 * 4 + 0] + r_;
  const double s01 = p_[0 * 4 + 1];
  const double s10 = p_[1 * 4 + 0];
  const double s11 = p_[1 * 4 + 1] + r_;
  const double det = s00 * s11 - s01 * s10;
  if (det == 0.0) return false;
  const double i00 = s11 / det, i01 = -s01 / det;
  const double i10 = -s10 / det, i11 = s00 / det;
  // Kalman gain K = P H^T S^-1 (4x2).
  for (int row = 0; row < 4; ++row) {
    const double ph0 = p_[row * 4 + 0];
    const double ph1 = p_[row * 4 + 1];
    k[row * 2 + 0] = ph0 * i00 + ph1 * i10;
    k[row * 2 + 1] = ph0 * i01 + ph1 * i11;
  }
  return true;
}

void KalmanFilter2D::CorrectCovariance(const double k[8]) {
  double ikh[16];
  for (int i = 0; i < 16; ++i) ikh[i] = 0.0;
  for (int i = 0; i < 4; ++i) ikh[i * 4 + i] = 1.0;
  for (int row = 0; row < 4; ++row) {
    ikh[row * 4 + 0] -= k[row * 2 + 0];
    ikh[row * 4 + 1] -= k[row * 2 + 1];
  }
  double next_p[16];
  Mul4(ikh, p_, next_p);
  for (int i = 0; i < 16; ++i) p_[i] = next_p[i];
}

void KalmanFilter2D::UpdateStep(const Vec2& measurement) {
  if (!initialized_) {
    Reset(measurement);
    return;
  }
  double k[8];
  if (!Gain(k)) return;
  CorrectState(k, measurement, state_);
  CorrectCovariance(k);
}

Vec2 KalmanFilter2D::position() const { return {state_[0], state_[1]}; }

Vec2 KalmanFilter2D::velocity() const { return {state_[2], state_[3]}; }

std::vector<Vec2> KalmanFilter2D::Forecast(size_t steps) const {
  return ForecastFrom(f_, state_, steps);
}

KalmanPredictor::KalmanPredictor(double dt, double process_noise,
                                 double measurement_noise)
    : filter_(dt, process_noise, measurement_noise) {
  // The fresh filter Predict would replay, run on covariance alone: Reset's
  // P does not depend on the position, and the state it moves is never read.
  filter_.Reset({0.0, 0.0});
  for (Step& step : schedule_) {
    filter_.PredictStep();
    std::fill(std::begin(step.gain), std::end(step.gain), 0.0);
    step.update = filter_.Gain(step.gain);
    if (step.update) filter_.CorrectCovariance(step.gain);
  }
}

std::vector<Vec2> KalmanPredictor::Predict(const std::vector<Vec2>& recent,
                                           size_t steps) {
  // Reset(recent.front()), then per sample the state halves of PredictStep
  // and UpdateStep with the scheduled gain.
  double state[4] = {recent.front().x, recent.front().y, 0.0, 0.0};
  const size_t updates = recent.size() - 1;
  const size_t scheduled = std::min(updates, kScheduledSteps);
  for (size_t i = 1; i <= scheduled; ++i) {
    TimeUpdateState(filter_.f_, state);
    const Step& step = schedule_[i - 1];
    if (step.update) CorrectState(step.gain, recent[i], state);
  }
  if (updates <= kScheduledSteps) {
    return ForecastFrom(filter_.f_, state, steps);
  }
  KalmanFilter2D tail = filter_;
  std::copy(std::begin(state), std::end(state), tail.state_);
  for (size_t i = kScheduledSteps + 1; i < recent.size(); ++i) {
    tail.PredictStep();
    tail.UpdateStep(recent[i]);
  }
  return tail.Forecast(steps);
}

}  // namespace proxdet
