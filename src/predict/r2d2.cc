#include "predict/r2d2.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "predict/kalman.h"

namespace proxdet {

namespace {

/// Mixes the query into the model seed so the per-call particle Rng is a
/// deterministic function of the input alone (SplitMix64-style finalizer).
uint64_t HashQuery(uint64_t seed, const std::vector<Vec2>& recent,
                   size_t steps) {
  uint64_t h = seed ^ (0x9e3779b97f4a7c15ULL + steps);
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
  };
  for (const Vec2& p : recent) {
    uint64_t bx, by;
    static_assert(sizeof(bx) == sizeof(p.x), "Vec2 coordinates are doubles");
    std::memcpy(&bx, &p.x, sizeof(bx));
    std::memcpy(&by, &p.y, sizeof(by));
    mix(bx);
    mix(by);
  }
  return h;
}

int CellIndex(const BBox& extent, double cell_w, double cell_h, int cols,
              int rows, const Vec2& p) {
  const Vec2 q = extent.Clamp(p);
  int col = static_cast<int>((q.x - extent.lo.x) / cell_w);
  int row = static_cast<int>((q.y - extent.lo.y) / cell_h);
  col = std::clamp(col, 0, cols - 1);
  row = std::clamp(row, 0, rows - 1);
  return row * cols + col;
}

}  // namespace

R2d2Predictor::R2d2Predictor(const Options& options, uint64_t seed)
    : options_(options), seed_(seed) {}

void R2d2Predictor::Train(const std::vector<Trajectory>& history) {
  references_ = history;
  index_.clear();
  bool first = true;
  for (const Trajectory& traj : references_) {
    for (const Vec2& p : traj.points()) {
      if (first) {
        extent_ = BBox{p, p};
        first = false;
      } else {
        extent_.Extend(p);
      }
    }
  }
  if (first) return;
  cell_w_ = std::max(extent_.Width() / options_.grid_cols, 1e-9);
  cell_h_ = std::max(extent_.Height() / options_.grid_rows, 1e-9);
  for (uint32_t t = 0; t < references_.size(); ++t) {
    const auto& pts = references_[t].points();
    for (uint32_t i = 0; i < pts.size(); ++i) {
      const int cell = CellIndex(extent_, cell_w_, cell_h_, options_.grid_cols,
                                 options_.grid_rows, pts[i]);
      index_[cell].push_back({t, i});
    }
  }
  trained_ = true;
}

std::vector<R2d2Predictor::Candidate> R2d2Predictor::FindCandidates(
    const std::vector<Vec2>& recent, size_t steps) const {
  std::vector<Candidate> candidates;
  const Vec2& now = recent.back();
  const int cols = options_.grid_cols;
  const int rows = options_.grid_rows;
  const int center = CellIndex(extent_, cell_w_, cell_h_, cols, rows, now);
  const int c_row = center / cols;
  const int c_col = center % cols;
  const size_t window = recent.size();
  for (int dr = -options_.neighborhood; dr <= options_.neighborhood; ++dr) {
    for (int dc = -options_.neighborhood; dc <= options_.neighborhood; ++dc) {
      const int row = c_row + dr;
      const int col = c_col + dc;
      if (row < 0 || row >= rows || col < 0 || col >= cols) continue;
      const auto it = index_.find(row * cols + col);
      if (it == index_.end()) continue;
      // Query speed over the recent window (m/tick) for the speed-alignment
      // term: a reference crawling through a jam is a poor template for a
      // free-flowing query even when their positions line up.
      double query_speed = 0.0;
      if (window >= 2) {
        for (size_t k = 1; k < window; ++k) {
          query_speed += Distance(recent[k - 1], recent[k]);
        }
        query_speed /= static_cast<double>(window - 1);
      }
      for (const auto& [traj_id, idx] : it->second) {
        const auto& ref = references_[traj_id].points();
        // Enough history to align the window and enough future to forecast.
        if (idx + 1 < window || idx + steps >= ref.size()) continue;
        double cost = 0.0;
        for (size_t k = 0; k < window; ++k) {
          cost += Distance(recent[window - 1 - k], ref[idx - k]);
        }
        cost /= static_cast<double>(window);
        if (window >= 2) {
          double ref_speed = 0.0;
          for (size_t k = 1; k < window; ++k) {
            ref_speed += Distance(ref[idx - k], ref[idx - k + 1]);
          }
          ref_speed /= static_cast<double>(window - 1);
          // A full speed mismatch weighs like one window of positional
          // misalignment.
          cost += std::fabs(ref_speed - query_speed) *
                  static_cast<double>(window) * 0.5;
        }
        candidates.push_back({traj_id, idx, cost});
        if (candidates.size() >= options_.max_candidates * 4) return candidates;
      }
    }
  }
  return candidates;
}

std::vector<Vec2> R2d2Predictor::Predict(const std::vector<Vec2>& recent,
                                         size_t steps) {
  // Fallback when untrained or when the reference database has nothing
  // similar nearby: the R2-D2 paper also degrades to a model-free predictor.
  // One shared model: its constructor builds the gain schedule, and its
  // Predict only reads it (concurrent calls are safe).
  const auto fallback = [&recent, steps]() {
    static KalmanPredictor kalman(1.0, 0.5, 3.0);
    return kalman.Predict(recent, steps);
  };
  if (!trained_ || recent.empty()) return fallback();

  std::vector<Candidate> candidates = FindCandidates(recent, steps);
  if (candidates.empty()) return fallback();
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.cost < b.cost;
            });
  if (candidates.size() > options_.max_candidates) {
    candidates.resize(options_.max_candidates);
  }

  // Importance weights from alignment cost; the bandwidth adapts to the
  // candidate pool so at least a few references matter.
  const double bandwidth =
      std::max(candidates[std::min(candidates.size() - 1,
                                   candidates.size() / 2)]
                   .cost,
               1.0);
  // Particle set: sample candidate continuations by weight.
  std::vector<double> weights(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double z = candidates[i].cost / bandwidth;
    weights[i] = std::exp(-0.5 * z * z);
  }
  struct Particle {
    size_t candidate;
    Vec2 offset;  // Accumulated process noise.
    double weight;
  };
  // Per-call stream: Predict stays reentrant and order-independent.
  Rng rng(HashQuery(seed_, recent, steps));
  std::vector<Particle> particles;
  particles.reserve(options_.particles);
  for (size_t i = 0; i < options_.particles; ++i) {
    const size_t pick = rng.WeightedIndex(weights);
    particles.push_back({pick, Vec2{0.0, 0.0}, 1.0});
  }

  const Vec2 now = recent.back();
  std::vector<Vec2> out;
  out.reserve(steps);
  for (size_t j = 1; j <= steps; ++j) {
    // Propagate each particle along its reference continuation.
    double weight_sum = 0.0;
    double weight_sq_sum = 0.0;
    Vec2 mean{0.0, 0.0};
    for (Particle& p : particles) {
      const Candidate& cand = candidates[p.candidate];
      const auto& ref = references_[cand.traj].points();
      const Vec2 displacement = ref[cand.index + j] - ref[cand.index];
      p.offset += Vec2{rng.Gaussian(0.0, options_.step_noise_m),
                       rng.Gaussian(0.0, options_.step_noise_m)};
      // Re-weight by agreement with the candidate pool consensus, computed
      // against the plain weighted displacement (keeps divergent references
      // from dominating long horizons).
      p.weight *= weights[p.candidate] + 1e-6;
      const Vec2 pos = now + displacement + p.offset;
      mean += pos * p.weight;
      weight_sum += p.weight;
      weight_sq_sum += p.weight * p.weight;
    }
    if (weight_sum <= 0.0) return fallback();
    out.push_back(mean / weight_sum);
    // Systematic resampling when the effective sample size collapses.
    const double ess = weight_sum * weight_sum / std::max(weight_sq_sum, 1e-30);
    if (ess < options_.resample_ess_fraction *
                  static_cast<double>(particles.size())) {
      std::vector<Particle> next;
      next.reserve(particles.size());
      const double step_size = weight_sum / particles.size();
      double pointer = rng.NextDouble() * step_size;
      double cumulative = 0.0;
      size_t src = 0;
      for (size_t i = 0; i < particles.size(); ++i) {
        while (cumulative + particles[src].weight < pointer &&
               src + 1 < particles.size()) {
          cumulative += particles[src].weight;
          ++src;
        }
        Particle clone = particles[src];
        clone.weight = 1.0;
        next.push_back(clone);
        pointer += step_size;
      }
      particles.swap(next);
    }
  }
  return out;
}

}  // namespace proxdet
