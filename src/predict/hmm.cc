#include "predict/hmm.h"

#include <algorithm>

#include "geom/polyline.h"
#include "predict/linear_predictor.h"

namespace proxdet {

GridQuantizer::GridQuantizer(const BBox& extent, int rows, int cols)
    : extent_(extent), rows_(rows), cols_(cols) {}

int GridQuantizer::CellOf(const Vec2& p) const {
  const Vec2 q = extent_.Clamp(p);
  const double w = std::max(extent_.Width(), 1e-9);
  const double h = std::max(extent_.Height(), 1e-9);
  int col = static_cast<int>((q.x - extent_.lo.x) / w * cols_);
  int row = static_cast<int>((q.y - extent_.lo.y) / h * rows_);
  col = std::clamp(col, 0, cols_ - 1);
  row = std::clamp(row, 0, rows_ - 1);
  return row * cols_ + col;
}

Vec2 GridQuantizer::CenterOf(int cell) const {
  const int row = cell / cols_;
  const int col = cell % cols_;
  const double cw = extent_.Width() / cols_;
  const double ch = extent_.Height() / rows_;
  return {extent_.lo.x + (col + 0.5) * cw, extent_.lo.y + (row + 0.5) * ch};
}

HmmPredictor::HmmPredictor(int grid_rows, int grid_cols)
    : grid_rows_(grid_rows), grid_cols_(grid_cols) {}

void HmmPredictor::Train(const std::vector<Trajectory>& history) {
  BBox extent{{0, 0}, {0, 0}};
  bool first = true;
  for (const Trajectory& traj : history) {
    for (const Vec2& p : traj.points()) {
      if (first) {
        extent = BBox{p, p};
        first = false;
      } else {
        extent.Extend(p);
      }
    }
  }
  if (first) return;  // No data.
  quantizer_ = GridQuantizer(extent, grid_rows_, grid_cols_);
  order1_.clear();
  order2_.clear();
  const int c = quantizer_.cell_count();
  for (const Trajectory& traj : history) {
    int prev = -1;
    int cur = -1;
    for (const Vec2& p : traj.points()) {
      const int cell = quantizer_.CellOf(p);
      if (cell == cur) continue;  // Dwell inside a cell: no transition.
      if (cur >= 0) {
        order1_[cur][cell] += 1.0;
        if (prev >= 0) {
          order2_[static_cast<int64_t>(prev) * c + cur][cell] += 1.0;
        }
      }
      prev = cur;
      cur = cell;
    }
  }
  trained_ = true;
}

int HmmPredictor::MostLikelyNext(int prev_cell, int cur_cell) const {
  const int c = quantizer_.cell_count();
  if (prev_cell >= 0) {
    const auto it = order2_.find(static_cast<int64_t>(prev_cell) * c + cur_cell);
    if (it != order2_.end() && !it->second.empty()) {
      const auto best = std::max_element(
          it->second.begin(), it->second.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      return best->first;
    }
  }
  const auto it = order1_.find(cur_cell);
  if (it != order1_.end() && !it->second.empty()) {
    const auto best = std::max_element(
        it->second.begin(), it->second.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    return best->first;
  }
  return -1;
}

std::vector<Vec2> HmmPredictor::Predict(const std::vector<Vec2>& recent,
                                        size_t steps) {
  if (!trained_ || recent.empty()) {
    return LinearPredictor().Predict(recent, steps);
  }
  // Recent cells (deduplicated) provide the second-order context.
  int cur = quantizer_.CellOf(recent.back());
  int prev = -1;
  for (size_t i = recent.size(); i-- > 0;) {
    const int cell = quantizer_.CellOf(recent[i]);
    if (cell != cur) {
      prev = cell;
      break;
    }
  }
  // Most-probable cell path, long enough to cover the horizon at the
  // user's recent speed.
  double speed_per_tick = 0.0;
  if (recent.size() >= 2) {
    speed_per_tick = Distance(recent.front(), recent.back()) /
                     static_cast<double>(recent.size() - 1);
  }
  const double needed = speed_per_tick * static_cast<double>(steps);
  std::vector<Vec2> path_pts{recent.back()};
  double path_len = 0.0;
  int p = prev, q = cur;
  // Cap the walk so cycles in the transition graph terminate.
  const int max_cells = static_cast<int>(steps) + 4;
  for (int k = 0; k < max_cells && path_len < needed + 1e-9; ++k) {
    const int next = MostLikelyNext(p, q);
    if (next < 0 || next == q) break;
    const Vec2 center = quantizer_.CenterOf(next);
    path_len += Distance(path_pts.back(), center);
    path_pts.push_back(center);
    p = q;
    q = next;
  }
  if (path_pts.size() < 2) {
    // No transition knowledge: predict dwell at the current location.
    return std::vector<Vec2>(steps, recent.back());
  }
  // Resample the cell-center path at the user's speed, one point per tick.
  Polyline path(std::move(path_pts));
  std::vector<Vec2> out;
  out.reserve(steps);
  for (size_t j = 1; j <= steps; ++j) {
    out.push_back(path.PointAtArcLength(speed_per_tick * static_cast<double>(j)));
  }
  return out;
}

}  // namespace proxdet
