#ifndef PROXDET_PREDICT_HMM_H_
#define PROXDET_PREDICT_HMM_H_

#include <cstdint>
#include <unordered_map>

#include "geom/bbox.h"
#include "predict/predictor.h"

namespace proxdet {

/// Uniform grid quantizer mapping positions to cell ids (row-major) and
/// back to cell centers. The paper's HMM splits the map into a 100x100 grid
/// and treats each cell as a state (Sec. VI-B).
class GridQuantizer {
 public:
  GridQuantizer() = default;
  GridQuantizer(const BBox& extent, int rows, int cols);

  int CellOf(const Vec2& p) const;
  Vec2 CenterOf(int cell) const;
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int cell_count() const { return rows_ * cols_; }
  const BBox& extent() const { return extent_; }

 private:
  BBox extent_{{0, 0}, {1, 1}};
  int rows_ = 1;
  int cols_ = 1;
};

/// The paper's trajectory HMM: grid cells are states, the transition
/// structure is learned from historical trajectories (for fully observed
/// states the Baum-Welch MLE is exactly the transition count matrix), and
/// the future cells follow the most frequent transition out of each cell.
/// We keep second-order (previous-cell conditioned) counts where supported
/// so the model is direction-aware, falling back to first-order then to
/// dwell. Cell-center paths are resampled at the user's recent speed to
/// produce per-tick locations.
class HmmPredictor : public Predictor {
 public:
  /// `grid_rows`/`grid_cols` default to the paper's 100x100.
  HmmPredictor(int grid_rows = 100, int grid_cols = 100);

  void Train(const std::vector<Trajectory>& history) override;

  std::vector<Vec2> Predict(const std::vector<Vec2>& recent,
                            size_t steps) override;

  std::string name() const override { return "HMM"; }

  bool trained() const { return trained_; }
  const GridQuantizer& quantizer() const { return quantizer_; }

 private:
  /// Most likely next cell after (prev -> cur); -1 when unknown.
  int MostLikelyNext(int prev_cell, int cur_cell) const;

  int grid_rows_;
  int grid_cols_;
  GridQuantizer quantizer_;
  // Second-order transition counts: key = prev * C + cur -> (next -> count).
  std::unordered_map<int64_t, std::unordered_map<int, double>> order2_;
  // First-order fallback: cur -> (next -> count).
  std::unordered_map<int, std::unordered_map<int, double>> order1_;
  bool trained_ = false;
};

}  // namespace proxdet

#endif  // PROXDET_PREDICT_HMM_H_
