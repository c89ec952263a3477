#ifndef PROXDET_BENCH_SUPPORT_SWEEP_RUNNER_H_
#define PROXDET_BENCH_SUPPORT_SWEEP_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/simulation.h"

namespace proxdet {

/// One column of a sweep: a labeled, self-contained way to run a workload.
/// `run` executes on pool threads — it must build all of its own state
/// (detector, predictor, Rngs) from the const workload and return a
/// RunResult with `alerts_exact` set honestly.
struct SweepColumn {
  std::string label;
  std::function<RunResult(const Workload&)> run;
};

/// The standard column: RunMethod with the given engine options.
SweepColumn MethodColumn(Method method, RegionDetector::Options options = {});

std::vector<SweepColumn> MethodColumns(const std::vector<Method>& methods);

/// The parallel experiment engine behind every figure bench and ablation.
///
/// A sweep is a grid of independent cells: (point x column), where a point
/// is one workload configuration (a sweep value on a dataset) and a column
/// is one way to run it (usually a detection method). Run() builds the
/// workloads and executes every cell across the global thread pool, then
/// reassembles results indexed [point][column].
///
/// Determinism contract: every cell derives its randomness from the point's
/// config seed (or Rngs created inside the cell), never from shared state,
/// so the result grid — message counters, alert counts, alert streams — is
/// byte-identical for PROXDET_THREADS=1 and =N. Only wall-clock fields
/// (server_seconds, wall_seconds) vary between runs.
///
/// Correctness contract: Run() aborts the process if any cell's alert
/// stream deviated from ground truth — benchmark numbers from an incorrect
/// detector are void.
class SweepRunner {
 public:
  /// `figure` is a short id ("fig9") used for the JSON snapshot name.
  SweepRunner(std::string figure, std::vector<SweepColumn> columns);
  SweepRunner(std::string figure, const std::vector<Method>& methods);

  /// Adds one sweep point. `group` keys one output table (dataset name for
  /// the paper figures), `x_value` labels the row. `customize` (optional)
  /// runs after BuildWorkload on the pool thread that built the point —
  /// it must derive any randomness deterministically (own Rng seed), not
  /// share one across points.
  void AddPoint(std::string group, std::string x_value, WorkloadConfig config,
                std::function<void(Workload*)> customize = nullptr);

  size_t point_count() const { return points_.size(); }
  const std::vector<SweepColumn>& columns() const { return columns_; }

  /// Executes all cells; returns results indexed [point][column]. Invokable
  /// once; subsequent calls return the cached grid.
  const std::vector<std::vector<RunResult>>& Run();

  /// Groups in first-insertion order.
  std::vector<std::string> groups() const;

  /// Figure table for one group: rows = that group's points in insertion
  /// order, columns = column labels, cells = total communication I/O.
  Table GroupTable(const std::string& title, const std::string& x_label,
                   const std::string& group) const;

  /// Row indices (into Run()'s grid) of one group, in insertion order.
  std::vector<size_t> GroupRows(const std::string& group) const;

  /// Wall-clock seconds spent inside Run().
  double wall_seconds() const { return wall_seconds_; }

  /// Writes the machine-readable snapshot BENCH_<figure>.json (cell
  /// parameters, per-cell I/O, wall seconds, thread count) next to the
  /// ASCII tables. Honors PROXDET_BENCH_JSON: unset or "1" writes to the
  /// current directory, "0" disables, any other value is the target
  /// directory. Returns the path written, or "" when disabled. Also emits
  /// REPORT_<figure>.json (see WriteRunReport).
  std::string WriteJson() const;

  /// Writes REPORT_<figure>.json: the sweep's aggregate CommStats joined
  /// with the global metrics snapshot (Run() resets the registry before the
  /// first cell, so the snapshot covers exactly this sweep) and the
  /// counter-vs-CommStats reconciliation verdict. Same PROXDET_BENCH_JSON
  /// conventions; returns the path written, or "" when disabled.
  std::string WriteRunReport() const;

 private:
  struct Point {
    std::string group;
    std::string x_value;
    WorkloadConfig config;
    std::function<void(Workload*)> customize;
  };

  std::string figure_;
  std::vector<SweepColumn> columns_;
  std::vector<Point> points_;
  std::vector<std::vector<RunResult>> results_;
  bool ran_ = false;
  double wall_seconds_ = 0.0;
};

}  // namespace proxdet

#endif  // PROXDET_BENCH_SUPPORT_SWEEP_RUNNER_H_
