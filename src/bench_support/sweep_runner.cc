#include "bench_support/sweep_runner.h"

#include <cstdio>

#include "bench_support/bench_json.h"
#include "bench_support/obs_artifacts.h"
#include "common/timer.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace proxdet {

SweepColumn MethodColumn(Method method, RegionDetector::Options options) {
  return {MethodName(method), [method, options](const Workload& workload) {
            return RunMethod(method, workload, options);
          }};
}

std::vector<SweepColumn> MethodColumns(const std::vector<Method>& methods) {
  std::vector<SweepColumn> columns;
  columns.reserve(methods.size());
  for (const Method m : methods) columns.push_back(MethodColumn(m));
  return columns;
}

SweepRunner::SweepRunner(std::string figure, std::vector<SweepColumn> columns)
    : figure_(std::move(figure)), columns_(std::move(columns)) {}

SweepRunner::SweepRunner(std::string figure, const std::vector<Method>& methods)
    : SweepRunner(std::move(figure), MethodColumns(methods)) {}

void SweepRunner::AddPoint(std::string group, std::string x_value,
                           WorkloadConfig config,
                           std::function<void(Workload*)> customize) {
  points_.push_back({std::move(group), std::move(x_value), config,
                     std::move(customize)});
}

const std::vector<std::vector<RunResult>>& SweepRunner::Run() {
  if (ran_) return results_;
  WallTimer timer;
  // Scope the metrics to this sweep: the post-run snapshot then reconciles
  // against the sum of the cells' CommStats (see WriteRunReport).
  obs::Metrics().Reset();
  results_.assign(points_.size(), std::vector<RunResult>(columns_.size()));

  // Outer fan-out over points, inner over columns: a point's workload is
  // built once on whichever thread claims the point, and its method cells
  // then fan out across the same pool (the nested ParallelFor drains
  // inline under saturation). Peak memory holds at most one workload per
  // in-flight point instead of the whole sweep.
  ParallelFor(points_.size(), [&](size_t p) {
    Workload workload = BuildWorkload(points_[p].config);
    if (points_[p].customize) points_[p].customize(&workload);
    ParallelFor(columns_.size(), [&](size_t c) {
      results_[p][c] = columns_[c].run(workload);
    });
  });

  // Deterministic post-check in grid order.
  for (size_t p = 0; p < points_.size(); ++p) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (!results_[p][c].alerts_exact) {
        std::fprintf(stderr,
                     "FATAL: %s deviated from the ground-truth alert stream "
                     "on %s (x=%s) — benchmark numbers would be void.\n",
                     columns_[c].label.c_str(), points_[p].group.c_str(),
                     points_[p].x_value.c_str());
        std::abort();
      }
    }
  }
  wall_seconds_ = timer.ElapsedSeconds();
  ran_ = true;
  return results_;
}

std::vector<std::string> SweepRunner::groups() const {
  std::vector<std::string> out;
  for (const Point& point : points_) {
    bool seen = false;
    for (const std::string& g : out) seen = seen || g == point.group;
    if (!seen) out.push_back(point.group);
  }
  return out;
}

std::vector<size_t> SweepRunner::GroupRows(const std::string& group) const {
  std::vector<size_t> rows;
  for (size_t p = 0; p < points_.size(); ++p) {
    if (points_[p].group == group) rows.push_back(p);
  }
  return rows;
}

Table SweepRunner::GroupTable(const std::string& title,
                              const std::string& x_label,
                              const std::string& group) const {
  Table table(title);
  std::vector<std::string> header{x_label};
  for (const SweepColumn& c : columns_) header.push_back(c.label);
  table.SetHeader(std::move(header));
  for (const size_t p : GroupRows(group)) {
    std::vector<std::string> row{points_[p].x_value};
    for (const RunResult& r : results_[p]) {
      row.push_back(std::to_string(r.stats.TotalMessages()));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

std::string SweepRunner::WriteJson() const {
  const std::string path = BenchJsonPath("BENCH_" + figure_ + ".json");
  if (path.empty()) return "";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return "";
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"figure\": \"%s\",\n", obs::JsonEscape(figure_).c_str());
  std::fprintf(f, "  \"threads\": %u,\n", ThreadPool::Global().thread_count());
  std::fprintf(f, "  \"wall_seconds\": %.6f,\n", wall_seconds_);
  std::fprintf(f, "  \"cells\": [\n");
  bool first = true;
  for (size_t p = 0; p < points_.size(); ++p) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      const RunResult& r = results_[p][c];
      std::fprintf(
          f,
          "%s    {\"group\": \"%s\", \"x\": \"%s\", \"column\": \"%s\", "
          "\"num_users\": %zu, \"epochs\": %d, \"seed\": %llu, "
          "\"total_io\": %llu, \"reports\": %llu, \"probes\": %llu, "
          "\"alerts\": %llu, \"region_installs\": %llu, "
          "\"match_installs\": %llu, \"alert_count\": %zu, "
          "\"server_seconds\": %.6f}",
          first ? "" : ",\n", obs::JsonEscape(points_[p].group).c_str(),
          obs::JsonEscape(points_[p].x_value).c_str(),
          obs::JsonEscape(columns_[c].label).c_str(),
          points_[p].config.num_users,
          points_[p].config.epochs,
          static_cast<unsigned long long>(points_[p].config.seed),
          static_cast<unsigned long long>(r.stats.TotalMessages()),
          static_cast<unsigned long long>(r.stats.reports),
          static_cast<unsigned long long>(r.stats.probes),
          static_cast<unsigned long long>(r.stats.alerts),
          static_cast<unsigned long long>(r.stats.region_installs),
          static_cast<unsigned long long>(r.stats.match_installs),
          r.alert_count, r.stats.server_seconds);
      first = false;
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  WriteRunReport();
  return path;
}

std::string SweepRunner::WriteRunReport() const {
  CommStats total;
  for (const auto& row : results_) {
    for (const RunResult& r : row) total += r.stats;
  }
  obs::RunReport report = MakeRunReport("sweep:" + figure_, total);
  report.AddInfo("figure", figure_);
  report.AddInfo("threads", std::to_string(ThreadPool::Global().thread_count()));
  report.AddScalar("timing", "wall_seconds", wall_seconds_);
  std::string mismatch;
  const bool reconciled =
      ReconcileWithCommStats(report.metrics(), total, &mismatch);
  report.AddInfo("counters_reconcile", reconciled ? "exact" : mismatch);
  return WriteReportArtifact(report, "REPORT_" + figure_ + ".json");
}

}  // namespace proxdet
