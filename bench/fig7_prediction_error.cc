// Figure 7: prediction error (meters) of RMF, HMM, R2-D2 and the Kalman
// filter on the four datasets, input length 10, output lengths 10/20/30.
// Also reports mean prediction time (the text of Sec. VI-B) and the
// cross-track sigma the cost model consumes. The (dataset, model) cells
// are independent — each builds its own generator and Rngs — so they fan
// out across the thread pool and reassemble in paper order.

#include <cstdio>

#include "bench/bench_common.h"
#include "bench_support/experiment.h"
#include "common/rng.h"
#include "common/table.h"
#include "exec/thread_pool.h"
#include "predict/evaluator.h"
#include "predict/predictor.h"

using namespace proxdet;

int main() {
  const bool quick = QuickMode();
  const size_t train_users = quick ? 16 : 60;
  const size_t test_users = quick ? 8 : 30;
  const size_t ticks = quick ? 300 : 1600;  // Paper: 1,600 timestamps.
  const size_t queries = quick ? 60 : 300;

  const std::vector<DatasetKind> datasets = AllDatasetKinds();
  const std::vector<PredictorKind> kinds{
      PredictorKind::kRmf, PredictorKind::kHmm, PredictorKind::kR2d2,
      PredictorKind::kKalman};

  // One cell per (dataset, model): train + evaluate + calibrate, returning
  // the finished table row.
  const size_t cells = datasets.size() * kinds.size();
  const std::vector<std::vector<std::string>> rows =
      ParallelMap<std::vector<std::string>>(cells, [&](size_t i) {
        const DatasetKind dataset = datasets[i / kinds.size()];
        const PredictorKind kind = kinds[i % kinds.size()];
        TrajectoryGenerator gen(SpecFor(dataset),
                                7000 + static_cast<int>(dataset));
        const std::vector<Trajectory> train = gen.Generate(train_users, ticks);
        const std::vector<Trajectory> test = gen.Generate(test_users, ticks);
        auto model = MakePredictor(kind, 1.0, 42);
        model->Train(train);
        std::vector<std::string> row{PredictorName(kind)};
        double time_us = 0.0;
        for (const size_t out_len : {10u, 20u, 30u}) {
          Rng rng(1000 + static_cast<int>(out_len));
          const PredictionEvaluation eval =
              EvaluatePredictor(model.get(), test, 10, out_len, queries, &rng);
          row.push_back(FormatDouble(eval.mean_error_m, 1));
          time_us = eval.mean_predict_time_us;
        }
        row.push_back(FormatDouble(time_us, 1));
        Rng rng(555);
        row.push_back(FormatDouble(
            CalibrateCrossTrackSigma(model.get(), test, 10, 20, queries, &rng),
            1));
        return row;
      });

  for (size_t d = 0; d < datasets.size(); ++d) {
    Table table("Figure 7 - prediction error on " + DatasetName(datasets[d]) +
                " (input length 10)");
    table.SetHeader({"model", "out=10 err(m)", "out=20 err(m)",
                     "out=30 err(m)", "time(us)", "xtrack sigma(m)"});
    for (size_t k = 0; k < kinds.size(); ++k) {
      table.AddRow(rows[d * kinds.size() + k]);
    }
    std::printf("%s\n", table.ToString().c_str());
  }
  return 0;
}
