// The Predictor concurrency contract: Predict is a pure function of the
// trained model and its arguments, so concurrent calls on one shared model
// return exactly what serial calls return. The speculative resolve builds
// stripes — and so calls Predict — on pool threads and relies on this.

#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulation.h"
#include "exec/thread_pool.h"
#include "predict/predictor.h"

namespace proxdet {
namespace {

TEST(ConcurrentPredictTest, ParallelCallsMatchSerialBitForBit) {
  WorkloadConfig config;
  config.num_users = 24;
  config.epochs = 30;
  config.training_users = 12;
  config.training_epochs = 60;
  const Workload workload = BuildWorkload(config);
  std::vector<std::vector<Vec2>> queries;
  for (UserId u = 0; u < 24; ++u) {
    for (int epoch = 0; epoch < 30; epoch += 3) {
      queries.push_back(workload.world.RecentWindow(u, epoch, 10));
    }
  }
  constexpr size_t kSteps = 20;
  ThreadPool pool(4);

  for (const PredictorKind kind : AllPredictorKinds()) {
    SCOPED_TRACE(PredictorName(kind));
    const std::unique_ptr<Predictor> predictor =
        MakeTrainedPredictor(kind, workload);
    std::vector<std::vector<Vec2>> serial;
    for (const std::vector<Vec2>& q : queries) {
      serial.push_back(predictor->Predict(q, kSteps));
    }
    std::vector<std::vector<Vec2>> parallel(queries.size());
    ParallelFor(pool, queries.size(), [&](size_t i) {
      parallel[i] = predictor->Predict(queries[i], kSteps);
    });
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(serial[i].size(), kSteps) << "query " << i;
      ASSERT_EQ(parallel[i].size(), kSteps) << "query " << i;
      EXPECT_EQ(std::memcmp(serial[i].data(), parallel[i].data(),
                            kSteps * sizeof(Vec2)),
                0)
          << "query " << i;
    }
  }
}

}  // namespace
}  // namespace proxdet
