#include "ml/model.h"

#include <stdexcept>

#include "common/stats.h"
#include "ml/forest.h"
#include "ml/gbr.h"
#include "ml/kernel_ridge.h"
#include "ml/knn.h"
#include "ml/mlp.h"
#include "ml/tree.h"

namespace merch::ml {

std::vector<double> Regressor::PredictAll(const Dataset& data) const {
  std::vector<double> out(data.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = Predict(data.row(i));
  return out;
}

double Regressor::Score(const Dataset& data) const {
  const auto pred = PredictAll(data);
  return RSquared(data.targets(), pred);
}

std::unique_ptr<Regressor> MakeRegressor(const std::string& kind,
                                         std::uint64_t seed) {
  if (kind == "DTR") {
    return std::make_unique<DecisionTreeRegressor>(TreeConfig{.max_depth = 10},
                                                   seed);
  }
  if (kind == "SVR") {
    return std::make_unique<KernelRidgeRegressor>();
  }
  if (kind == "KNR") {
    return std::make_unique<KNeighborsRegressor>(KnnConfig{.k = 8});
  }
  if (kind == "RFR") {
    return std::make_unique<RandomForestRegressor>(
        ForestConfig{.num_trees = 20, .tree = TreeConfig{.max_depth = 10}},
        seed);
  }
  if (kind == "GBR") {
    return std::make_unique<GradientBoostedRegressor>(GbrConfig{}, seed);
  }
  if (kind == "ANN") {
    return std::make_unique<MLPRegressor>(MlpConfig{}, seed);
  }
  throw std::invalid_argument("unknown regressor kind: " + kind);
}

const std::vector<std::string>& AllRegressorKinds() {
  static const std::vector<std::string> kKinds = {"DTR", "SVR", "KNR",
                                                  "RFR", "GBR", "ANN"};
  return kKinds;
}

}  // namespace merch::ml
