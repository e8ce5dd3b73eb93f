// Gradient-boosted regression trees with squared loss — the model the
// paper selects as its correlation function f(.) (highest R^2 in Table 3,
// base_estimator = DTR).
#pragma once

#include "ml/tree.h"

namespace merch::ml {

struct GbrConfig {
  std::size_t num_stages = 400;
  double learning_rate = 0.05;
  TreeConfig tree{.max_depth = 4, .min_samples_leaf = 3,
                  .min_samples_split = 6};
  /// Row subsampling per stage (stochastic gradient boosting).
  double subsample = 0.7;
};

class GradientBoostedRegressor final : public Regressor {
 public:
  explicit GradientBoostedRegressor(GbrConfig config = {},
                                    std::uint64_t seed = 7)
      : config_(config), rng_(seed) {}

  void Fit(const Dataset& data) override;
  double Predict(std::span<const double> x) const override;
  /// Piecewise-constant collapse over the free feature (FlatForestPartial;
  /// bitwise equal to Predict).
  std::unique_ptr<PartialModel> Specialize(std::span<const double> row,
                                           std::size_t var) const override;
  std::string name() const override { return "GBR"; }

  const FlatForest& flat_forest() const { return flat_; }

  /// Stage-summed impurity importance (the "Gini importance" used to rank
  /// hardware events in Section 5.1).
  std::vector<double> FeatureImportance() const;

 private:
  void CompileFlat();

  GbrConfig config_;
  Rng rng_;
  double base_prediction_ = 0;
  std::vector<DecisionTreeRegressor> stages_;
  FlatForest flat_;  // compiled at the end of Fit
};

}  // namespace merch::ml
