// CART regression tree (variance-reduction splitting).
//
// Used directly as the paper's "DTR" and as the weak learner inside the
// random forest and gradient-boosted regressors. Also exposes impurity-
// based feature importance, the "Gini importance" the paper uses to rank
// hardware events (Section 5.1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "ml/flat_forest.h"
#include "ml/model.h"

namespace merch::ml {

struct TreeConfig {
  int max_depth = 10;
  std::size_t min_samples_leaf = 2;
  std::size_t min_samples_split = 4;
  /// Features considered per split; 0 = all (forests pass a subset size).
  std::size_t max_features = 0;
};

class DecisionTreeRegressor final : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeConfig config = {}, std::uint64_t seed = 7)
      : config_(config), rng_(seed) {}

  void Fit(const Dataset& data) override;
  double Predict(std::span<const double> x) const override;
  std::string name() const override { return "DTR"; }

  /// Fit on externally supplied targets (gradient boosting fits trees to
  /// residuals without copying features).
  void FitResiduals(const Dataset& data, std::span<const double> residuals);

  /// Per-feature impurity decrease, normalised to sum 1.
  std::vector<double> FeatureImportance() const;

  /// Appends this tree to a flattened ensemble (child indices rebased to
  /// the forest's global node array). Build always places the root at
  /// local index 0.
  void AppendToForest(FlatForest* forest) const;

  std::size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    // Leaf iff feature == SIZE_MAX.
    std::size_t feature = static_cast<std::size_t>(-1);
    double threshold = 0;
    double value = 0;       // leaf prediction
    std::int32_t left = -1;
    std::int32_t right = -1;
  };

  std::int32_t Build(const Dataset& data, std::span<const double> targets,
                     std::vector<std::size_t>& indices, std::size_t begin,
                     std::size_t end, int depth);

  TreeConfig config_;
  Rng rng_;
  std::vector<Node> nodes_;
  std::vector<double> importance_;  // raw impurity decrease per feature
  std::size_t num_features_ = 0;
};

}  // namespace merch::ml
