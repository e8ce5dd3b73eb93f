// Common regressor interface for the Table 3 model family.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.h"

namespace merch::ml {

/// A model partially evaluated on a fixed feature row with one feature
/// left free: Predict(x) is bitwise equal to the full model's
/// Predict(row) with row[var] = x. Built once per (row, var) and queried
/// many times — the correlation function's decision-loop pattern, where
/// the PMC features are fixed per task and only the DRAM ratio varies.
/// Predict is const and must be safe for concurrent calls (instances are
/// shared through caches).
class PartialModel {
 public:
  virtual ~PartialModel() = default;
  virtual double Predict(double x) const = 0;
};

class Regressor {
 public:
  virtual ~Regressor() = default;

  virtual void Fit(const Dataset& data) = 0;
  virtual double Predict(std::span<const double> x) const = 0;
  virtual std::string name() const = 0;

  /// Specialize the model on `row` with feature index `var` left free
  /// (see PartialModel). Returns nullptr when the model has no
  /// accelerated specialization — callers fall back to full Predict
  /// calls. Tree ensembles resolve every fixed-feature split up front,
  /// collapsing to a piecewise-constant function of the free feature.
  virtual std::unique_ptr<PartialModel> Specialize(
      std::span<const double> row, std::size_t var) const {
    (void)row;
    (void)var;
    return nullptr;
  }

  /// One Predict per dataset row.
  std::vector<double> PredictAll(const Dataset& data) const;
  /// R-squared on a dataset (paper's Table 3 metric).
  double Score(const Dataset& data) const;
};

/// Factory covering the paper's Table 3 with its listed hyperparameters:
/// "DTR" (max_depth=10), "SVR" (rbf kernel ridge), "KNR" (k=8),
/// "RFR" (20 trees, depth 10), "GBR", "ANN" (MLP 200x20, alpha=1e-5).
std::unique_ptr<Regressor> MakeRegressor(const std::string& kind,
                                         std::uint64_t seed = 7);

/// All Table 3 model kinds in paper order.
const std::vector<std::string>& AllRegressorKinds();

}  // namespace merch::ml
