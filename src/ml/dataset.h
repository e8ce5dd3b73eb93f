// In-memory regression dataset + feature standardisation.
//
// The correlation-function training data (paper Section 5.1) is a few
// thousand samples of ~25 features, so simple row-major storage is right.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace merch::ml {

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::size_t num_features) : num_features_(num_features) {}

  void Add(std::vector<double> x, double y);

  std::size_t size() const { return y_.size(); }
  std::size_t num_features() const { return num_features_; }
  bool empty() const { return y_.empty(); }

  std::span<const double> row(std::size_t i) const {
    return {X_.data() + i * num_features_, num_features_};
  }
  double target(std::size_t i) const { return y_[i]; }
  std::span<const double> targets() const { return y_; }

  /// Random train/test split (paper uses 70/30, Section 7.3).
  std::pair<Dataset, Dataset> Split(double train_fraction, Rng& rng) const;

  /// Subset by row indices (bootstrap sampling for forests).
  Dataset Subset(std::span<const std::size_t> indices) const;

  /// Copy with a subset of feature columns (event-selection study,
  /// Figure 7).
  Dataset SelectFeatures(std::span<const std::size_t> features) const;

  /// Copy with one feature column randomly permuted (permutation
  /// importance).
  Dataset PermuteFeature(std::size_t feature, Rng& rng) const;

 private:
  std::size_t num_features_ = 0;
  std::vector<double> X_;  // row major, size() * num_features_
  std::vector<double> y_;
};

/// Z-score standardiser fitted on training data, applied everywhere.
class Standardizer {
 public:
  void Fit(const Dataset& data);
  std::vector<double> Transform(std::span<const double> x) const;
  Dataset TransformAll(const Dataset& data) const;

  bool fitted() const { return !mean_.empty(); }

 private:
  std::vector<double> mean_;
  std::vector<double> inv_std_;
};

}  // namespace merch::ml
