// Flattened structure-of-arrays forest for batched tree inference.
//
// The tree ensembles behind the correlation function (GBR: 400 stages,
// RFR: 20 trees) are the decision path's inner loop: every Eq. 2
// evaluation walks every tree. The per-tree representation
// (std::vector<DecisionTreeRegressor>, each with its own AoS node vector,
// reached through a virtual call) costs an indirection per tree and
// scatters hot node data across allocations. This module compiles an
// ensemble into contiguous per-field arrays (feature index / threshold /
// child offsets / leaf value) shared by all trees, and evaluates many
// feature rows per pass, tree-outer so each tree's nodes stay cache-hot
// across the whole batch.
//
// Bit-identity contract: for every row, PredictBatch computes
//
//   y = base; for each tree (in order): y += tree_scale * leaf(tree, row);
//   return divisor == 1.0 ? y : y / divisor
//
// with the same node-walk comparison (x[feature] <= threshold ? left :
// right) as DecisionTreeRegressor::Predict. With (base, tree_scale,
// divisor) set per ensemble this reproduces the scalar GBR accumulation
// (y = base_prediction; y += learning_rate * tree.Predict(x)) and the RFR
// average (sum += tree.Predict(x); sum / num_trees) operation for
// operation, so flattened predictions are bitwise equal to the pointer
// walk (tests/decision_equiv_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/model.h"

namespace merch::ml {

struct FlatForest {
  /// Per-node arrays, all trees concatenated. feature[i] < 0 marks a leaf
  /// (value[i] is the prediction); otherwise threshold[i] splits and
  /// left/right[i] are global node indices.
  std::vector<std::int32_t> feature;
  std::vector<double> threshold;
  std::vector<double> value;
  std::vector<std::int32_t> left;
  std::vector<std::int32_t> right;
  /// Root node index per tree, in ensemble order.
  std::vector<std::int32_t> roots;

  /// Accumulation constants (see file comment).
  double base = 0.0;
  double tree_scale = 1.0;
  double divisor = 1.0;

  std::size_t num_trees() const { return roots.size(); }
  std::size_t num_nodes() const { return feature.size(); }
  bool empty() const { return roots.empty(); }

  void Clear();

  /// Evaluates every tree for each of the `n = out.size()` rows stored
  /// row-major in `rows` (rows.size() == n * num_features). Rows are
  /// walked four per tree in lock-step; each row keeps its own node chain
  /// and accumulator, so the interleaving is pure instruction-level
  /// parallelism and results are bitwise equal to the scalar ensemble walk
  /// (see file comment).
  void PredictBatch(std::span<const double> rows, std::size_t num_features,
                    std::span<double> out) const;

  /// Single-row convenience; same accumulation as PredictBatch.
  double PredictOne(std::span<const double> x) const;
};

/// FlatForest specialized on a row with feature `var` left free (the
/// PartialModel contract). Construction resolves every fixed-feature
/// split from the row; only splits on `var` remain undecided, so the
/// whole ensemble collapses to a piecewise-constant function of x whose
/// breakpoints are the `var` thresholds on reachable paths. A second
/// walk propagates interval-index ranges down each tree and accumulates
/// every interval's value tree-outer — per interval that is base, then
/// += tree_scale * leaf in tree order, then the divisor — i.e. the exact
/// per-row operation sequence of PredictBatch, so Predict(x) is bitwise
/// equal to a full forest evaluation with row[var] = x. Per-call cost is
/// one binary search; no forest walk ever happens after construction.
class FlatForestPartial final : public PartialModel {
 public:
  /// `var` < row.size(). Copies everything it needs; the forest and row
  /// need not outlive construction.
  FlatForestPartial(const FlatForest* forest, std::span<const double> row,
                    std::size_t var);

  double Predict(double x) const override;

  std::size_t num_intervals() const { return values_.size(); }

 private:
  /// Sorted unique thresholds tested against `var` on reachable paths;
  /// interval i covers (breakpoints_[i-1], breakpoints_[i]] and the last
  /// interval is open-ended.
  std::vector<double> breakpoints_;
  std::vector<double> values_;  // per interval
};

}  // namespace merch::ml
