#include "ml/flat_forest.h"

#include <algorithm>

#include "obs/metrics.h"

namespace merch::ml {

void FlatForest::Clear() {
  feature.clear();
  threshold.clear();
  value.clear();
  left.clear();
  right.clear();
  roots.clear();
  base = 0.0;
  tree_scale = 1.0;
  divisor = 1.0;
}

FlatForestPartial::FlatForestPartial(const FlatForest* forest,
                                     std::span<const double> row,
                                     std::size_t var) {
  const std::int32_t* feat = forest->feature.data();
  const double* thresh = forest->threshold.data();
  const std::int32_t* lo = forest->left.data();
  const std::int32_t* hi = forest->right.data();
  const double* val = forest->value.data();

  // Pass 1: fixed-feature splits are decided by the row; splits on `var`
  // fork, and their thresholds become the global breakpoints of the
  // piecewise-constant collapsed function.
  std::uint64_t visits = 0;
  std::vector<std::int32_t> stack;
  for (const std::int32_t root : forest->roots) {
    stack.push_back(root);
    while (!stack.empty()) {
      std::int32_t node = stack.back();
      stack.pop_back();
      std::int32_t f = feat[node];
      while (f >= 0) {
        ++visits;
        if (static_cast<std::size_t>(f) == var) {
          breakpoints_.push_back(thresh[node]);
          stack.push_back(hi[node]);
          node = lo[node];
        } else {
          node = row[f] <= thresh[node] ? lo[node] : hi[node];
        }
        f = feat[node];
      }
    }
  }
  std::sort(breakpoints_.begin(), breakpoints_.end());
  breakpoints_.erase(std::unique(breakpoints_.begin(), breakpoints_.end()),
                     breakpoints_.end());

  // Pass 2: propagate interval-index ranges down each tree and accumulate
  // leaf contributions. Tree-outer with per-interval `+= tree_scale * leaf`
  // reproduces the ensemble's per-row accumulation order exactly (each
  // tree contributes exactly one leaf to every interval), so values_ is
  // bitwise what the full model returns for one representative row per
  // interval. Interval i covers (b[i-1], b[i]]: its representative
  // satisfies x <= t identically for every breakpoint threshold t, which
  // is why one value is exact for the whole interval.
  const std::size_t num_intervals = breakpoints_.size() + 1;
  values_.assign(num_intervals, forest->base);
  struct Frame {
    std::int32_t node;
    std::uint32_t lo_idx;  // interval-index range [lo_idx, hi_idx)
    std::uint32_t hi_idx;
  };
  std::vector<Frame> frames;
  for (const std::int32_t root : forest->roots) {
    frames.push_back({root, 0, static_cast<std::uint32_t>(num_intervals)});
    while (!frames.empty()) {
      Frame fr = frames.back();
      frames.pop_back();
      std::int32_t f = feat[fr.node];
      while (f >= 0) {
        ++visits;
        if (static_cast<std::size_t>(f) == var) {
          // Intervals 0..p have representatives <= t (interval p's
          // representative IS t); intervals past p exceed it.
          const std::uint32_t p = static_cast<std::uint32_t>(
              std::lower_bound(breakpoints_.begin(), breakpoints_.end(),
                               thresh[fr.node]) -
              breakpoints_.begin());
          const std::uint32_t split = std::min(fr.hi_idx, p + 1);
          if (split < fr.hi_idx) {
            frames.push_back({hi[fr.node], split, fr.hi_idx});
          }
          fr.hi_idx = split;
          fr.node = lo[fr.node];
          if (fr.lo_idx >= fr.hi_idx) break;  // empty range, dead branch
        } else {
          fr.node = row[f] <= thresh[fr.node] ? lo[fr.node] : hi[fr.node];
        }
        f = feat[fr.node];
      }
      if (f < 0 && fr.lo_idx < fr.hi_idx) {
        const double contrib = forest->tree_scale * val[fr.node];
        for (std::uint32_t i = fr.lo_idx; i < fr.hi_idx; ++i) {
          values_[i] += contrib;
        }
      }
    }
  }
  if (forest->divisor != 1.0) {
    for (double& v : values_) v /= forest->divisor;
  }
  MERCH_METRIC_COUNT("merch_ml_flat_forest_node_visits_total", visits);
}

double FlatForestPartial::Predict(double x) const {
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(breakpoints_.begin(), breakpoints_.end(), x) -
      breakpoints_.begin());
  return values_[idx];
}

}  // namespace merch::ml
