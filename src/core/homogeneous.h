// Performance prediction on homogeneous memory (paper Section 5.2).
//
// Offline (once per application): measure each basic block's (kernel's)
// execution time on DRAM only and PM only, using the base input.
// Online (per new input): scale the base-input block execution counts by
// the similarity between the base and new input — the paper computes the
// cosine similarity of the two object-size vectors and uses it to scale
// the block counts. Cosine similarity alone is magnitude-blind, so, as in
// the paper's usage (inputs of the same shape but different size), we
// scale by cos(base, new) * (|new| / |base|) — the projection of the new
// size vector onto the base direction, normalised by the base length.
// For same-direction inputs this reduces exactly to the size ratio.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"
#include "sim/engine.h"
#include "sim/workload.h"

namespace merch::core {

class HomogeneousPredictor {
 public:
  HomogeneousPredictor() = default;

  /// Offline step: run the base region (region 0) of `workload` on PM
  /// only and DRAM only and record per-kernel times. This mirrors
  /// "measuring the execution time of basic blocks on DRAM and PM"
  /// (Section 5.3, offline step 2) and happens once per application. The
  /// runs give PM room for every object, since tier capacity cannot change
  /// a forced-tier time, so preparation never fails for lack of capacity.
  static HomogeneousPredictor Prepare(const sim::Workload& workload,
                                      const sim::MachineSpec& machine);

  /// Predicted execution time of `task` for an input with the given
  /// object sizes, if all accesses were served by `tier`. The similarity
  /// scale uses only the objects this task accesses (a task's basic-block
  /// counts scale with *its* input, not the global footprint).
  double Predict(TaskId task, hm::Tier tier,
                 const std::vector<std::uint64_t>& new_sizes) const;

  bool prepared() const { return !per_task_.empty(); }
  const std::vector<std::uint64_t>& base_sizes() const { return base_sizes_; }

 private:
  struct TaskProfile {
    std::vector<double> pm_seconds;    // per kernel, base input
    std::vector<double> dram_seconds;  // per kernel, base input
    std::vector<std::size_t> objects;  // objects the task accesses
  };
  std::map<TaskId, TaskProfile> per_task_;
  std::vector<std::uint64_t> base_sizes_;
};

/// Similarity-based count scale (see file comment): the factor applied to
/// base-input basic-block counts for the new input.
double SimilarityScale(const std::vector<std::uint64_t>& base_sizes,
                       const std::vector<std::uint64_t>& new_sizes);

}  // namespace merch::core
