// BFS workload (paper Table 2): breadth-first search over a com-Orkut-like
// social graph, vertex-partitioned across 12 OpenMP-thread tasks with a
// barrier per traversal. The paper attributes BFS's inherent imbalance to
// "the uneven graph partitioning approach" — reproduced here by measuring
// the edges each partition relaxes during *real* BFS runs on a power-law
// graph, then scaling to the paper's 731.9 GB footprint.
#pragma once

#include "apps/app.h"

namespace merch::apps {

struct BfsConfig {
  int num_tasks = 12;          // paper: 12 OpenMP threads
  int traversals = 5;          // BFS runs from distinct sources (regions)
  std::uint32_t vertices = 1u << 16;  // real-measurement scale
  double avg_degree = 30.0;    // Orkut-like density
  double skew = 0.9;
  std::uint64_t target_bytes = static_cast<std::uint64_t>(731.9 * 1073741824.0);
  double busiest_task_accesses = 1.2e9;
  std::uint64_t seed = 4321;
};

/// What the builder measures on the real graphs. It depends only on
/// num_tasks, traversals, vertices, avg_degree, skew and seed, never on
/// target_bytes or busiest_task_accesses.
struct BfsMeasurement {
  /// Edges each partition owns, the maximum over the graph snapshots.
  std::vector<std::uint64_t> part_edges;
  /// Edges each partition relaxed, per traversal (= region).
  std::vector<std::vector<std::uint64_t>> relaxed_per_region;
};

/// Generates one graph snapshot per traversal and runs real BFS on it.
BfsMeasurement MeasureBfs(const BfsConfig& config);

/// Scales a measurement to bytes, accesses and lowered kernels.
AppBundle ScaleBfs(const BfsConfig& config, const BfsMeasurement& measurement);

/// ScaleBfs of MeasureBfs, the measurement computed once per process for
/// each fixed input.
AppBundle BuildBfs(const BfsConfig& config = {});

}  // namespace merch::apps
