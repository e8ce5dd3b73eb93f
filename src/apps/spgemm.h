// SpGEMM workload (paper Table 2, Figure 1.b): general sparse matrix-
// matrix multiplication as in Ginkgo — a main loop of C = A * B products,
// A partitioned into row bins, one OpenMP-thread task per bin, with two
// synchronisation points per product (symbolic NNZ pass, numeric pass).
//
// The builder runs the *real* Gustavson SpGEMM (apps/kernels/csr.h) on a
// GAP-kron-like power-law matrix at reduced scale, measures each bin's
// nnz/flops (the source of the load imbalance: "different distributions of
// non-zero elements", Section 7.2), and scales footprints to the paper's
// 429.3 GB.
#pragma once

#include "apps/app.h"

namespace merch::apps {

struct SpGemmConfig {
  int num_tasks = 12;        // paper: 12 OpenMP threads
  int iterations = 5;        // main-loop products = task instances
  std::uint32_t rows = 1u << 15;  // real-measurement scale
  double avg_degree = 16.0;
  double skew = 0.85;        // kron power-law exponent
  std::uint64_t target_bytes = static_cast<std::uint64_t>(429.3 * 1073741824.0);
  /// Program-level accesses of the busiest task per instance (work scale).
  double busiest_task_accesses = 3e9;
  std::uint64_t seed = 1234;
};

/// One row bin's measured work in one product.
struct BinStats {
  std::uint64_t nnz_a = 0;
  std::uint64_t flops = 0;
  std::uint64_t nnz_c = 0;
};

/// One product (= region) of the main loop, measured on a real matrix.
struct RegionMeasurement {
  std::vector<BinStats> bins;
  std::uint64_t b_bytes = 0;  // CSR bytes of B
};

/// What the builder measures, one entry per iteration. It depends only on
/// num_tasks, iterations, rows, avg_degree, skew and seed, never on
/// target_bytes or busiest_task_accesses.
using SpGemmMeasurement = std::vector<RegionMeasurement>;

/// Generates one matrix per iteration and runs symbolic A*A on it.
SpGemmMeasurement MeasureSpGemm(const SpGemmConfig& config);

/// Scales a measurement to bytes, accesses and lowered kernels.
AppBundle ScaleSpGemm(const SpGemmConfig& config,
                      const SpGemmMeasurement& measurement);

/// ScaleSpGemm of MeasureSpGemm, the measurement computed once per process
/// for each fixed input.
AppBundle BuildSpGemm(const SpGemmConfig& config = {});

}  // namespace merch::apps
