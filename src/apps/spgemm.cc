#include "apps/spgemm.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <tuple>

#include "apps/kernels/csr.h"
#include "apps/measurement_memo.h"
#include "analysis/passes.h"

namespace merch::apps {
namespace {

RegionMeasurement MeasureRegion(const SpGemmConfig& cfg, Rng& rng) {
  const CsrMatrix a = GenerateKronMatrix(cfg.rows, cfg.avg_degree, cfg.skew, rng);
  const CsrMatrix& b = a;  // C = A * A (GAP-kron self-product)
  const auto row_nnz_c = SpGemmSymbolic(a, b);

  RegionMeasurement m;
  m.b_bytes = b.bytes();
  const std::uint32_t bin_rows =
      (cfg.rows + cfg.num_tasks - 1) / cfg.num_tasks;
  for (int t = 0; t < cfg.num_tasks; ++t) {
    const std::uint32_t begin = std::min<std::uint32_t>(t * bin_rows, cfg.rows);
    const std::uint32_t end =
        std::min<std::uint32_t>((t + 1) * bin_rows, cfg.rows);
    BinStats bs;
    bs.nnz_a = a.row_ptr[end] - a.row_ptr[begin];
    bs.flops = SpGemmFlops(a, b, begin, end);
    for (std::uint32_t i = begin; i < end; ++i) bs.nnz_c += row_nnz_c[i];
    m.bins.push_back(bs);
  }
  return m;
}

}  // namespace

SpGemmMeasurement MeasureSpGemm(const SpGemmConfig& cfg) {
  Rng rng(cfg.seed);
  SpGemmMeasurement regions;
  regions.reserve(cfg.iterations);
  for (int r = 0; r < cfg.iterations; ++r) {
    regions.push_back(MeasureRegion(cfg, rng));
  }
  return regions;
}

AppBundle ScaleSpGemm(const SpGemmConfig& cfg,
                      const SpGemmMeasurement& regions) {
  assert(regions.size() == static_cast<std::size_t>(cfg.iterations));

  // Byte scaling: hit the paper's footprint with the max-instance sizes.
  double real_total = 0;
  std::vector<double> max_a(cfg.num_tasks, 0), max_c(cfg.num_tasks, 0),
      max_acc(cfg.num_tasks, 0);
  double max_b = 0;
  for (const RegionMeasurement& m : regions) {
    max_b = std::max(max_b, static_cast<double>(m.b_bytes));
    for (int t = 0; t < cfg.num_tasks; ++t) {
      max_a[t] = std::max(max_a[t], 12.0 * static_cast<double>(m.bins[t].nnz_a));
      max_c[t] = std::max(max_c[t], 12.0 * static_cast<double>(m.bins[t].nnz_c));
      // Per-task hash/accumulator state (Gustavson keeps a sparse
      // accumulator sized by the output row structure).
      max_acc[t] = std::max(max_acc[t], 6.0 * static_cast<double>(m.bins[t].nnz_c));
    }
  }
  real_total = max_b;
  for (int t = 0; t < cfg.num_tasks; ++t) {
    real_total += max_a[t] + max_c[t] + max_acc[t];
  }
  const double byte_scale = static_cast<double>(cfg.target_bytes) / real_total;

  // Work scaling: the busiest bin of the first instance gets
  // busiest_task_accesses program-level accesses.
  double max_raw_work = 1;
  for (const BinStats& b : regions[0].bins) {
    max_raw_work = std::max(max_raw_work,
                            static_cast<double>(3 * b.flops + b.nnz_a + b.nnz_c));
  }
  const double work_scale = cfg.busiest_task_accesses / max_raw_work;

  AppBundle bundle;
  sim::Workload& w = bundle.workload;
  w.name = "SpGEMM";

  // Objects: B (shared, hub rows hot), per-task A bins and C parts.
  const std::size_t obj_b = 0;
  w.objects.push_back(sim::ObjectDecl{
      .name = "B_csr",
      .bytes = static_cast<std::uint64_t>(max_b * byte_scale),
      .owner = kInvalidTask,
      .heat = trace::HeatProfile::Zipf(0.6),
      .reuse_passes = 2.0});
  std::vector<std::size_t> obj_a(cfg.num_tasks), obj_c(cfg.num_tasks);
  for (int t = 0; t < cfg.num_tasks; ++t) {
    obj_a[t] = w.objects.size();
    w.objects.push_back(sim::ObjectDecl{
        .name = "A_bin" + std::to_string(t),
        .bytes = static_cast<std::uint64_t>(max_a[t] * byte_scale),
        .owner = static_cast<TaskId>(t),
        .heat = trace::HeatProfile::Uniform(),
        .reuse_passes = 2.0});
  }
  for (int t = 0; t < cfg.num_tasks; ++t) {
    obj_c[t] = w.objects.size();
    w.objects.push_back(sim::ObjectDecl{
        .name = "C_part" + std::to_string(t),
        .bytes = static_cast<std::uint64_t>(max_c[t] * byte_scale),
        .owner = static_cast<TaskId>(t),
        .heat = trace::HeatProfile::Uniform(),
        .reuse_passes = 1.0});
  }
  std::vector<std::size_t> obj_acc(cfg.num_tasks);
  for (int t = 0; t < cfg.num_tasks; ++t) {
    obj_acc[t] = w.objects.size();
    w.objects.push_back(sim::ObjectDecl{
        .name = "accum" + std::to_string(t),
        .bytes = static_cast<std::uint64_t>(max_acc[t] * byte_scale),
        .owner = static_cast<TaskId>(t),
        .heat = trace::HeatProfile::Zipf(0.4),
        .reuse_passes = 1.0});
  }

  auto build_task_ir = [&](int t, const RegionMeasurement& m) {
    const BinStats& bs = m.bins[t];
    const double flops = std::max(1.0, static_cast<double>(bs.flops) * work_scale);
    const double nnz_a = static_cast<double>(bs.nnz_a) * work_scale;
    const double nnz_c = static_cast<double>(bs.nnz_c) * work_scale;

    core::TaskIr ir;
    ir.task = static_cast<TaskId>(t);
    // Symbolic pass: walk the bin's rows of A (stream), probe B rows via
    // A's column indices (gather).
    core::LoopNest symbolic;
    symbolic.name = "symbolic";
    symbolic.trip_count = static_cast<std::uint64_t>(flops);
    symbolic.instructions_per_iteration = 5.0;
    symbolic.branch_fraction = 0.15;
    symbolic.vector_fraction = 0.02;
    symbolic.refs.push_back(core::ArrayRef{
        .object = obj_a[t],
        .subscript = {.kind = core::Subscript::Kind::kAffine, .stride = 1},
        .is_write = false,
        .element_bytes = 8,
        .accesses_per_iteration = nnz_a / flops});
    symbolic.refs.push_back(core::ArrayRef{
        .object = obj_b,
        .subscript = {.kind = core::Subscript::Kind::kIndirect,
                      .index_object = obj_a[t]},
        .is_write = false,
        .element_bytes = 8,
        .accesses_per_iteration = 1.0});
    ir.loops.push_back(symbolic);

    // Numeric pass: same traversal, plus hash-accumulator updates (random
    // within the per-task accumulator) and streaming writes of C.
    core::LoopNest numeric = symbolic;
    numeric.name = "numeric";
    numeric.instructions_per_iteration = 8.0;
    numeric.vector_fraction = 0.10;
    numeric.refs.push_back(core::ArrayRef{
        .object = obj_acc[t],
        .subscript = {.kind = core::Subscript::Kind::kOpaque},
        .is_write = true,
        .element_bytes = 8,
        .accesses_per_iteration = 1.0});
    numeric.refs.push_back(core::ArrayRef{
        .object = obj_c[t],
        .subscript = {.kind = core::Subscript::Kind::kAffine, .stride = 1},
        .is_write = true,
        .element_bytes = 8,
        .accesses_per_iteration = nnz_c / flops});
    ir.loops.push_back(numeric);
    return ir;
  };

  for (int r = 0; r < cfg.iterations; ++r) {
    sim::Region region;
    region.name = "spgemm_" + std::to_string(r);
    region.active_bytes.assign(w.objects.size(), 0);
    region.active_bytes[obj_b] = static_cast<std::uint64_t>(
        static_cast<double>(regions[r].b_bytes) * byte_scale);
    for (int t = 0; t < cfg.num_tasks; ++t) {
      region.active_bytes[obj_a[t]] = static_cast<std::uint64_t>(
          12.0 * static_cast<double>(regions[r].bins[t].nnz_a) * byte_scale);
      region.active_bytes[obj_c[t]] = static_cast<std::uint64_t>(
          12.0 * static_cast<double>(regions[r].bins[t].nnz_c) * byte_scale);
      region.active_bytes[obj_acc[t]] = static_cast<std::uint64_t>(
          6.0 * static_cast<double>(regions[r].bins[t].nnz_c) * byte_scale);
      const core::TaskIr ir = build_task_ir(t, regions[r]);
      sim::TaskProgram tp;
      tp.task = static_cast<TaskId>(t);
      tp.kernels = analysis::LowerTask(ir, w.objects.size());
      region.tasks.push_back(std::move(tp));
      if (r == 0) bundle.task_irs.push_back(ir);
    }
    w.regions.push_back(std::move(region));
  }

  // Sparta-like priority: keep the reused B structure fast, then A bins,
  // then C outputs — no awareness of per-task balance.
  bundle.sparta_priority.push_back(obj_b);
  for (int t = 0; t < cfg.num_tasks; ++t) {
    bundle.sparta_priority.push_back(obj_a[t]);
  }
  for (int t = 0; t < cfg.num_tasks; ++t) {
    bundle.sparta_priority.push_back(obj_c[t]);
  }
  assert(w.Validate().empty());
  return bundle;
}

AppBundle BuildSpGemm(const SpGemmConfig& cfg) {
  using Key = std::tuple<int, int, std::uint32_t, std::uint64_t, std::uint64_t,
                         std::uint64_t>;
  // Never destroyed: a pool thread may still be building at exit.
  static auto* memo = new MeasurementMemo<Key, SpGemmMeasurement>();
  const Key key{cfg.num_tasks,
                cfg.iterations,
                cfg.rows,
                std::bit_cast<std::uint64_t>(cfg.avg_degree),
                std::bit_cast<std::uint64_t>(cfg.skew),
                cfg.seed};
  return ScaleSpGemm(cfg, memo->Get(key, [&] { return MeasureSpGemm(cfg); }));
}

}  // namespace merch::apps
