// Discrete-time heterogeneous-memory execution engine.
//
// The engine advances all tasks of a region in lock-step epochs. Per epoch
// it (1) derives each object's served-from-DRAM fraction from page
// placement (or the hardware-cache model), (2) resolves bandwidth
// contention across tasks, migration traffic, and background traffic with
// a short fixed-point iteration, (3) advances task progress, and (4)
// accumulates access counts (for profilers) and bandwidth telemetry
// (Figure 6). Regions end with a barrier: the region's duration is its
// slowest task — the paper's central observation is that placement must
// optimise *that*, not individual task speed.
//
// Hot-path structure (DESIGN.md §5): a kernel's timing under contention
// factors (lambda_dram, lambda_pm) is linear in the lambdas per access, so
// the engine splits it into a lambda-independent per-access cost table
// (KernelBase: residency probes, bandwidth blends, latency math) and an
// O(#accesses) multiply-add application (TimingFromBase). DeriveKernel
// hoists every placement-independent per-access term (mixed bandwidths,
// blended latencies, the mm-weighted overlap) into stride-1 SoA lanes once
// per region, carved from a region-scoped bump arena. The base is memoized
// per task and rebuilt only when the task's kernel, its sweep window, or
// any page placement changed since it was built; when only the sweep
// window moved, just the sweeping lanes are refreshed. TimingFromBase
// serves the uncontended lambda == 1 case from order-exact per-tier sums,
// and the contention fixed point skips iterations whose lambdas are
// bitwise unchanged. Each shortcut either recomputes the exact FP
// operation sequence of a from-scratch evaluation or skips work whose
// recomputation would be a bitwise no-op; tests/engine_equiv_test.cc pins
// the results to digests recorded from an unmemoized, linear-scan engine.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "hm/migration.h"
#include "hm/page_table.h"
#include "sim/arena.h"
#include "sim/machine.h"
#include "sim/oracle.h"
#include "sim/policy.h"
#include "sim/telemetry.h"
#include "sim/workload.h"

namespace merch::sim {

struct SimConfig {
  /// Simulation time step.
  double epoch_seconds = 0.02;
  /// Profiling/migration interval (MemoryOptimizer-style daemon period).
  double interval_seconds = 0.5;
  /// Placement granularity (2 MiB regions bound metadata at TiB scale; the
  /// paper migrates 4 KiB pages — ratios, not granularity, drive results).
  std::uint64_t page_bytes = 2 * MiB;
  /// Migration engine transfer-rate cap.
  double migration_gbps = 2.0;
  /// PMU measurement noise (multiplicative sigma).
  double pmc_noise = 0.02;
  std::uint64_t seed = 42;
  /// Homogeneous-run override: serve every access from this tier,
  /// ignoring capacity (used to obtain T_dram_only / T_pm_only bounds).
  std::optional<hm::Tier> force_tier;
};

/// Monotonic hot-path counters (bench/engine_speed and perfbench read
/// these).
struct EngineCounters {
  std::uint64_t epochs = 0;
  /// KernelTiming evaluations requested (fixed-point + advance passes).
  std::uint64_t timing_evals = 0;
  /// Full per-access cost-table builds: the small fraction of
  /// timing_evals not served from a memoized base.
  std::uint64_t base_builds = 0;
  /// Sweep-only partial base refreshes: rebuilds that touched only the
  /// sweeping lanes because placement was unchanged and only the progress
  /// window moved.
  std::uint64_t partial_refreshes = 0;
};

class Engine {
 public:
  /// `policy` may be null (homogeneous/force-tier runs only). Throws
  /// std::invalid_argument when a workload object does not fit the
  /// machine's tiers at the configured page size.
  Engine(const Workload& workload, const MachineSpec& machine,
         SimConfig config, PlacementPolicy* policy);

  SimResult Run();

  // --- accessors used by SimContext ---
  const Workload& workload() const { return *workload_; }
  const MachineSpec& machine() const { return machine_; }
  const SimConfig& config() const { return config_; }
  hm::PageTable& pages() { return *pages_; }
  hm::MigrationEngine& migration() { return *migration_; }
  AccessOracle& oracle() { return *oracle_; }
  double now() const { return t_; }
  std::size_t region_index() const { return region_index_; }
  const std::vector<RegionStats>& history() const { return history_; }
  double ObjectDramFraction(std::size_t object) const;
  void SetHwDramFraction(std::size_t object, double fraction);
  void AddBackgroundTraffic(double bytes_on_pm, double bytes_on_dram);

  EngineCounters counters() const { return counters_; }

 private:
  struct DerivedAccess {
    std::size_t object = 0;
    double program = 0;        // program-level accesses
    double mm = 0;             // main-memory accesses
    double overlap = 0.0;
    double prefetch_miss = 0.0;
    bool sweeping = true;
    double l2_misses = 0;
  };
  /// Stride-1 per-access lanes for the base builder. Everything
  /// placement-independent is hoisted here once per region by
  /// DeriveKernel, so ComputeKernelBase is a branchless loop over
  /// contiguous doubles. Arena-backed; valid until the next region's
  /// BuildRegionRuntime.
  struct LaneBlock {
    std::size_t n = 0;
    std::span<double> mm;        // main-memory accesses
    std::span<double> bytes;     // mm * line size
    std::span<double> mlp;
    std::span<double> bw_dram;   // MixedBandwidthBytesPerSec per tier
    std::span<double> bw_pm;
    std::span<double> lat_dram;  // read/write-blended latency (ns)
    std::span<double> lat_pm;
    std::span<double> f;         // scratch: per-access DRAM fraction
    std::span<std::uint32_t> object;
    std::span<std::uint32_t> sweep_ix;  // indices of sweeping accesses
    double overlap = 0;  // mm-weighted overlap, folded in access order
  };
  struct DerivedKernel {
    double compute_seconds = 0;
    std::uint64_t instructions = 0;
    double branch_instructions = 0;
    double vector_instructions = 0;
    bool has_sweep = false;  // any sweeping access (timing depends on progress)
    std::vector<DerivedAccess> accesses;
    LaneBlock lanes;
  };
  struct KernelTiming {
    double seconds = 0;    // contended kernel duration
    double dram_bytes = 0; // bytes on DRAM for the whole kernel
    double pm_bytes = 0;
    double memory_seconds = 0;  // unhidden memory time
  };
  /// Memoized lambda-independent half of a kernel timing, tagged with the
  /// inputs it was built from so staleness is detectable. The SoA spans
  /// (capacity = the task's widest kernel, arena-backed) hold per-access
  /// tier costs at lambda == 1; the order-exact per-tier sums serve the
  /// uncontended evaluations directly.
  struct KernelBase {
    std::span<double> t_dram;  // max(bandwidth, latency) seconds per access
    std::span<double> t_pm;
    std::span<double> b_dram;  // bytes per access and tier
    std::span<double> b_pm;
    std::size_t n = 0;         // active access count
    double sum_t_dram = 0;     // serial in-order sums over the lanes
    double sum_t_pm = 0;
    double sum_b_dram = 0;
    double sum_b_pm = 0;
    double compute_seconds = 0;
    double overlap = 0;  // mm-weighted average overlap factor
    bool valid = false;
    std::size_t kernel_index = 0;
    double progress = 0;
    std::uint64_t placement_version = 0;
  };
  struct TaskRuntime {
    TaskId task = kInvalidTask;
    std::vector<DerivedKernel> kernels;
    std::size_t kernel_index = 0;
    double kernel_fraction = 0;  // progress within current kernel
    bool done = false;
    double finish_time = 0;
    TaskStats stats;  // accumulated
    KernelBase base;  // memoized timing base for the current kernel
  };

  void RegisterObjects();
  void BuildRegionRuntime(const Region& region);
  /// Non-const: carves the kernel's LaneBlock out of arena_.
  DerivedKernel DeriveKernel(const Kernel& kernel, const Region& region);
  /// The expensive, lambda-independent half of a kernel timing, evaluated
  /// at the given sweep progress (sequential accesses only benefit from
  /// DRAM pages in the upcoming rank window; see
  /// trace::PatternTraits::sweeping): residency probes plus a branchless
  /// stride-1 cost loop and the order-exact per-tier sums.
  void ComputeKernelBase(const DerivedKernel& kernel, double progress,
                         KernelBase* out);
  /// Order-exact per-tier sums over the base's active lanes.
  static void SumLanes(KernelBase* base);
  /// Recompute only the sweeping lanes of a base whose placement stamp is
  /// current (only the progress window moved). Non-sweeping lanes cannot
  /// have changed, so this equals a full rebuild bit for bit.
  void PartialRefreshBase(const DerivedKernel& kernel, double progress,
                          KernelBase* out);
  /// The cheap half: apply contention factors to a prepared base.
  KernelTiming TimingFromBase(const KernelBase& base, double lambda_dram,
                              double lambda_pm);
  bool BaseValid(const TaskRuntime& rt) const;
  void BuildBase(TaskRuntime& rt);
  /// Rebuild every live task's stale base.
  void RefreshKernelBases();

  /// Fraction of pages in the rank window [f0, f1) of `object` resident on
  /// DRAM, from 16 probes at fixed stride (exact for prefix placements).
  /// Probe ranks are monotonically non-decreasing, so runs of equal ranks
  /// — all 16 for objects smaller than the probe count — share one
  /// residency-bitset lookup. Normal placement mode only; the base
  /// builder handles the force-tier and hardware-cache modes.
  double SweepDramFraction(std::size_t object, double f0, double f1) const;
  /// One epoch: contention fixed point, task advancement, telemetry.
  void StepEpoch();
  /// A profiling interval boundary: the policy's OnInterval, then reset the
  /// oracle's interval counters and roll pending background traffic into
  /// the active rates.
  void EndInterval();
  /// Pull migration-engine activity into the rate-limited traffic queue.
  void CollectMigrationTraffic();
  void FinishRegion(const Region& region, double region_start);

  const Workload* workload_;
  MachineSpec machine_;
  SimConfig config_;
  PlacementPolicy* policy_;
  Rng rng_;

  std::unique_ptr<hm::PageTable> pages_;
  std::unique_ptr<hm::MigrationEngine> migration_;
  std::unique_ptr<AccessOracle> oracle_;
  std::unique_ptr<SimContext> ctx_;

  std::vector<ObjectId> handles_;
  std::vector<double> dram_weight_;   // heat-weighted DRAM fraction / object
  std::vector<double> hw_fraction_;   // hardware-cache mode fractions
  bool hw_cache_mode_ = false;
  EpochArena arena_;

  /// Bumped on every page move and hardware-fraction update; memoized
  /// bases referencing an older version are stale.
  std::uint64_t placement_version_ = 1;

  double t_ = 0;
  double interval_deadline_ = 0;
  std::size_t region_index_ = 0;
  std::vector<TaskRuntime> running_;
  std::size_t live_tasks_ = 0;        // not-done entries of running_

  std::vector<KernelTiming> timing_;  // per-task scratch, hoisted off StepEpoch
  std::vector<RegionStats> history_;
  std::vector<BandwidthSample> bandwidth_;

  EngineCounters counters_;
  /// Set by the fixed point when the final lambdas are bitwise the ones
  /// timing_ was last evaluated at (exact convergence), letting the
  /// advance pass reuse timing_[i] for each task's first slice.
  bool timing_at_final_lambda_ = false;

  double migration_queue_bytes_ = 0;
  double background_pm_rate_ = 0;    // bytes/s charged to PM
  double background_dram_rate_ = 0;  // bytes/s charged to DRAM
  double pending_background_pm_ = 0;
  double pending_background_dram_ = 0;
};

/// Convenience: run `workload` with every access served from `tier`
/// (capacity ignored). Returns per-region per-task stats — the source of
/// the T_pm_only / T_dram_only bounds in Eq. 2.
SimResult SimulateHomogeneous(const Workload& workload,
                              const MachineSpec& machine, hm::Tier tier,
                              SimConfig config = {});

}  // namespace merch::sim
