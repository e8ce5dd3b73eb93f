// Bit-identity contract of the decision-path optimisations.
//
// The flattened SoA forest, the per-row partial specialization, the
// lazy-deletion heap greedy, and the policy decision memos are pure
// constant-factor changes: every prediction and every GreedyResult field
// must match the legacy paths exactly, double for double. These tests
// check randomized trained ensembles (flat walk and partial collapse vs
// the pointer walk), heap-vs-rescan Algorithm 1 equality on randomized
// synthetic inputs and on every captured decision of the five
// applications, and that the env escape hatches round-trip. They carry
// the "perf" ctest label (`ctest -L perf`).
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "core/greedy.h"
#include "core/merchandiser.h"
#include "ml/flat_forest.h"
#include "ml/forest.h"
#include "ml/gbr.h"
#include "sim/engine.h"
#include "workloads/training.h"

namespace merch {
namespace {

constexpr double kScale = 1.0 / 64;

sim::MachineSpec ScaledMachine() {
  sim::MachineSpec m = sim::MachineSpec::Paper();
  m.hm[hm::Tier::kDram].capacity_bytes = static_cast<std::uint64_t>(
      static_cast<double>(m.hm[hm::Tier::kDram].capacity_bytes) * kScale);
  m.hm[hm::Tier::kPm].capacity_bytes = static_cast<std::uint64_t>(
      static_cast<double>(m.hm[hm::Tier::kPm].capacity_bytes) * kScale);
  return m;
}

sim::SimConfig ScaledConfig() {
  sim::SimConfig cfg;
  cfg.epoch_seconds = 0.02;
  cfg.interval_seconds = 0.25;
  cfg.page_bytes = 512 * KiB;
  return cfg;
}

const core::MerchandiserSystem& System() {
  static const core::MerchandiserSystem* kSystem = [] {
    workloads::TrainingConfig cfg;
    cfg.num_regions = 12;
    cfg.placements_per_region = 4;
    return new core::MerchandiserSystem(core::MerchandiserSystem::Train(cfg));
  }();
  return *kSystem;
}

ml::Dataset RandomDataset(std::mt19937_64& rng, std::size_t rows,
                          std::size_t features) {
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  ml::Dataset data(features);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> x(features);
    for (double& v : x) v = u(rng);
    // A mildly nonlinear target so trees actually split on every feature.
    const double y = x[0] * x[0] - 2.0 * x[features / 2] + 0.25 * u(rng);
    data.Add(std::move(x), y);
  }
  return data;
}

// --- Flat forest vs pointer walk -------------------------------------------

/// PredictBatch (SoA flat forest) must be bitwise equal to the per-tree
/// pointer walk for randomized ensembles and rows, both one row at a time
/// and as a batch.
template <typename Model>
void CheckFlatAgainstScalar(Model& model, std::mt19937_64& rng,
                            std::size_t features) {
  std::uniform_real_distribution<double> u(-4.0, 4.0);
  constexpr std::size_t kRows = 64;
  std::vector<double> rows(kRows * features);
  for (double& v : rows) v = u(rng);
  std::vector<double> batched(kRows);
  model.PredictBatch(rows, features, batched);
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::span<const double> row(rows.data() + i * features, features);
    const double scalar = model.Predict(row);
    ASSERT_EQ(scalar, batched[i]) << "row " << i;
    double one = 0;
    model.PredictBatch(row, features, std::span<double>(&one, 1));
    ASSERT_EQ(scalar, one) << "row " << i;
  }
}

TEST(FlatForest, GbrBatchMatchesPointerWalkExactly) {
  std::mt19937_64 rng(11);
  for (const std::size_t features : {3u, 7u}) {
    ml::GbrConfig cfg;
    cfg.num_stages = 60;
    ml::GradientBoostedRegressor gbr(cfg, /*seed=*/rng());
    gbr.Fit(RandomDataset(rng, 300, features));
    CheckFlatAgainstScalar(gbr, rng, features);
  }
}

TEST(FlatForest, RfrBatchMatchesPointerWalkExactly) {
  std::mt19937_64 rng(13);
  for (const std::size_t features : {4u, 9u}) {
    ml::RandomForestRegressor rfr({}, /*seed=*/rng());
    rfr.Fit(RandomDataset(rng, 300, features));
    CheckFlatAgainstScalar(rfr, rng, features);
  }
}

/// The 4-lane walk's edge cases: a batch size that is not a multiple of
/// the lane width (the tail rows take the remainder path), NaN features
/// (x <= t is false, so the walk takes the right child — same as the
/// scalar comparison), and denormal features. The batched walk and the
/// one-row walk (PredictOne) must both be bitwise equal to the per-tree
/// pointer walk.
TEST(FlatForest, LaneBoundaryNanAndDenormalRowsMatchScalar) {
  std::mt19937_64 rng(17);
  constexpr std::size_t kFeatures = 5;
  ml::GbrConfig cfg;
  cfg.num_stages = 40;
  ml::GradientBoostedRegressor gbr(cfg, /*seed=*/rng());
  gbr.Fit(RandomDataset(rng, 250, kFeatures));

  std::uniform_real_distribution<double> u(-4.0, 4.0);
  constexpr std::size_t kRows = 7;  // 4-lane block + 3-row tail
  std::vector<double> rows(kRows * kFeatures);
  for (double& v : rows) v = u(rng);
  rows[1 * kFeatures + 2] = std::numeric_limits<double>::quiet_NaN();
  rows[3 * kFeatures + 0] = std::numeric_limits<double>::denorm_min();
  rows[4 * kFeatures + 1] = -std::numeric_limits<double>::denorm_min();
  rows[6 * kFeatures + 4] = std::numeric_limits<double>::quiet_NaN();

  const ml::FlatForest& forest = gbr.flat_forest();
  std::vector<double> batch(kRows);
  forest.PredictBatch(rows, kFeatures, batch);
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::span<const double> row(rows.data() + i * kFeatures, kFeatures);
    const double scalar = gbr.Predict(row);
    ASSERT_EQ(scalar, batch[i]) << "batch row " << i;
    ASSERT_EQ(scalar, forest.PredictOne(row)) << "one-row walk, row " << i;
  }
}

// --- Partial specialization vs full evaluation -----------------------------

/// Specialize(row, var) collapses the ensemble to a piecewise-constant
/// function of the free feature; its Predict(x) must be bitwise what the
/// full model returns for the row with row[var] = x — including x exactly
/// on split thresholds, where the `x <= t` tie decides the interval.
template <typename Model>
void CheckPartialAgainstFull(const Model& model, std::mt19937_64& rng,
                             std::size_t features) {
  std::uniform_real_distribution<double> u(-4.0, 4.0);
  for (std::size_t var = 0; var < features; ++var) {
    std::vector<double> row(features);
    for (double& v : row) v = u(rng);
    const auto partial = model.Specialize(row, var);
    ASSERT_NE(partial, nullptr);
    std::vector<double> probe_xs;
    for (int i = 0; i < 200; ++i) probe_xs.push_back(u(rng));
    // Exercise the interval boundaries themselves: every threshold the
    // ensemble tests against `var`, plus a value on either side.
    for (const double t : model.flat_forest().threshold) {
      probe_xs.push_back(t);
      probe_xs.push_back(std::nextafter(t, 100.0));
      probe_xs.push_back(std::nextafter(t, -100.0));
    }
    for (const double x : probe_xs) {
      row[var] = x;
      ASSERT_EQ(partial->Predict(x), model.Predict(row))
          << "var " << var << " x " << x;
    }
  }
}

TEST(FlatForestPartial, GbrSpecializationIsExact) {
  std::mt19937_64 rng(17);
  ml::GbrConfig cfg;
  cfg.num_stages = 40;
  ml::GradientBoostedRegressor gbr(cfg, 23);
  gbr.Fit(RandomDataset(rng, 250, 5));
  CheckPartialAgainstFull(gbr, rng, 5);
}

TEST(FlatForestPartial, RfrSpecializationIsExact) {
  std::mt19937_64 rng(19);
  ml::RandomForestRegressor rfr({}, 29);
  rfr.Fit(RandomDataset(rng, 250, 6));
  CheckPartialAgainstFull(rfr, rng, 6);
}

TEST(FlatForestPartial, EscapeHatchDisablesSpecialization) {
  std::mt19937_64 rng(23);
  ml::GradientBoostedRegressor gbr({}, 31);
  gbr.Fit(RandomDataset(rng, 100, 4));
  setenv("MERCH_FLAT_FOREST", "0", 1);
  EXPECT_EQ(gbr.Specialize(std::vector<double>(4, 0.5), 3), nullptr);
  unsetenv("MERCH_FLAT_FOREST");
  EXPECT_NE(gbr.Specialize(std::vector<double>(4, 0.5), 3), nullptr);
}

// --- Heap greedy vs rescan -------------------------------------------------

void ExpectSameGreedy(const core::GreedyResult& a, const core::GreedyResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.dram_fraction.size(), b.dram_fraction.size());
  for (std::size_t i = 0; i < a.dram_fraction.size(); ++i) {
    EXPECT_EQ(a.dram_fraction[i], b.dram_fraction[i]) << "task " << i;
    EXPECT_EQ(a.dram_pages[i], b.dram_pages[i]) << "task " << i;
    EXPECT_EQ(a.predicted_seconds[i], b.predicted_seconds[i]) << "task " << i;
  }
  EXPECT_EQ(a.rounds, b.rounds);
}

core::GreedyResult RunVariant(std::span<const core::GreedyTaskInput> tasks,
                              std::uint64_t capacity, bool incremental) {
  static const core::PerformanceModel kModel(&System().correlation());
  core::GreedyConfig cfg;
  cfg.incremental = incremental;
  return core::RunGreedyAllocation(tasks, capacity, kModel, cfg);
}

TEST(GreedyEquivalence, RandomizedInputsMatchExactly) {
  std::mt19937_64 rng(0xA11CE);
  const auto samples = workloads::GenerateTrainingSamples({
      .num_regions = 4,
  });
  std::uniform_real_distribution<double> ud(0.0, 1.0);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng() % 14;
    std::vector<core::GreedyTaskInput> tasks(n);
    std::uint64_t footprint_total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      core::GreedyTaskInput& t = tasks[i];
      t.task = static_cast<TaskId>(i);
      t.t_dram_only = 0.1 + 2.0 * ud(rng);
      t.t_pm_only = t.t_dram_only * (1.0 + 3.0 * ud(rng));
      t.pmcs = samples[rng() % samples.size()].pmcs;
      t.total_accesses = 1e6 * (0.5 + ud(rng));
      t.footprint_pages = 64 + rng() % 4096;
      footprint_total += t.footprint_pages;
      if (rng() % 2) {
        // Piecewise page-cost curve with increasing breakpoints.
        double f = 0, p = 0;
        while (f < 0.95) {
          f += 0.1 + 0.3 * ud(rng);
          p += static_cast<double>(t.footprint_pages) * (0.05 + 0.4 * ud(rng));
          t.pages_for_access_fraction.emplace_back(std::min(f, 1.0), p);
        }
      }
      // Duplicated predicted times exercise the heap's index tie-break
      // against the rescan's strict-> argmax.
      if (i > 0 && rng() % 4 == 0) {
        t.t_pm_only = tasks[i - 1].t_pm_only;
        t.t_dram_only = tasks[i - 1].t_dram_only;
        t.pmcs = tasks[i - 1].pmcs;
      }
    }
    // Sweep capacity from starved through roomy to hit the claw-back,
    // capacity-stop, and saturation exits.
    for (const double frac : {0.05, 0.35, 1.0, 2.5}) {
      const auto capacity = static_cast<std::uint64_t>(
          frac * static_cast<double>(footprint_total));
      ExpectSameGreedy(RunVariant(tasks, capacity, true),
                       RunVariant(tasks, capacity, false),
                       "trial " + std::to_string(trial) + " capacity " +
                           std::to_string(capacity));
    }
  }
}

TEST(GreedyEquivalence, EnvHatchForcesRescan) {
  const auto samples = workloads::GenerateTrainingSamples({.num_regions = 4});
  std::vector<core::GreedyTaskInput> tasks(3);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].task = static_cast<TaskId>(i);
    tasks[i].t_dram_only = 0.5 + 0.2 * static_cast<double>(i);
    tasks[i].t_pm_only = 2.0 + 0.3 * static_cast<double>(i);
    tasks[i].pmcs = samples[i].pmcs;
    tasks[i].total_accesses = 1e6;
    tasks[i].footprint_pages = 1024;
  }
  const core::GreedyResult heap = RunVariant(tasks, 2048, true);
  setenv("MERCH_GREEDY_HEAP", "0", 1);
  // config.incremental=true is overridden by the hatch; the result must
  // still be identical because the implementations are bit-equal.
  const core::GreedyResult forced = RunVariant(tasks, 2048, true);
  unsetenv("MERCH_GREEDY_HEAP");
  ExpectSameGreedy(heap, forced, "MERCH_GREEDY_HEAP=0");
  ExpectSameGreedy(heap, RunVariant(tasks, 2048, true), "hatch unset");
}

// --- Full application decisions --------------------------------------------

std::vector<core::InstanceDecision> RunMerch(const apps::AppBundle& bundle) {
  const sim::MachineSpec machine = ScaledMachine();
  const auto policy = System().MakePolicy(bundle.workload, machine);
  sim::Engine engine(bundle.workload, machine, ScaledConfig(), policy.get());
  engine.Run();
  return policy->decisions();
}

void ExpectSameDecisions(const std::vector<core::InstanceDecision>& a,
                         const std::vector<core::InstanceDecision>& b,
                         const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tasks, b[i].tasks);
    EXPECT_EQ(a[i].dram_fraction, b[i].dram_fraction);
    EXPECT_EQ(a[i].predicted_seconds, b[i].predicted_seconds);
    EXPECT_EQ(a[i].t_pm_only, b[i].t_pm_only);
    EXPECT_EQ(a[i].t_dram_only, b[i].t_dram_only);
    EXPECT_EQ(a[i].estimated_accesses, b[i].estimated_accesses);
    EXPECT_EQ(a[i].greedy_rounds, b[i].greedy_rounds);
  }
}

class DecisionEquivalence : public ::testing::TestWithParam<std::string> {};

/// Every captured Algorithm 1 call of a full Merchandiser run must replay
/// to the identical GreedyResult under both implementations, and the
/// end-to-end decisions must be identical with every decision-path
/// optimisation disabled through the env hatches.
TEST_P(DecisionEquivalence, HeapRescanAndHatchesBitIdentical) {
  const apps::AppBundle bundle = apps::BuildApp(GetParam(), kScale, kScale / 4);
  const std::vector<core::InstanceDecision> baseline = RunMerch(bundle);
  ASSERT_FALSE(baseline.empty());
  std::size_t replayed = 0;
  for (const core::InstanceDecision& d : baseline) {
    if (d.greedy_inputs.empty()) continue;
    ExpectSameGreedy(
        RunVariant(d.greedy_inputs, d.dram_capacity_pages, true),
        RunVariant(d.greedy_inputs, d.dram_capacity_pages, false),
        GetParam() + " region " + std::to_string(d.region));
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);

  setenv("MERCH_FLAT_FOREST", "0", 1);
  setenv("MERCH_GREEDY_HEAP", "0", 1);
  setenv("MERCH_POLICY_MEMO", "0", 1);
  const std::vector<core::InstanceDecision> legacy = RunMerch(bundle);
  unsetenv("MERCH_FLAT_FOREST");
  unsetenv("MERCH_GREEDY_HEAP");
  unsetenv("MERCH_POLICY_MEMO");
  ExpectSameDecisions(baseline, legacy, GetParam() + " legacy env");
  ExpectSameDecisions(baseline, RunMerch(bundle),
                      GetParam() + " hatches unset");
}

INSTANTIATE_TEST_SUITE_P(AllApps, DecisionEquivalence,
                         ::testing::ValuesIn(apps::AppNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace merch
