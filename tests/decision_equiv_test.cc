// Bit-identity contract of the decision path.
//
// Algorithm 1 has one production loop (core::RunGreedyAllocation), which
// probes Eq. 2 through the correlation function specialized on each
// task's PMCs. It is pinned to the independent reference below: the
// original per-round full-rescan loop with one scalar
// PerformanceModel::PredictHybrid call per probe, kept here verbatim.
// The tests check the partial forest specialization against the pointer
// walk, production against the reference on randomized inputs (including
// tied task times) and on every captured decision of the five
// applications, and the applications' end-to-end decisions against
// digests recorded before the decision path was collapsed to one loop.
// They carry the "perf" ctest label (`ctest -L perf`).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
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

const core::PerformanceModel& Model() {
  static const core::PerformanceModel kModel(&System().correlation());
  return kModel;
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

// --- Reference Algorithm 1 --------------------------------------------------

std::uint64_t MapToPages(double r, const core::GreedyTaskInput& task) {
  if (task.pages_for_access_fraction.empty()) {
    // Paper's even-distribution assumption (Algorithm 1, line 18).
    return static_cast<std::uint64_t>(
        std::ceil(r * static_cast<double>(task.footprint_pages)));
  }
  // Piecewise-linear interpolation of the density-ordered cost curve.
  const auto& curve = task.pages_for_access_fraction;
  double prev_f = 0, prev_p = 0;
  for (const auto& [f, p] : curve) {
    if (r <= f) {
      const double t = f > prev_f ? (r - prev_f) / (f - prev_f) : 1.0;
      return static_cast<std::uint64_t>(std::ceil(prev_p + t * (p - prev_p)));
    }
    prev_f = f;
    prev_p = p;
  }
  return static_cast<std::uint64_t>(std::ceil(prev_p));
}

/// The original decision loop: per-round full rescans and one scalar
/// model evaluation per probe.
core::GreedyResult RunGreedyRescan(std::span<const core::GreedyTaskInput> tasks,
                                   std::uint64_t dram_capacity_pages,
                                   const core::PerformanceModel& model,
                                   core::GreedyConfig config = {}) {
  const std::size_t n = tasks.size();
  core::GreedyResult result;
  result.dram_fraction.assign(n, 0.0);
  result.dram_pages.assign(n, 0);
  result.predicted_seconds.resize(n);
  if (n == 0) return result;

  // Lines 6-8: initialise allocations to zero, D' to the PM-only times.
  for (std::size_t i = 0; i < n; ++i) {
    result.predicted_seconds[i] = tasks[i].t_pm_only;
  }

  auto pages_used = [&]() {
    std::uint64_t sum = 0;
    for (const std::uint64_t p : result.dram_pages) sum += p;
    return sum;
  };

  for (int round = 0; round < config.max_rounds; ++round) {
    result.rounds = round + 1;

    // Line 10: longest task. Line 11: second-longest execution time.
    std::size_t longest = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (result.predicted_seconds[i] > result.predicted_seconds[longest]) {
        longest = i;
      }
    }
    double second = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != longest) second = std::max(second, result.predicted_seconds[i]);
    }
    if (n == 1) second = tasks[0].t_dram_only;  // single task: run to the bound

    if (result.dram_fraction[longest] >= 1.0 - 1e-9) {
      // The critical task is fully DRAM-resident; no placement decision can
      // shorten the makespan further.
      break;
    }

    // Lines 13-16: grow the longest task's DRAM accesses in `step`
    // increments until it is predicted to dip below the second-longest.
    double r = result.dram_fraction[longest];
    double predicted = result.predicted_seconds[longest];
    do {
      r = std::min(1.0, r + config.step);
      predicted = model.PredictHybrid(tasks[longest].t_pm_only,
                                      tasks[longest].t_dram_only,
                                      tasks[longest].pmcs, r);
    } while (predicted > second && r < 1.0 - 1e-9);

    // Lines 17-18: commit and map to a page budget.
    const std::uint64_t new_pages = MapToPages(r, tasks[longest]);

    // Line 19 (capacity guard): if this allocation overflows DRAM, claw the
    // increase back one step at a time until it fits, then stop.
    std::uint64_t others = pages_used() - result.dram_pages[longest];
    double fitted_r = r;
    std::uint64_t fitted_pages = new_pages;
    while (fitted_r > result.dram_fraction[longest] &&
           others + fitted_pages > dram_capacity_pages) {
      fitted_r = std::max(result.dram_fraction[longest], fitted_r - config.step);
      fitted_pages = MapToPages(fitted_r, tasks[longest]);
    }
    const bool capacity_hit = fitted_r < r - 1e-12;

    if (fitted_r <= result.dram_fraction[longest] + 1e-12 && capacity_hit) {
      break;  // no headroom at all
    }
    result.dram_fraction[longest] = fitted_r;
    result.dram_pages[longest] = fitted_pages;
    result.predicted_seconds[longest] = model.PredictHybrid(
        tasks[longest].t_pm_only, tasks[longest].t_dram_only,
        tasks[longest].pmcs, fitted_r);
    if (capacity_hit) break;

    bool all_full = true;
    for (const double rf : result.dram_fraction) {
      if (rf < 1.0 - 1e-9) {
        all_full = false;
        break;
      }
    }
    if (all_full) break;
  }
  return result;
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

// --- Production Algorithm 1 vs the reference -------------------------------

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
      // Duplicated predicted times exercise the argmax tie-break (strict
      // `>`: ties go to the lower index).
      if (i > 0 && rng() % 4 == 0) {
        t.t_pm_only = tasks[i - 1].t_pm_only;
        t.t_dram_only = tasks[i - 1].t_dram_only;
        t.pmcs = tasks[i - 1].pmcs;
      }
    }
    // Sweep capacity from starved through roomy to hit the claw-back,
    // capacity-stop, and saturation exits. The production loop runs twice
    // so the second pass probes through the correlation function's cached
    // specializations rather than its first-sight scalar fallback.
    for (const double frac : {0.05, 0.35, 1.0, 2.5}) {
      const auto capacity = static_cast<std::uint64_t>(
          frac * static_cast<double>(footprint_total));
      const core::GreedyResult reference =
          RunGreedyRescan(tasks, capacity, Model());
      for (int pass = 0; pass < 2; ++pass) {
        ExpectSameGreedy(
            core::RunGreedyAllocation(tasks, capacity, Model()), reference,
            "trial " + std::to_string(trial) + " capacity " +
                std::to_string(capacity) + " pass " + std::to_string(pass));
      }
    }
  }
}

// --- Full application decisions --------------------------------------------

std::vector<core::InstanceDecision> RunMerch(const apps::AppBundle& bundle) {
  const sim::MachineSpec machine = ScaledMachine();
  const auto policy = System().MakePolicy(bundle.workload, machine);
  sim::Engine engine(bundle.workload, machine, ScaledConfig(), policy.get());
  engine.Run();
  return policy->decisions();
}

/// 64-bit FNV-1a over the exact bits of every checked InstanceDecision
/// field, decision by decision: task ids, r_i, Eq. 2 predictions, both
/// homogeneous bounds, Eq. 1 access totals and the greedy round count.
class DecisionDigest {
 public:
  explicit DecisionDigest(const std::vector<core::InstanceDecision>& ds) {
    U64(ds.size());
    for (const core::InstanceDecision& d : ds) {
      U64(d.tasks.size());
      for (const TaskId t : d.tasks) U64(static_cast<std::uint64_t>(t));
      Doubles(d.dram_fraction);
      Doubles(d.predicted_seconds);
      Doubles(d.t_pm_only);
      Doubles(d.t_dram_only);
      Doubles(d.estimated_accesses);
      U64(static_cast<std::uint64_t>(d.greedy_rounds));
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  void Byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void Doubles(const std::vector<double>& v) {
    U64(v.size());
    for (const double d : v) U64(std::bit_cast<std::uint64_t>(d));
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct ReferenceRow {
  const char* app;
  std::uint64_t digest;
  std::size_t decisions;
};

/// Recorded at this file's scale, machine and training budget from the
/// decision path with scalar pointer-walk inference, the rescan greedy
/// and an unmemoized policy; the then-default heap greedy with flat-forest
/// inference and policy memos gave the same digests.
constexpr ReferenceRow kReference[] = {
    {"SpGEMM", 0xd85a112577219265ull, 4},
    {"WarpX", 0x6445824ba7b518f7ull, 4},
    {"BFS", 0x32792b96798b87dbull, 4},
    {"DMRG", 0xda4b97fb4958067full, 4},
    {"NWChem-TC", 0x96ad4b370a7cc7bfull, 4},
};

/// A failed row prints itself in table syntax, so a deliberate model
/// change is re-recorded by pasting the failures.
std::string FormatRow(const std::string& app, std::uint64_t digest,
                      std::size_t decisions) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "    {\"%s\", 0x%016llxull, %zu},",
                app.c_str(), static_cast<unsigned long long>(digest),
                decisions);
  return buf;
}

class DecisionEquivalence : public ::testing::TestWithParam<std::string> {};

/// Every captured Algorithm 1 call of a full Merchandiser run must replay
/// through the reference to the recorded outputs and to the production
/// loop's result, and the run's decisions must digest to the recorded row.
TEST_P(DecisionEquivalence, HeapRescanAndHatchesBitIdentical) {
  const std::string app = GetParam();
  const apps::AppBundle bundle = apps::BuildApp(app, kScale, kScale / 4);
  const std::vector<core::InstanceDecision> decisions = RunMerch(bundle);
  ASSERT_FALSE(decisions.empty());
  std::size_t replayed = 0;
  for (const core::InstanceDecision& d : decisions) {
    if (d.greedy_inputs.empty()) continue;
    const std::string label = app + " region " + std::to_string(d.region);
    SCOPED_TRACE(label);
    const core::GreedyResult reference =
        RunGreedyRescan(d.greedy_inputs, d.dram_capacity_pages, Model());
    EXPECT_EQ(reference.dram_fraction, d.dram_fraction);
    EXPECT_EQ(reference.predicted_seconds, d.predicted_seconds);
    EXPECT_EQ(reference.rounds, d.greedy_rounds);
    ExpectSameGreedy(core::RunGreedyAllocation(d.greedy_inputs,
                                               d.dram_capacity_pages, Model()),
                     reference, label);
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);

  const std::uint64_t digest = DecisionDigest(decisions).value();
  const std::string got = FormatRow(app, digest, decisions.size());
  const ReferenceRow* ref = nullptr;
  for (const ReferenceRow& row : kReference) {
    if (app == row.app) ref = &row;
  }
  ASSERT_NE(ref, nullptr) << "no reference row; this run:\n" << got;
  EXPECT_EQ(decisions.size(), ref->decisions) << got;
  EXPECT_EQ(digest, ref->digest) << got;
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
