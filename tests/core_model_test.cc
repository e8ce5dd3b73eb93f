// Tests for the performance model (Eq. 2), correlation function training,
// homogeneous predictor (Section 5.2), and the user-facing API.
#include <gtest/gtest.h>

#include "apps/registry.h"
#include "core/api.h"
#include "core/correlation.h"
#include "core/homogeneous.h"
#include "core/perf_model.h"
#include "sim/engine.h"
#include "workloads/training.h"

namespace merch::core {
namespace {

workloads::TrainingConfig SmallTraining() {
  workloads::TrainingConfig cfg;
  cfg.num_regions = 40;
  cfg.placements_per_region = 6;
  return cfg;
}

const std::vector<workloads::TrainingSample>& SharedSamples() {
  static const auto* kSamples = new std::vector<workloads::TrainingSample>(
      workloads::GenerateTrainingSamples(SmallTraining()));
  return *kSamples;
}

TEST(Correlation, TrainsWithUsableAccuracy) {
  CorrelationFunction f;
  f.Train(SharedSamples());
  EXPECT_TRUE(f.trained());
  EXPECT_GT(f.test_r2(), 0.4);
}

TEST(Correlation, PaperEventsAreTheDefault) {
  CorrelationFunction f;
  EXPECT_EQ(f.events(), CorrelationFunction::PaperEvents());
  EXPECT_EQ(f.events().size(), 8u);
  EXPECT_EQ(f.events()[0], static_cast<std::size_t>(sim::kLlcMpki));
}

TEST(Correlation, EvaluationBounded) {
  CorrelationFunction f;
  f.Train(SharedSamples());
  sim::EventVector pmcs{};
  for (auto& e : pmcs) e = 0.5;
  for (const double r : {0.0, 0.3, 0.7, 1.0}) {
    const double v = f.Evaluate(pmcs, r);
    EXPECT_GE(v, 0.05);
    EXPECT_LE(v, 5.0);
  }
}

TEST(Correlation, DifferentModelKinds) {
  CorrelationFunction::Config cfg;
  cfg.model_kind = "DTR";
  CorrelationFunction f(cfg);
  f.Train(SharedSamples());
  EXPECT_TRUE(f.trained());
  EXPECT_EQ(f.model_kind(), "DTR");
}

TEST(PerfModel, BoundaryBehaviour) {
  CorrelationFunction f;
  f.Train(SharedSamples());
  PerformanceModel model(&f);
  sim::EventVector pmcs{};
  // r = 1: exactly the DRAM bound.
  EXPECT_DOUBLE_EQ(model.PredictHybrid(10.0, 4.0, pmcs, 1.0), 4.0);
  // Predictions never leave [t_dram, t_pm] (Section 5 rationale 1).
  for (const double r : {0.0, 0.25, 0.5, 0.75}) {
    const double t = model.PredictHybrid(10.0, 4.0, pmcs, r);
    EXPECT_GE(t, 4.0);
    EXPECT_LE(t, 10.0);
  }
}

TEST(PerfModel, MonotoneInR) {
  CorrelationFunction f;
  f.Train(SharedSamples());
  PerformanceModel model(&f);
  sim::EventVector pmcs{};
  for (auto& e : pmcs) e = 0.4;
  double prev = 1e18;
  for (const double r : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    const double t = model.PredictHybrid(10.0, 4.0, pmcs, r);
    EXPECT_LE(t, prev + 0.8) << "r=" << r;  // loose monotonicity (learned f)
    prev = t;
  }
}

TEST(PerfModel, ProfilingRegressionBaseline) {
  EXPECT_DOUBLE_EQ(ProfilingRegressionPredict(10.0, 100.0, 200.0), 20.0);
  EXPECT_DOUBLE_EQ(ProfilingRegressionPredict(10.0, 0.0, 200.0), 10.0);
}

TEST(TrainingData, SamplesHaveSaneTargets) {
  const auto& samples = SharedSamples();
  ASSERT_GT(samples.size(), 100u);
  for (const auto& s : samples) {
    EXPECT_GE(s.r_dram, 0.0);
    EXPECT_LE(s.r_dram, 1.0);
    EXPECT_GT(s.f_target, -1.0);
    EXPECT_LT(s.f_target, 10.0);
  }
}

TEST(TrainingData, FeatureLayoutAppendsR) {
  sim::EventVector pmcs{};
  pmcs[0] = 7.0;
  const auto row = workloads::MakeFeatureRow(pmcs, 0.42);
  ASSERT_EQ(row.size(), sim::kNumPmcEvents + 1);
  EXPECT_DOUBLE_EQ(row[0], 7.0);
  EXPECT_DOUBLE_EQ(row.back(), 0.42);
  const std::vector<std::size_t> subset = {2, 5};
  const auto short_row = workloads::MakeFeatureRow(pmcs, 0.42, subset);
  ASSERT_EQ(short_row.size(), 3u);
}

// -------------------------------------------------- Homogeneous predictor

sim::Workload TwoRegionWorkload() {
  sim::Workload w;
  w.name = "hp";
  w.objects.push_back(
      sim::ObjectDecl{.name = "x", .bytes = 2 * GiB, .owner = 0});
  for (int r = 0; r < 2; ++r) {
    sim::Kernel k;
    k.name = "k";
    k.instructions = 10000000;
    trace::ObjectAccess a;
    a.object = 0;
    a.pattern = trace::AccessPattern::kRandom;
    a.program_accesses = r == 0 ? 40000000 : 80000000;  // new input = 2x
    k.accesses.push_back(a);
    sim::Region region;
    region.name = "r" + std::to_string(r);
    region.tasks.push_back(sim::TaskProgram{.task = 0, .kernels = {k}});
    region.active_bytes = {r == 0 ? 1 * GiB : 2 * GiB};
    w.regions.push_back(region);
  }
  return w;
}

TEST(HomogeneousPredictor, ExactOnBaseInput) {
  const sim::Workload w = TwoRegionWorkload();
  const sim::MachineSpec machine = sim::MachineSpec::Paper();
  const HomogeneousPredictor hp = HomogeneousPredictor::Prepare(w, machine);
  ASSERT_TRUE(hp.prepared());
  sim::SimConfig cfg;
  cfg.interval_seconds = 1e9;
  const auto pm = sim::SimulateHomogeneous(w, machine, hm::Tier::kPm, cfg);
  const double predicted =
      hp.Predict(0, hm::Tier::kPm, w.regions[0].active_bytes);
  EXPECT_NEAR(predicted, pm.regions[0].tasks[0].exec_seconds,
              0.1 * pm.regions[0].tasks[0].exec_seconds + 0.05);
}

TEST(HomogeneousPredictor, ScalesWithInputSize) {
  const sim::Workload w = TwoRegionWorkload();
  const HomogeneousPredictor hp =
      HomogeneousPredictor::Prepare(w, sim::MachineSpec::Paper());
  const double base = hp.Predict(0, hm::Tier::kPm, {1 * GiB});
  const double doubled = hp.Predict(0, hm::Tier::kPm, {2 * GiB});
  EXPECT_NEAR(doubled, 2.0 * base, 0.05 * base);
}

TEST(HomogeneousPredictor, DramPredictionFaster) {
  const sim::Workload w = TwoRegionWorkload();
  const HomogeneousPredictor hp =
      HomogeneousPredictor::Prepare(w, sim::MachineSpec::Paper());
  EXPECT_LT(hp.Predict(0, hm::Tier::kDram, {1 * GiB}),
            hp.Predict(0, hm::Tier::kPm, {1 * GiB}));
}

// Prepare widens PM capacity for its bound runs; that is sound only if a
// forced tier's kernel times do not depend on where pages sit or on their
// size.
TEST(HomogeneousPredictor, ForcedTierTimesIgnorePlacementAndPageSize) {
  const apps::AppBundle bundle = apps::BuildApp("DMRG", 0.02, 0.05);
  sim::Workload base = bundle.workload;
  base.regions.resize(1);
  const sim::MachineSpec paper = sim::MachineSpec::Paper();
  sim::MachineSpec no_pm = paper;  // every object spills to DRAM
  no_pm.hm[hm::Tier::kPm].capacity_bytes = 0;
  sim::SimConfig big;
  big.interval_seconds = 1e9;
  sim::SimConfig small = big;
  small.page_bytes = 64 * KiB;
  for (const hm::Tier tier : {hm::Tier::kPm, hm::Tier::kDram}) {
    const auto ref = sim::SimulateHomogeneous(base, paper, tier, big);
    const auto spilled = sim::SimulateHomogeneous(base, no_pm, tier, big);
    const auto paged = sim::SimulateHomogeneous(base, paper, tier, small);
    ASSERT_FALSE(ref.regions.at(0).tasks.empty());
    for (std::size_t t = 0; t < ref.regions[0].tasks.size(); ++t) {
      const auto& want = ref.regions[0].tasks[t].kernel_seconds;
      EXPECT_EQ(spilled.regions.at(0).tasks.at(t).kernel_seconds, want);
      EXPECT_EQ(paged.regions.at(0).tasks.at(t).kernel_seconds, want);
    }
  }
}

TEST(HomogeneousPredictor, PreparesOnAMachineTooSmallForTheWorkload) {
  const sim::Workload w = TwoRegionWorkload();
  sim::MachineSpec tiny = sim::MachineSpec::Paper();
  tiny.hm[hm::Tier::kDram].capacity_bytes = 1 * MiB;
  tiny.hm[hm::Tier::kPm].capacity_bytes = 1 * MiB;
  const HomogeneousPredictor roomy =
      HomogeneousPredictor::Prepare(w, sim::MachineSpec::Paper());
  const HomogeneousPredictor cramped = HomogeneousPredictor::Prepare(w, tiny);
  ASSERT_TRUE(cramped.prepared());
  for (const hm::Tier tier : {hm::Tier::kPm, hm::Tier::kDram}) {
    EXPECT_EQ(cramped.Predict(0, tier, {1 * GiB}),
              roomy.Predict(0, tier, {1 * GiB}));
  }
}

TEST(HomogeneousPredictor, UnknownTaskGivesZero) {
  const sim::Workload w = TwoRegionWorkload();
  const HomogeneousPredictor hp =
      HomogeneousPredictor::Prepare(w, sim::MachineSpec::Paper());
  EXPECT_EQ(hp.Predict(99, hm::Tier::kPm, {1 * GiB}), 0.0);
}

TEST(SimilarityScale, SameDirectionIsSizeRatio) {
  EXPECT_NEAR(SimilarityScale({100, 200}, {200, 400}), 2.0, 1e-9);
  EXPECT_NEAR(SimilarityScale({100, 200}, {100, 200}), 1.0, 1e-9);
}

TEST(SimilarityScale, OrthogonalShrinksToZero) {
  EXPECT_NEAR(SimilarityScale({100, 0}, {0, 100}), 0.0, 1e-9);
}

// --------------------------------------------------------------- User API

TEST(Api, RegisterAndLookup) {
  HmConfigRegistry reg;
  int a = 0, b = 0;
  const ObjectId ia = reg.Register(&a, 4096, "a");
  const ObjectId ib = reg.Register(&b, 8192);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.Find(&a), ia);
  EXPECT_EQ(reg.Find(&b), ib);
  EXPECT_EQ(reg.Find(nullptr), kInvalidObject);
  EXPECT_EQ(reg.object(ia).label, "a");
}

TEST(Api, ReRegisterUpdatesSize) {
  HmConfigRegistry reg;
  int a = 0;
  const ObjectId ia = reg.Register(&a, 4096);
  const ObjectId again = reg.Register(&a, 16384);
  EXPECT_EQ(ia, again);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.object(ia).bytes, 16384u);
  EXPECT_EQ(reg.SizeVector(), std::vector<std::uint64_t>{16384});
}

TEST(Api, CStyleEntryPoint) {
  auto& global = HmConfigRegistry::Global();
  global.Clear();
  int x = 0, y = 0;
  void* objects[] = {&x, &y};
  const long long sizes[] = {100, 200};
  void* handle = LB_HM_config(objects, sizes, 2);
  EXPECT_EQ(handle, &global);
  EXPECT_EQ(global.size(), 2u);
  EXPECT_EQ(global.object(0).bytes, 100u);
  global.Clear();
}

}  // namespace
}  // namespace merch::core
