// Tests for the five application workload builders: structural validity,
// footprints near the paper's Table 2 sizes, Table 1 access patterns, and
// the presence/absence of application-inherent load imbalance.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <thread>

#include "apps/bfs.h"
#include "apps/registry.h"
#include "apps/spgemm.h"
#include "core/pattern_classifier.h"

namespace merch::apps {
namespace {

using trace::AccessPattern;

constexpr double kScale = 1.0 / 64;  // fast test-size footprints

AppBundle& Bundle(const std::string& name) {
  static std::map<std::string, AppBundle>* cache =
      new std::map<std::string, AppBundle>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    it = cache->emplace(name, BuildApp(name, kScale, kScale)).first;
  }
  return it->second;
}

class AppBundleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AppBundleTest, WorkloadValidates) {
  const AppBundle& b = Bundle(GetParam());
  EXPECT_EQ(b.workload.Validate(), "");
  EXPECT_EQ(b.workload.name, GetParam());
}

TEST_P(AppBundleTest, HasMultipleInstancesAndTasks) {
  const AppBundle& b = Bundle(GetParam());
  EXPECT_GE(b.workload.regions.size(), 4u);  // base + >=3 new inputs
  EXPECT_GE(b.workload.TaskIds().size(), 6u);
  // Every region runs every task (task-parallel instances).
  for (const auto& region : b.workload.regions) {
    EXPECT_EQ(region.tasks.size(), b.workload.TaskIds().size());
  }
}

TEST_P(AppBundleTest, FootprintNearTable2Target) {
  const AppBundle& b = Bundle(GetParam());
  const std::map<std::string, double> target_gib = {
      {"SpGEMM", 429.3}, {"WarpX", 1056.0}, {"BFS", 731.9},
      {"DMRG", 1271.0},  {"NWChem-TC", 308.1}};
  const double expected = target_gib.at(GetParam()) * kScale;
  const double actual =
      static_cast<double>(b.workload.TotalBytes()) / (1024.0 * 1024 * 1024);
  EXPECT_NEAR(actual, expected, expected * 0.1) << GetParam();
}

TEST_P(AppBundleTest, TaskIrsCoverAllTasks) {
  const AppBundle& b = Bundle(GetParam());
  EXPECT_EQ(b.task_irs.size(), b.workload.TaskIds().size());
}

TEST_P(AppBundleTest, ActiveBytesWithinAllocation) {
  const AppBundle& b = Bundle(GetParam());
  for (const auto& region : b.workload.regions) {
    ASSERT_EQ(region.active_bytes.size(), b.workload.objects.size());
    for (std::size_t o = 0; o < region.active_bytes.size(); ++o) {
      EXPECT_LE(region.active_bytes[o], b.workload.objects[o].bytes);
    }
  }
}

TEST_P(AppBundleTest, InputsVaryAcrossInstances) {
  const AppBundle& b = Bundle(GetParam());
  // At least one object's active size (or one task's access count) must
  // change between instances — the "new input" premise of Eq. 1.
  bool varies = false;
  const auto& r0 = b.workload.regions.front();
  for (const auto& region : b.workload.regions) {
    if (region.active_bytes != r0.active_bytes) varies = true;
  }
  if (!varies) {
    for (std::size_t t = 0; t < r0.tasks.size() && !varies; ++t) {
      const auto& k0 = r0.tasks[t].kernels;
      const auto& k1 = b.workload.regions[1].tasks[t].kernels;
      for (std::size_t k = 0; k < k0.size() && !varies; ++k) {
        for (std::size_t a = 0; a < k0[k].accesses.size(); ++a) {
          if (k0[k].accesses[a].program_accesses !=
              k1[k].accesses[a].program_accesses) {
            varies = true;
            break;
          }
        }
      }
    }
  }
  EXPECT_TRUE(varies) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppBundleTest,
                         ::testing::ValuesIn(AppNames()));

// ---------------------------------------------------- Table 1 patterns

std::set<AccessPattern> PatternsOf(const AppBundle& b) {
  std::set<AccessPattern> out;
  for (const core::TaskIr& ir : b.task_irs) {
    const auto per_object =
        core::ClassifyTask(ir, b.workload.objects.size());
    for (const sim::Region& region : {b.workload.regions.front()}) {
      (void)region;
    }
    for (const auto& loop : ir.loops) {
      for (const auto& ref : loop.refs) {
        out.insert(per_object[ref.object]);
        if (ref.subscript.kind == core::Subscript::Kind::kIndirect &&
            ref.subscript.index_object != SIZE_MAX) {
          out.insert(per_object[ref.subscript.index_object]);
        }
      }
    }
  }
  return out;
}

TEST(Table1, SpGemmHasStreamAndRandom) {
  const auto p = PatternsOf(Bundle("SpGEMM"));
  EXPECT_TRUE(p.count(AccessPattern::kStream));
  // Gather through A's columns into B -> random; accumulator is opaque.
  EXPECT_TRUE(p.count(AccessPattern::kRandom) ||
              p.count(AccessPattern::kUnknown));
}

TEST(Table1, WarpxHasStridedAndStencil) {
  const auto p = PatternsOf(Bundle("WarpX"));
  EXPECT_TRUE(p.count(AccessPattern::kStrided));
  EXPECT_TRUE(p.count(AccessPattern::kStencil));
}

TEST(Table1, BfsHasStreamAndRandom) {
  const auto p = PatternsOf(Bundle("BFS"));
  EXPECT_TRUE(p.count(AccessPattern::kStream));
  EXPECT_TRUE(p.count(AccessPattern::kRandom));
}

TEST(Table1, DmrgHasStreamAndStrided) {
  const auto p = PatternsOf(Bundle("DMRG"));
  EXPECT_TRUE(p.count(AccessPattern::kStream));
  EXPECT_TRUE(p.count(AccessPattern::kStrided));
  // DMRG is regular: no random accesses anywhere.
  EXPECT_FALSE(p.count(AccessPattern::kRandom));
}

TEST(Table1, NwchemHasStreamAndRandomish) {
  const auto p = PatternsOf(Bundle("NWChem-TC"));
  EXPECT_TRUE(p.count(AccessPattern::kStream));
  EXPECT_TRUE(p.count(AccessPattern::kRandom) ||
              p.count(AccessPattern::kUnknown));
}

// ------------------------------------------- inherent imbalance structure

double WorkImbalance(const AppBundle& b) {
  // Max/mean of per-task program accesses in the base region.
  const auto& region = b.workload.regions.front();
  std::vector<double> work;
  for (const auto& tp : region.tasks) {
    double w = 0;
    for (const auto& k : tp.kernels) {
      for (const auto& a : k.accesses) {
        w += static_cast<double>(a.program_accesses);
      }
    }
    work.push_back(w);
  }
  double mean = 0, max = 0;
  for (const double w : work) {
    mean += w;
    max = std::max(max, w);
  }
  mean /= static_cast<double>(work.size());
  return max / mean;
}

TEST(Imbalance, SparseAppsAreSkewed) {
  // Paper Section 7.2: SpGEMM/BFS/NWChem-TC carry app-inherent imbalance.
  EXPECT_GT(WorkImbalance(Bundle("SpGEMM")), 1.1);
  EXPECT_GT(WorkImbalance(Bundle("BFS")), 1.1);
  EXPECT_GT(WorkImbalance(Bundle("NWChem-TC")), 1.05);
}

TEST(Imbalance, WarpxIsBalanced) {
  // Paper: "WarpX and DMRG do not have such load imbalance caused by
  // themselves."
  EXPECT_LT(WorkImbalance(Bundle("WarpX")), 1.1);
}

TEST(Apps, SpartaPriorityOnlyForSpGemm) {
  EXPECT_FALSE(Bundle("SpGEMM").sparta_priority.empty());
  EXPECT_TRUE(Bundle("DMRG").sparta_priority.empty());
}

TEST(Apps, LifetimePriorityOnlyForWarpx) {
  const auto& warpx = Bundle("WarpX");
  EXPECT_EQ(warpx.lifetime_priority.size(), warpx.workload.regions.size());
  EXPECT_TRUE(Bundle("BFS").lifetime_priority.empty());
}

std::uint64_t Bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// Field-by-field equality of two bundles, doubles compared by their bits.
void ExpectSameBundle(const AppBundle& a, const AppBundle& b) {
  const sim::Workload& x = a.workload;
  const sim::Workload& y = b.workload;
  EXPECT_EQ(x.name, y.name);
  ASSERT_EQ(x.objects.size(), y.objects.size());
  for (std::size_t i = 0; i < x.objects.size(); ++i) {
    EXPECT_EQ(x.objects[i].name, y.objects[i].name);
    EXPECT_EQ(x.objects[i].bytes, y.objects[i].bytes) << x.objects[i].name;
    EXPECT_EQ(x.objects[i].owner, y.objects[i].owner);
    EXPECT_EQ(x.objects[i].heat.kind(), y.objects[i].heat.kind());
    EXPECT_EQ(Bits(x.objects[i].heat.exponent()),
              Bits(y.objects[i].heat.exponent()));
    EXPECT_EQ(Bits(x.objects[i].reuse_passes), Bits(y.objects[i].reuse_passes));
  }
  ASSERT_EQ(x.regions.size(), y.regions.size());
  for (std::size_t r = 0; r < x.regions.size(); ++r) {
    const sim::Region& rx = x.regions[r];
    const sim::Region& ry = y.regions[r];
    EXPECT_EQ(rx.name, ry.name);
    EXPECT_EQ(rx.active_bytes, ry.active_bytes) << rx.name;
    ASSERT_EQ(rx.tasks.size(), ry.tasks.size());
    for (std::size_t t = 0; t < rx.tasks.size(); ++t) {
      EXPECT_EQ(rx.tasks[t].task, ry.tasks[t].task);
      const auto& kx = rx.tasks[t].kernels;
      const auto& ky = ry.tasks[t].kernels;
      ASSERT_EQ(kx.size(), ky.size());
      for (std::size_t k = 0; k < kx.size(); ++k) {
        EXPECT_EQ(kx[k].name, ky[k].name);
        EXPECT_EQ(kx[k].instructions, ky[k].instructions);
        EXPECT_EQ(Bits(kx[k].branch_fraction), Bits(ky[k].branch_fraction));
        EXPECT_EQ(Bits(kx[k].vector_fraction), Bits(ky[k].vector_fraction));
        ASSERT_EQ(kx[k].accesses.size(), ky[k].accesses.size());
        for (std::size_t i = 0; i < kx[k].accesses.size(); ++i) {
          const trace::ObjectAccess& ax = kx[k].accesses[i];
          const trace::ObjectAccess& ay = ky[k].accesses[i];
          EXPECT_EQ(ax.object, ay.object);
          EXPECT_EQ(ax.pattern, ay.pattern);
          EXPECT_EQ(ax.program_accesses, ay.program_accesses);
          EXPECT_EQ(ax.element_bytes, ay.element_bytes);
          EXPECT_EQ(ax.stride_elements, ay.stride_elements);
          EXPECT_EQ(Bits(ax.read_fraction), Bits(ay.read_fraction));
        }
      }
    }
  }
  ASSERT_EQ(a.task_irs.size(), b.task_irs.size());
  for (std::size_t t = 0; t < a.task_irs.size(); ++t) {
    ASSERT_EQ(a.task_irs[t].loops.size(), b.task_irs[t].loops.size());
    for (std::size_t l = 0; l < a.task_irs[t].loops.size(); ++l) {
      EXPECT_EQ(a.task_irs[t].loops[l].trip_count,
                b.task_irs[t].loops[l].trip_count);
    }
  }
  EXPECT_EQ(a.sparta_priority, b.sparta_priority);
}

/// BuildApp shares each app's base measurement across the process. Builds
/// from four threads at once, then serial ones, must equal builds scaled
/// from a measurement taken without the memo.
TEST(AppsMemo, SharedMeasurementGivesTheUnsharedBuild) {
  const std::vector<double> scales = {1.0, 0.5, 1e-3};
  const BfsMeasurement bfs = MeasureBfs(BfsConfig{});
  const SpGemmMeasurement spgemm = MeasureSpGemm(SpGemmConfig{});
  std::map<std::pair<std::string, double>, AppBundle> want;
  for (const double s : scales) {
    BfsConfig b;
    b.target_bytes = static_cast<std::uint64_t>(
        static_cast<double>(b.target_bytes) * s);
    b.busiest_task_accesses *= s;
    want.emplace(std::make_pair("BFS", s), ScaleBfs(b, bfs));
    SpGemmConfig g;
    g.target_bytes = static_cast<std::uint64_t>(
        static_cast<double>(g.target_bytes) * s);
    g.busiest_task_accesses *= s;
    want.emplace(std::make_pair("SpGEMM", s), ScaleSpGemm(g, spgemm));
  }

  constexpr int kThreads = 4;
  std::vector<std::map<std::pair<std::string, double>, AppBundle>> got(
      kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Alternate the app order so both memo entries see concurrent
      // first callers.
      for (int j = 0; j < 2; ++j) {
        const std::string app = (i + j) % 2 == 0 ? "BFS" : "SpGEMM";
        for (const double s : scales) {
          got[i].emplace(std::make_pair(app, s), BuildApp(app, s, s));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    for (const auto& [key, bundle] : want) {
      SCOPED_TRACE(key.first + " scale " + std::to_string(key.second) +
                   " thread " + std::to_string(i));
      ExpectSameBundle(got[i].at(key), bundle);
    }
  }
  for (const auto& [key, bundle] : want) {
    SCOPED_TRACE(key.first + " scale " + std::to_string(key.second));
    ExpectSameBundle(BuildApp(key.first, key.second, key.second), bundle);
  }
}

TEST(Apps, UnknownNameThrows) {
  EXPECT_THROW(BuildApp("NotAnApp"), std::invalid_argument);
}

}  // namespace
}  // namespace merch::apps
