// Bit-identity contract of the simulation engine.
//
// The engine has one path: memoized, lane-structured timing bases over the
// page table's residency index. Its results are pinned to a reference
// recorded from the unmemoized engine with linear page and extent scans
// (a full per-access re-timing on every evaluation), which the engine
// replaced: every SimResult field, double for double, digested per
// app/policy run. The residency index itself is checked against
// brute-force scans written here. These tests carry the "perf" ctest label
// (`ctest -L perf`).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "baselines/memory_mode_policy.h"
#include "baselines/memory_optimizer.h"
#include "baselines/pm_only.h"
#include "core/merchandiser.h"
#include "hm/migration.h"
#include "hm/page_table.h"
#include "sim/engine.h"

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

struct RunOutcome {
  sim::SimResult result;
  sim::EngineCounters counters;
};

/// One engine run with a fresh policy instance (policies are stateful).
RunOutcome RunOnce(const apps::AppBundle& bundle, const std::string& policy,
                   const sim::SimConfig& cfg) {
  const sim::MachineSpec machine = ScaledMachine();
  baselines::PmOnlyPolicy pm;
  baselines::MemoryModePolicy mm;
  baselines::MemoryOptimizerPolicy mo;
  std::unique_ptr<core::MerchandiserPolicy> merch;
  sim::PlacementPolicy* p = nullptr;
  if (policy == "pm") {
    p = &pm;
  } else if (policy == "mm") {
    p = &mm;
  } else if (policy == "mo") {
    p = &mo;
  } else {
    merch = System().MakePolicy(bundle.workload, machine);
    p = merch.get();
  }
  sim::Engine engine(bundle.workload, machine, cfg, p);
  RunOutcome out;
  out.result = engine.Run();
  out.counters = engine.counters();
  return out;
}

/// 64-bit FNV-1a over the exact bits of every SimResult field: policy and
/// workload names, makespan, migration stats, every bandwidth sample, and
/// per region its name, start, duration and per task the id, times,
/// aggregates, PMC vector, per-object access counts and kernel times.
class ResultDigest {
 public:
  explicit ResultDigest(const sim::SimResult& r) {
    Str(r.policy);
    Str(r.workload);
    F64(r.total_seconds);
    U64(r.migration.pages_to_dram);
    U64(r.migration.pages_to_pm);
    U64(r.migration.bytes_to_dram);
    U64(r.migration.bytes_to_pm);
    U64(r.migration.failed_capacity);
    U64(r.bandwidth.size());
    for (const sim::BandwidthSample& b : r.bandwidth) {
      F64(b.t);
      F64(b.dram_gbps);
      F64(b.pm_gbps);
      F64(b.migration_gbps);
    }
    U64(r.regions.size());
    for (const sim::RegionStats& region : r.regions) {
      Str(region.name);
      F64(region.start_time);
      F64(region.duration);
      U64(region.tasks.size());
      for (const sim::TaskStats& t : region.tasks) {
        U64(t.task);
        F64(t.exec_seconds);
        F64(t.barrier_wait);
        U64(t.agg.instructions);
        F64(t.agg.program_accesses);
        F64(t.agg.mm_accesses);
        F64(t.agg.l2_misses);
        F64(t.agg.compute_seconds);
        F64(t.agg.memory_seconds);
        for (const double v : t.pmcs) F64(v);
        Doubles(t.object_program_accesses);
        Doubles(t.object_mm_accesses);
        Doubles(t.kernel_seconds);
      }
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
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    for (const char c : s) Byte(static_cast<unsigned char>(c));
  }
  void Doubles(const std::vector<double>& v) {
    U64(v.size());
    for (const double d : v) F64(d);
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- Production engine vs the recorded reference ---------------------------

struct ReferenceRow {
  const char* app;
  const char* policy;
  std::uint64_t digest;
  double total_seconds;
};

/// Recorded from the unmemoized, linear-scan engine (every timing
/// evaluation rebuilt its per-access costs from page placement; page
/// lookups, MoveHottest/EvictColdest and eviction gathers were linear
/// scans) at this file's scale, machine and training budget.
constexpr ReferenceRow kReference[] = {
    {"SpGEMM", "pm", 0xf3cdde048a1e9a2dull, 0x1.08f946658b742p+2},
    {"SpGEMM", "mm", 0xb8a26fc2998f4b15ull, 0x1.7488dc006cce8p+1},
    {"SpGEMM", "mo", 0xc5cb63d6a51e0072ull, 0x1.824aab1f782f5p+1},
    {"SpGEMM", "merch", 0x053f7c96ad8e8a33ull, 0x1.8c0cf78e94a8bp+0},
    {"WarpX", "pm", 0x044d44560e330cddull, 0x1.006c1dcf34429p+2},
    {"WarpX", "mm", 0xff49575c9e758669ull, 0x1.c801ac4a8207p+1},
    {"WarpX", "mo", 0x79b4a3d91a26b205ull, 0x1.d9dc0f9b55905p+1},
    {"WarpX", "merch", 0xad52f672aec27b7full, 0x1.b7cb15c517e95p+1},
    {"BFS", "pm", 0xf4165f2e6f5d6b7dull, 0x1.6b86bcd27a31fp+0},
    {"BFS", "mm", 0x7fa60907fd5d8131ull, 0x1.2203b65692a8dp+0},
    {"BFS", "mo", 0xe2cdc949274de0c9ull, 0x1.5244902c0127ep+0},
    {"BFS", "merch", 0xf389ad337bfa19ddull, 0x1.316567a5fd14p-1},
    {"DMRG", "pm", 0x6bd1a144d55723cbull, 0x1.a7ec28261a739p+0},
    {"DMRG", "mm", 0x4c0227be4259d907ull, 0x1.859174b9ab46bp+0},
    {"DMRG", "mo", 0x1b1ab14b5e4d5bc8ull, 0x1.995bcd2b05227p+0},
    {"DMRG", "merch", 0x964ab8e217d682deull, 0x1.59f6fa28368c6p+0},
    {"NWChem-TC", "pm", 0xed96b51e2eba3821ull, 0x1.7dad49ace3fc6p+0},
    {"NWChem-TC", "mm", 0x06febbb767c789a2ull, 0x1.0c107f2d1de9ap+0},
    {"NWChem-TC", "mo", 0x9825e402fdf15ca2ull, 0x1.389d8a7b7a9c1p+0},
    {"NWChem-TC", "merch", 0x1cbd9680f85f9c21ull, 0x1.8e5ef1ed9b568p-1},
};

/// A failed row prints itself in table syntax, so a deliberate model
/// change is re-recorded by pasting the failures.
std::string FormatRow(const std::string& app, const std::string& policy,
                      std::uint64_t digest, double total_seconds) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "    {\"%s\", \"%s\", 0x%016llxull, %a},",
                app.c_str(), policy.c_str(),
                static_cast<unsigned long long>(digest), total_seconds);
  return buf;
}

class EngineEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineEquivalence, VariantsBitIdentical) {
  const std::string app = GetParam();
  const apps::AppBundle bundle = apps::BuildApp(app, kScale, kScale / 4);
  for (const std::string policy : {"pm", "mm", "mo", "merch"}) {
    SCOPED_TRACE(app + "/" + policy);
    const RunOutcome run = RunOnce(bundle, policy, ScaledConfig());
    const std::uint64_t digest = ResultDigest(run.result).value();
    const std::string got =
        FormatRow(app, policy, digest, run.result.total_seconds);
    const ReferenceRow* ref = nullptr;
    for (const ReferenceRow& row : kReference) {
      if (app == row.app && policy == row.policy) ref = &row;
    }
    if (ref == nullptr) {
      ADD_FAILURE() << "no reference row; this run:\n" << got;
      continue;
    }
    EXPECT_EQ(run.result.total_seconds, ref->total_seconds) << got;
    EXPECT_EQ(digest, ref->digest) << got;
    // Memoization took effect: base rebuilds are the small invalidated
    // fraction of timing evaluations.
    EXPECT_LT(run.counters.base_builds, run.counters.timing_evals);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, EngineEquivalence,
                         ::testing::ValuesIn(apps::AppNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- Residency index vs brute force ----------------------------------------

hm::HmSpec TinySpec() {
  hm::HmSpec spec = hm::HmSpec::PaperOptane();
  spec[hm::Tier::kDram].capacity_bytes = 96 * 4096;
  spec[hm::Tier::kPm].capacity_bytes = 512 * 4096;
  return spec;
}

/// The move listener is the ground truth: whatever the table reports
/// moved is mirrored into a flat tier array, and every index query must
/// agree with a linear scan of that array.
struct BruteMirror {
  std::vector<hm::Tier> tier;
  void Attach(hm::PageTable& pt) {
    pt.SetMoveListener([this](PageId p, hm::Tier, hm::Tier to) {
      tier[p] = to;
    });
  }
};

TEST(ResidencyIndex, RandomOpsMatchBruteForce) {
  std::mt19937_64 rng(0xC0FFEE);
  hm::PageTable pt(TinySpec(), 4096);
  std::vector<ObjectId> objects;
  for (const std::uint64_t pages : {37u, 5u, 64u, 3u, 129u, 18u, 1u, 70u}) {
    const auto id = pt.RegisterObject(pages * 4096,
                                      pages % 2 ? hm::Tier::kDram
                                                : hm::Tier::kPm);
    ASSERT_TRUE(id.has_value());
    objects.push_back(*id);
  }
  BruteMirror brute;
  brute.tier.resize(pt.num_pages());
  for (PageId p = 0; p < pt.num_pages(); ++p) brute.tier[p] = pt.page_tier(p);
  brute.Attach(pt);

  auto live_object = [&]() -> std::optional<ObjectId> {
    std::vector<ObjectId> live;
    for (const ObjectId id : objects) {
      if (pt.is_live(id)) live.push_back(id);
    }
    if (live.empty()) return std::nullopt;
    return live[rng() % live.size()];
  };

  int releases = 0;
  for (int op = 0; op < 4000; ++op) {
    const auto obj = live_object();
    if (!obj.has_value()) break;
    const hm::ObjectExtent& e = pt.extent(*obj);
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
        pt.MovePage(e.first_page + rng() % e.num_pages,
                    rng() % 2 ? hm::Tier::kDram : hm::Tier::kPm);
        break;
      case 3:
      case 4:
        pt.MoveHottest(*obj, rng() % 12,
                       rng() % 2 ? hm::Tier::kDram : hm::Tier::kPm);
        break;
      case 5:
      case 6:
        pt.EvictColdest(*obj, rng() % 12,
                        rng() % 2 ? hm::Tier::kDram : hm::Tier::kPm);
        break;
      default:
        if (releases < 2 && op > 1000) {
          pt.ReleaseObject(*obj);
          ++releases;
        }
        break;
    }

    // Spot-check every index query against the brute mirror.
    const ObjectId probe = objects[rng() % objects.size()];
    const hm::ObjectExtent& pe = pt.extent(probe);
    // The residency bitset mirrors every rank's tier; past-end bits stay
    // clear.
    const std::span<const std::uint64_t> bits = pt.residency_bits(probe);
    ASSERT_EQ(bits.size(), (pe.num_pages + 63) / 64);
    for (std::uint64_t r = 0; r < bits.size() * 64; ++r) {
      const bool on_dram = ((bits[r >> 6] >> (r & 63)) & 1u) != 0;
      ASSERT_EQ(on_dram, r < pe.num_pages &&
                             brute.tier[pe.first_page + r] == hm::Tier::kDram)
          << "rank " << r;
    }
    if (pt.is_live(probe)) {
      std::uint64_t on_dram = 0;
      for (std::uint64_t r = 0; r < pe.num_pages; ++r) {
        if (brute.tier[pe.first_page + r] == hm::Tier::kDram) ++on_dram;
      }
      ASSERT_EQ(pt.object_pages_on(probe, hm::Tier::kDram), on_dram);
      // FindRank / FindRankBefore agree with linear scans.
      const bool want_dram = rng() % 2;
      const std::uint64_t start = rng() % pe.num_pages;
      std::uint64_t first = pe.num_pages;
      for (std::uint64_t r = start; r < pe.num_pages; ++r) {
        if ((brute.tier[pe.first_page + r] == hm::Tier::kDram) == want_dram) {
          first = r;
          break;
        }
      }
      EXPECT_EQ(pt.FindRank(probe, start, want_dram), first);
      const std::uint64_t end = rng() % (pe.num_pages + 1);
      std::uint64_t last = pe.num_pages;
      for (std::uint64_t r = end; r > 0; --r) {
        if ((brute.tier[pe.first_page + r - 1] == hm::Tier::kDram) ==
            want_dram) {
          last = r - 1;
          break;
        }
      }
      EXPECT_EQ(pt.FindRankBefore(probe, end, want_dram), last);
    } else {
      EXPECT_EQ(pt.object_pages_on(probe, hm::Tier::kDram), 0u);
    }
    const PageId page = rng() % pt.num_pages();
    const auto owner = pt.ObjectOfPage(page);
    std::optional<ObjectId> expect_owner;
    for (const ObjectId id : objects) {
      const hm::ObjectExtent& oe = pt.extent(id);
      if (pt.is_live(id) && page >= oe.first_page &&
          page < oe.first_page + oe.num_pages) {
        expect_owner = id;
      }
    }
    ASSERT_EQ(owner, expect_owner);
  }
  EXPECT_EQ(releases, 2);
}

/// Brute-force reference page table: one tier per page, per-tier page
/// counts, and object extents. Every bulk move is the linear scan the
/// residency index replaced (RandomOpsMatchBruteForce covers the queries).
struct ReferenceTable {
  struct Extent {
    PageId first = 0;
    std::uint64_t pages = 0;
    bool live = true;
  };
  std::vector<hm::Tier> tier;
  std::vector<Extent> objects;
  std::uint64_t capacity[hm::kNumTiers] = {0, 0};
  std::uint64_t used[hm::kNumTiers] = {0, 0};
  std::vector<std::pair<PageId, hm::Tier>> moves;

  ReferenceTable(const hm::HmSpec& spec, std::uint64_t page_bytes) {
    for (const hm::Tier t : {hm::Tier::kDram, hm::Tier::kPm}) {
      capacity[static_cast<std::size_t>(t)] = spec[t].capacity_bytes / page_bytes;
    }
  }
  std::uint64_t Free(hm::Tier t) const {
    const auto i = static_cast<std::size_t>(t);
    return capacity[i] - used[i];
  }
  bool Register(std::uint64_t pages, hm::Tier initial) {
    hm::Tier t = initial;
    if (Free(t) < pages) t = hm::OtherTier(t);
    if (Free(t) < pages) return false;
    objects.push_back({tier.size(), pages, true});
    tier.resize(tier.size() + pages, t);
    used[static_cast<std::size_t>(t)] += pages;
    return true;
  }
  void Release(ObjectId id) {
    Extent& e = objects[id];
    for (PageId p = e.first; p < e.first + e.pages; ++p) {
      used[static_cast<std::size_t>(tier[p])] -= 1;
    }
    e.live = false;
  }
  bool MovePage(PageId p, hm::Tier to) {
    if (tier[p] == to) return true;
    if (Free(to) == 0) return false;
    used[static_cast<std::size_t>(tier[p])] -= 1;
    used[static_cast<std::size_t>(to)] += 1;
    tier[p] = to;
    moves.emplace_back(p, to);
    return true;
  }
  /// The first `k` pages not on `to`, in rank order (hot end first).
  std::uint64_t MoveHottest(ObjectId id, std::uint64_t k, hm::Tier to) {
    const Extent& e = objects[id];
    std::uint64_t moved = 0;
    for (PageId p = e.first; p < e.first + e.pages && moved < k; ++p) {
      if (tier[p] == to) continue;
      if (Free(to) == 0) break;
      MovePage(p, to);
      ++moved;
    }
    return moved;
  }
  /// The first `k` pages on `from`, counted from the cold end.
  std::uint64_t EvictColdest(ObjectId id, std::uint64_t k, hm::Tier from) {
    const Extent& e = objects[id];
    const hm::Tier to = hm::OtherTier(from);
    std::uint64_t moved = 0;
    for (PageId p = e.first + e.pages; p > e.first && moved < k; --p) {
      if (tier[p - 1] != from) continue;
      if (Free(to) == 0) break;
      MovePage(p - 1, to);
      ++moved;
    }
    return moved;
  }
  /// A full sort by (heat, page) over every DRAM page of the live objects,
  /// demoted coldest first until `needed` DRAM pages are free.
  template <typename Heat>
  std::uint64_t MakeRoomInDram(std::uint64_t needed, const Heat& heat) {
    const std::uint64_t free_now = Free(hm::Tier::kDram);
    if (free_now >= needed) return 0;
    const std::uint64_t to_free = needed - free_now;
    std::vector<std::pair<double, PageId>> cold;
    for (const Extent& e : objects) {
      if (!e.live) continue;
      for (PageId p = e.first; p < e.first + e.pages; ++p) {
        if (tier[p] == hm::Tier::kDram) cold.emplace_back(heat(p), p);
      }
    }
    std::sort(cold.begin(), cold.end());
    std::uint64_t freed = 0;
    for (const auto& [h, p] : cold) {
      if (freed >= to_free) break;
      if (MovePage(p, hm::Tier::kPm)) ++freed;
    }
    return freed;
  }
};

/// The index-backed bulk moves (bitset walks for MoveHottest and
/// EvictColdest, the gather plus nth_element selection, with or without
/// object-floor pruning, for MakeRoomInDram) must produce the reference's
/// move stream: the same pages, in the same order, with the same return
/// values, under DRAM and PM capacity pressure.
TEST(ResidencyIndex, LegacyScanIsBitIdentical) {
  constexpr std::uint64_t kPage = 4096;
  hm::PageTable table(TinySpec(), kPage);
  ReferenceTable ref(TinySpec(), kPage);
  std::vector<std::pair<PageId, hm::Tier>> moves;
  table.SetMoveListener(
      [&](PageId p, hm::Tier, hm::Tier to) { moves.emplace_back(p, to); });
  for (const std::uint64_t pages : {23u, 64u, 7u, 130u, 41u, 12u}) {
    const hm::Tier initial = pages % 2 ? hm::Tier::kDram : hm::Tier::kPm;
    ASSERT_EQ(table.RegisterObject(pages * kPage, initial).has_value(),
              ref.Register(pages, initial));
  }
  hm::MigrationEngine migration(table);
  // Deterministic synthetic heat with many ties: hash of the page id.
  const auto heat = [](PageId p) {
    return static_cast<double>((p * 2654435761u) % 97);
  };
  // Exact per-object floor of that heat, keyed by the extent's first page.
  const auto floor = [&](PageId first) {
    double lb = std::numeric_limits<double>::infinity();
    for (const ReferenceTable::Extent& e : ref.objects) {
      if (e.first != first) continue;
      for (PageId p = e.first; p < e.first + e.pages; ++p) {
        lb = std::min(lb, heat(p));
      }
    }
    return lb;
  };
  std::mt19937_64 rng(7);
  bool released = false;
  for (int op = 0; op < 800; ++op) {
    std::vector<ObjectId> live;
    for (ObjectId id = 0; id < ref.objects.size(); ++id) {
      if (ref.objects[id].live) live.push_back(id);
    }
    const ObjectId obj = live[rng() % live.size()];
    const std::uint64_t k = rng() % 9;
    const hm::Tier t = rng() % 2 ? hm::Tier::kDram : hm::Tier::kPm;
    switch (rng() % 5) {
      case 0:
        ASSERT_EQ(table.MoveHottest(obj, k, t), ref.MoveHottest(obj, k, t));
        break;
      case 1:
        ASSERT_EQ(table.EvictColdest(obj, k, t), ref.EvictColdest(obj, k, t));
        break;
      case 2: {
        const ReferenceTable::Extent& e = ref.objects[obj];
        const PageId p = e.first + rng() % e.pages;
        ASSERT_EQ(table.MovePage(p, t), ref.MovePage(p, t));
        break;
      }
      case 3:
        if (rng() % 2) {
          ASSERT_EQ(migration.MakeRoomInDram(k * 3, heat),
                    ref.MakeRoomInDram(k * 3, heat));
        } else {
          ASSERT_EQ(migration.MakeRoomInDram(k * 3, heat, floor),
                    ref.MakeRoomInDram(k * 3, heat));
        }
        break;
      default:
        if (!released && op > 400) {
          table.ReleaseObject(obj);
          ref.Release(obj);
          released = true;
        }
        break;
    }
    ASSERT_EQ(moves, ref.moves) << "op " << op;
    for (const hm::Tier tier : {hm::Tier::kDram, hm::Tier::kPm}) {
      ASSERT_EQ(table.tier_free_pages(tier), ref.Free(tier));
    }
  }
  EXPECT_TRUE(released);
  EXPECT_GT(ref.moves.size(), 500u);
  for (PageId p = 0; p < table.num_pages(); ++p) {
    ASSERT_EQ(table.page_tier(p), ref.tier[p]);
  }
}

}  // namespace
}  // namespace merch
