// Unit tests for the simulated page table (hm/page_table.h).
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "hm/page_table.h"

namespace merch::hm {
namespace {

HmSpec SmallSpec() {
  HmSpec spec = HmSpec::PaperOptane();
  spec[Tier::kDram].capacity_bytes = 8 * kPageBytes * 1024;  // 8 Ki pages...
  spec[Tier::kDram].capacity_bytes = 8 * 4096;               // 8 pages of 4K
  spec[Tier::kPm].capacity_bytes = 64 * 4096;                // 64 pages
  return spec;
}

TEST(PageTable, RegisterAllocatesContiguousPages) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 3, Tier::kPm);
  const auto b = pt.RegisterObject(4096 * 2, Tier::kPm);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(pt.extent(*a).first_page, 0u);
  EXPECT_EQ(pt.extent(*a).num_pages, 3u);
  EXPECT_EQ(pt.extent(*b).first_page, 3u);
  EXPECT_EQ(pt.num_pages(), 5u);
}

TEST(PageTable, PartialPageRoundsUp) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4097, Tier::kPm);
  ASSERT_TRUE(a);
  EXPECT_EQ(pt.extent(*a).num_pages, 2u);
}

TEST(PageTable, FallsBackToOtherTierWhenFull) {
  PageTable pt(SmallSpec(), 4096);
  // DRAM holds 8 pages; ask for 10 on DRAM -> lands on PM.
  const auto a = pt.RegisterObject(4096 * 10, Tier::kDram);
  ASSERT_TRUE(a);
  EXPECT_EQ(pt.page_tier(pt.extent(*a).first_page), Tier::kPm);
}

TEST(PageTable, RejectsWhenBothTiersFull) {
  PageTable pt(SmallSpec(), 4096);
  ASSERT_TRUE(pt.RegisterObject(4096 * 64, Tier::kPm));
  EXPECT_FALSE(pt.RegisterObject(4096 * 16, Tier::kPm).has_value());
}

TEST(PageTable, MovePageUpdatesUsage) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 4, Tier::kPm);
  ASSERT_TRUE(a);
  EXPECT_EQ(pt.tier_used_bytes(Tier::kDram), 0u);
  EXPECT_TRUE(pt.MovePage(0, Tier::kDram));
  EXPECT_EQ(pt.tier_used_bytes(Tier::kDram), 4096u);
  EXPECT_EQ(pt.page_tier(0), Tier::kDram);
  EXPECT_EQ(pt.object_pages_on(*a, Tier::kDram), 1u);
  EXPECT_EQ(pt.object_pages_on(*a, Tier::kPm), 3u);
}

TEST(PageTable, MovePageToSameTierIsNoop) {
  PageTable pt(SmallSpec(), 4096);
  ASSERT_TRUE(pt.RegisterObject(4096, Tier::kPm));
  EXPECT_TRUE(pt.MovePage(0, Tier::kPm));
  EXPECT_EQ(pt.tier_used_bytes(Tier::kDram), 0u);
}

TEST(PageTable, MovePageFailsAtCapacity) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 16, Tier::kPm);
  ASSERT_TRUE(a);
  // Fill DRAM (8 pages).
  EXPECT_EQ(pt.MoveHottest(*a, 8, Tier::kDram), 8u);
  EXPECT_FALSE(pt.MovePage(15, Tier::kDram));
}

TEST(PageTable, MoveHottestTakesPrefix) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 6, Tier::kPm);
  ASSERT_TRUE(a);
  EXPECT_EQ(pt.MoveHottest(*a, 3, Tier::kDram), 3u);
  EXPECT_EQ(pt.page_tier(0), Tier::kDram);
  EXPECT_EQ(pt.page_tier(2), Tier::kDram);
  EXPECT_EQ(pt.page_tier(3), Tier::kPm);
}

TEST(PageTable, MoveHottestSkipsAlreadyResident) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 6, Tier::kPm);
  ASSERT_TRUE(a);
  pt.MoveHottest(*a, 2, Tier::kDram);
  EXPECT_EQ(pt.MoveHottest(*a, 2, Tier::kDram), 2u);
  EXPECT_EQ(pt.object_pages_on(*a, Tier::kDram), 4u);
  EXPECT_EQ(pt.page_tier(3), Tier::kDram);
}

TEST(PageTable, EvictColdestTakesSuffix) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 6, Tier::kPm);
  ASSERT_TRUE(a);
  pt.MoveHottest(*a, 6, Tier::kDram);
  EXPECT_EQ(pt.EvictColdest(*a, 2, Tier::kDram), 2u);
  EXPECT_EQ(pt.page_tier(5), Tier::kPm);
  EXPECT_EQ(pt.page_tier(4), Tier::kPm);
  EXPECT_EQ(pt.page_tier(3), Tier::kDram);
}

TEST(PageTable, AccessCountersAccumulateAndReset) {
  PageTable pt(SmallSpec(), 4096);
  ASSERT_TRUE(pt.RegisterObject(4096 * 2, Tier::kPm));
  pt.RecordAccesses(0, 5);
  pt.RecordAccesses(0, 7);
  pt.RecordAccesses(1, 1);
  EXPECT_EQ(pt.page(0).epoch_accesses, 12u);
  EXPECT_EQ(pt.TotalEpochAccesses(), 13u);
  pt.ResetEpochCounters();
  EXPECT_EQ(pt.TotalEpochAccesses(), 0u);
  EXPECT_EQ(pt.page(0).total_accesses, 12u);  // lifetime survives reset
}

TEST(PageTable, ObjectOfPage) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 2, Tier::kPm);
  const auto b = pt.RegisterObject(4096 * 3, Tier::kPm);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(pt.ObjectOfPage(0), *a);
  EXPECT_EQ(pt.ObjectOfPage(2), *b);
  EXPECT_EQ(pt.ObjectOfPage(4), *b);
  EXPECT_FALSE(pt.ObjectOfPage(99).has_value());
}

TEST(PageTable, ReleaseFreesCapacity) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 60, Tier::kPm);
  ASSERT_TRUE(a);
  EXPECT_FALSE(pt.RegisterObject(4096 * 10, Tier::kPm).has_value());
  pt.ReleaseObject(*a);
  EXPECT_FALSE(pt.is_live(*a));
  EXPECT_TRUE(pt.RegisterObject(4096 * 10, Tier::kPm).has_value());
}

TEST(PageTable, ObjectOfPageIgnoresReleasedObjects) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 2, Tier::kPm);
  const auto b = pt.RegisterObject(4096 * 3, Tier::kPm);
  ASSERT_TRUE(a && b);
  pt.ReleaseObject(*a);
  EXPECT_FALSE(pt.ObjectOfPage(0).has_value());  // released
  EXPECT_EQ(pt.ObjectOfPage(2), *b);             // later extents unaffected
}

TEST(PageTable, RankResidencyMirrorsPageTiers) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 6, Tier::kPm);
  ASSERT_TRUE(a);
  pt.MoveHottest(*a, 2, Tier::kDram);
  pt.MovePage(4, Tier::kDram);
  const std::span<const std::uint64_t> bits = pt.residency_bits(*a);
  ASSERT_EQ(bits.size(), 1u);
  for (std::uint64_t r = 0; r < 6; ++r) {
    EXPECT_EQ(((bits[0] >> r) & 1u) != 0,
              pt.page_tier(pt.extent(*a).first_page + r) == Tier::kDram);
  }
  EXPECT_EQ(bits[0] >> 6, 0u);  // past-end ranks stay clear
}

TEST(PageTable, FindRankWalksResidency) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 8, Tier::kPm);
  ASSERT_TRUE(a);
  pt.MovePage(2, Tier::kDram);
  pt.MovePage(5, Tier::kDram);
  EXPECT_EQ(pt.FindRank(*a, 0, true), 2u);
  EXPECT_EQ(pt.FindRank(*a, 3, true), 5u);
  EXPECT_EQ(pt.FindRank(*a, 6, true), 8u);  // none left -> num_pages
  EXPECT_EQ(pt.FindRank(*a, 0, false), 0u);
  EXPECT_EQ(pt.FindRankBefore(*a, 8, true), 5u);
  EXPECT_EQ(pt.FindRankBefore(*a, 5, true), 2u);
  EXPECT_EQ(pt.FindRankBefore(*a, 2, true), 8u);  // none below -> num_pages
  EXPECT_EQ(pt.FindRankBefore(*a, 0, false), 8u);  // empty prefix
}

/// Brute-force references for the bulk moves: the first `k` pages of the
/// extent [first, first + n) not on `to`, from the hot end (MoveHottest),
/// or on `from`, from the cold end (EvictColdest).
std::vector<PageId> ReferenceHottest(const PageTable& pt, PageId first,
                                     std::uint64_t n, std::uint64_t k,
                                     Tier to) {
  std::vector<PageId> out;
  for (PageId p = first; p < first + n && out.size() < k; ++p) {
    if (pt.page_tier(p) != to) out.push_back(p);
  }
  return out;
}

std::vector<PageId> ReferenceColdest(const PageTable& pt, PageId first,
                                     std::uint64_t n, std::uint64_t k,
                                     Tier from) {
  std::vector<PageId> out;
  for (PageId p = first + n; p > first && out.size() < k; --p) {
    if (pt.page_tier(p - 1) == from) out.push_back(p - 1);
  }
  return out;
}

TEST(PageTable, LegacyScanMatchesIndexedOps) {
  PageTable pt(SmallSpec(), 4096);
  ASSERT_TRUE(pt.RegisterObject(4096 * 7, Tier::kPm));
  std::vector<PageId> moved;
  pt.SetMoveListener([&](PageId p, Tier, Tier) { moved.push_back(p); });

  std::vector<PageId> want = ReferenceHottest(pt, 0, 7, 3, Tier::kDram);
  EXPECT_EQ(pt.MoveHottest(0, 3, Tier::kDram), want.size());
  EXPECT_EQ(moved, want);  // 0, 1, 2

  pt.MovePage(5, Tier::kDram);
  moved.clear();
  want = ReferenceColdest(pt, 0, 7, 2, Tier::kDram);
  EXPECT_EQ(pt.EvictColdest(0, 2, Tier::kDram), want.size());
  EXPECT_EQ(moved, want);  // 5, 2

  // A hot-end pass skips pages already on the target tier.
  moved.clear();
  want = ReferenceHottest(pt, 0, 7, 4, Tier::kDram);
  EXPECT_EQ(pt.MoveHottest(0, 4, Tier::kDram), want.size());
  EXPECT_EQ(moved, want);  // 2, 3, 4, 5
  for (PageId p = 0; p < pt.num_pages(); ++p) {
    EXPECT_EQ(pt.page_tier(p), p < 6 ? Tier::kDram : Tier::kPm) << p;
  }
  EXPECT_EQ(pt.ObjectOfPage(4), std::optional<ObjectId>(0));
  EXPECT_EQ(pt.ObjectOfPage(7), std::nullopt);
}

TEST(PageTable, MoveListenerObservesMoves) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 4, Tier::kPm);
  ASSERT_TRUE(a);
  std::vector<PageId> moved;
  pt.SetMoveListener([&](PageId p, Tier from, Tier to) {
    EXPECT_EQ(from, Tier::kPm);
    EXPECT_EQ(to, Tier::kDram);
    moved.push_back(p);
  });
  pt.MoveHottest(*a, 2, Tier::kDram);
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[0], 0u);
  EXPECT_EQ(moved[1], 1u);
}

TEST(PageTable, ListenerSeesEvictions) {
  PageTable pt(SmallSpec(), 4096);
  const auto a = pt.RegisterObject(4096 * 4, Tier::kPm);
  ASSERT_TRUE(a);
  pt.MoveHottest(*a, 4, Tier::kDram);
  int demotions = 0;
  pt.SetMoveListener([&](PageId, Tier from, Tier to) {
    EXPECT_EQ(from, Tier::kDram);
    EXPECT_EQ(to, Tier::kPm);
    ++demotions;
  });
  pt.EvictColdest(*a, 3, Tier::kDram);
  EXPECT_EQ(demotions, 3);
}

}  // namespace
}  // namespace merch::hm
