// Simulated page table: tracks which tier owns each page, per-page access
// counters (the "accessed bit" history that PTE-scan profilers read), and
// per-object residency bookkeeping.
//
// Objects are allocated as contiguous page ranges. Within an object, pages
// are indexed in *heat order*: page 0 receives the most accesses under the
// object's heat profile (src/trace). This canonical ordering loses nothing
// for placement studies (any permutation of page ids would behave
// identically) and makes "migrate the hottest k pages" an O(1) range
// operation for ideal policies while sampling-based policies still probe
// individual pages.
//
// Residency queries are served from a per-object rank-order DRAM bitset
// kept in lock-step with every page move (O(1) rank probes, word-skipping
// tier enumeration), and ObjectOfPage from a dense page->owner record.
// The bitset mirrors physical page tiers exactly (including pages of
// released objects, whose tiers do not change on release), so the probing
// and indexed read paths agree bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "hm/tier.h"

namespace merch::hm {

/// Per-page access counters (the page's tier lives in the packed
/// page->(owner, tier) record; see PageTable::page_tier).
struct PageEntry {
  /// Accesses recorded since the last epoch reset (profilers read this).
  std::uint64_t epoch_accesses = 0;
  /// Accesses over the whole simulation.
  std::uint64_t total_accesses = 0;
};

/// One registered data object's page range.
struct ObjectExtent {
  ObjectId id = kInvalidObject;
  TaskId owner = kInvalidTask;  // task that predominantly accesses it
  PageId first_page = 0;
  std::uint64_t num_pages = 0;
  std::uint64_t bytes = 0;
};

class PageTable {
 public:
  /// `page_bytes` is the placement granularity. The paper migrates 4 KiB
  /// pages; large simulations use 2 MiB regions to bound metadata (the
  /// ratio of sizes, not the absolute granularity, drives every result).
  PageTable(HmSpec spec, std::uint64_t page_bytes = kHugeRegionBytes);

  /// Allocate `bytes` for an object on `initial` tier (falls back to the
  /// other tier if full; returns nullopt only if both tiers are full).
  std::optional<ObjectId> RegisterObject(std::uint64_t bytes, Tier initial,
                                         TaskId owner = kInvalidTask);

  /// Release an object's pages (WarpX-PM-style lifetime management needs
  /// deallocation). Its ObjectId is not reused.
  void ReleaseObject(ObjectId id);

  std::size_t num_objects() const { return extents_.size(); }
  const ObjectExtent& extent(ObjectId id) const { return extents_[id]; }
  bool is_live(ObjectId id) const { return live_[id]; }

  std::uint64_t page_bytes() const { return page_bytes_; }
  const HmSpec& spec() const { return spec_; }

  /// Tier of page `p`, served from the packed per-page record so random
  /// probes (profiler sampling, sweep windows) stay cache-resident. Tier
  /// and owner share a cache line on purpose: a profiler sample reads
  /// both.
  Tier page_tier(PageId p) const { return page_ref_[p].tier; }
  const PageEntry& page(PageId p) const { return pages_[p]; }
  std::uint64_t num_pages() const { return pages_.size(); }

  /// Which live object owns page `p`. O(1) via the packed per-page record
  /// (inline: profiler samples hit this tens of millions of times per
  /// run).
  std::optional<ObjectId> ObjectOfPage(PageId p) const {
    if (p >= page_ref_.size()) return std::nullopt;
    const ObjectId id = page_ref_[p].owner;
    if (!live_[id]) return std::nullopt;
    return id;
  }

  /// Bytes currently resident on `t`.
  std::uint64_t tier_used_bytes(Tier t) const {
    return used_pages_[static_cast<std::size_t>(t)] * page_bytes_;
  }
  std::uint64_t tier_free_bytes(Tier t) const {
    const std::uint64_t cap = spec_[t].capacity_bytes;
    const std::uint64_t used = tier_used_bytes(t);
    return cap > used ? cap - used : 0;
  }
  std::uint64_t tier_free_pages(Tier t) const {
    return tier_free_bytes(t) / page_bytes_;
  }

  /// Number of an object's pages resident on `t` (O(1); zero for a
  /// released object regardless of where its stale pages sit).
  std::uint64_t object_pages_on(ObjectId id, Tier t) const;

  /// Rank-order DRAM bitset of `id`: bit `rank` (word rank >> 6, bit
  /// rank & 63) is 1 iff page_tier(extent.first_page + rank) is DRAM. The
  /// engine's sweep-window probes read it directly.
  std::span<const std::uint64_t> residency_bits(ObjectId id) const {
    return residency_[id];
  }

  /// Move one page to `to`. Returns false if `to` is at capacity.
  bool MovePage(PageId p, Tier to);

  /// Move the first `k` not-yet-on-`to` pages of the object, scanning from
  /// the hot end (rank 0). Returns pages actually moved.
  std::uint64_t MoveHottest(ObjectId id, std::uint64_t k, Tier to);

  /// Move the last `k` pages of the object that are on `from` (cold end)
  /// to the other tier. Returns pages actually moved.
  std::uint64_t EvictColdest(ObjectId id, std::uint64_t k, Tier from);

  /// Record `count` accesses against page `p` (profilers see these).
  void RecordAccesses(PageId p, std::uint64_t count);

  /// Zero all epoch counters (start of a profiling interval).
  void ResetEpochCounters();

  /// Sum of epoch accesses over all pages (sanity checks / tests).
  std::uint64_t TotalEpochAccesses() const;

  /// Observer invoked after every page move (p, from, to). The simulator
  /// uses it to maintain per-object heat-weighted DRAM fractions
  /// incrementally. At most one listener.
  using MoveListener = std::function<void(PageId, Tier, Tier)>;
  void SetMoveListener(MoveListener listener) {
    move_listener_ = std::move(listener);
  }

  /// First rank in [start, num_pages) of `id` whose residency matches
  /// `on_dram`, or num_pages. Word-skipping scan over the bitset; visits
  /// ranks in the same ascending order a per-page probe loop would, so
  /// callers can enumerate an object's DRAM pages without touching its PM
  /// pages.
  std::uint64_t FindRank(ObjectId id, std::uint64_t start, bool on_dram) const;

  /// Append every page of `id` whose residency matches `on_dram`, in
  /// ascending page order — the sequence FindRank hops would visit, in one
  /// scan over the bitset words instead of a call per page. Eviction
  /// gathers enumerate tens of millions of pages per run; the per-call
  /// overhead of the hop loop was their largest cost.
  void AppendTierPages(ObjectId id, bool on_dram,
                       std::vector<PageId>& out) const;

  /// Highest rank < end whose residency matches `on_dram`, or num_pages
  /// when none exists.
  std::uint64_t FindRankBefore(ObjectId id, std::uint64_t end,
                               bool on_dram) const;

 private:
  void NotifyMove(PageId p, Tier from, Tier to) {
    if (move_listener_) move_listener_(p, from, to);
  }

  /// Owning extent of `p` ignoring liveness (index maintenance must track
  /// stale pages of released objects too). Served from the dense
  /// page->owner record filled at registration — O(1).
  std::optional<ObjectId> OwnerOfPage(PageId p) const {
    if (p >= page_ref_.size()) return std::nullopt;
    return page_ref_[p].owner;
  }

  /// Retier page `p` of object `owner`: usage counters, residency index,
  /// live-object DRAM count, listener. Caller has verified `p` is not on
  /// `to` and `to` has capacity.
  void CommitMove(ObjectId owner, PageId p, Tier to);

  void SetResidency(ObjectId id, std::uint64_t rank, bool on_dram);

  MoveListener move_listener_;
  HmSpec spec_;
  std::uint64_t page_bytes_;
  /// Dense per-page mirror of (owner, tier): one 8-byte record per page so
  /// a random probe that needs both — every profiler sample — takes one
  /// cache miss, not two. Owner ignores liveness, like OwnerOfPage.
  struct PageRef {
    ObjectId owner;
    Tier tier;
  };
  std::vector<PageEntry> pages_;
  std::vector<PageRef> page_ref_;
  std::vector<ObjectExtent> extents_;
  std::vector<bool> live_;
  std::uint64_t used_pages_[kNumTiers] = {0, 0};
  // Per-object count of pages on DRAM, to answer object_pages_on in O(1).
  std::vector<std::uint64_t> dram_pages_per_object_;
  // Per-object DRAM-residency bitset over heat ranks (1 = on DRAM).
  std::vector<std::vector<std::uint64_t>> residency_;
};

}  // namespace merch::hm
