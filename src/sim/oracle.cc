#include "sim/oracle.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace merch::sim {

AccessOracle::AccessOracle(const Workload& workload,
                           const hm::PageTable& pages,
                           std::vector<ObjectId> object_handles)
    : workload_(&workload),
      pages_(&pages),
      handles_(std::move(object_handles)) {
  assert(handles_.size() == workload.objects.size());
  const auto tasks = workload.TaskIds();
  max_task_ = tasks.empty() ? 0 : tasks.back() + 1;
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    if (handles_[i] >= index_of_handle_.size()) {
      index_of_handle_.resize(handles_[i] + 1,
                              std::numeric_limits<std::size_t>::max());
    }
    index_of_handle_[handles_[i]] = i;
  }
  epoch_by_object_.assign(handles_.size(), 0.0);
  sweeps_by_object_.assign(handles_.size(), {});
  lifetime_by_object_.assign(handles_.size(), 0.0);
  epoch_by_object_task_.assign(handles_.size(),
                               std::vector<double>(max_task_, 0.0));
}

void AccessOracle::Add(std::size_t object, TaskId task, double mm_accesses) {
  assert(object < handles_.size());
  epoch_by_object_[object] += mm_accesses;
  lifetime_by_object_[object] += mm_accesses;
  if (task < max_task_) epoch_by_object_task_[object][task] += mm_accesses;
}

void AccessOracle::AddSweep(std::size_t object, TaskId task, double f0,
                            double f1, double mm_accesses) {
  assert(object < handles_.size());
  lifetime_by_object_[object] += mm_accesses;
  if (task < max_task_) epoch_by_object_task_[object][task] += mm_accesses;
  auto& windows = sweeps_by_object_[object];
  // Merge with the most recent window when contiguous (consecutive epochs
  // of the same kernel): keeps window counts at ~one per kernel slice.
  if (!windows.empty() && std::abs(windows.back().f1 - f0) < 1e-9) {
    windows.back().f1 = f1;
    windows.back().accesses += mm_accesses;
    return;
  }
  windows.push_back(SweepWindow{f0, f1, mm_accesses});
}

void AccessOracle::ResetEpoch() {
  for (auto& v : epoch_by_object_) v = 0.0;
  for (auto& w : sweeps_by_object_) w.clear();
  for (auto& per_task : epoch_by_object_task_) {
    for (auto& v : per_task) v = 0.0;
  }
}

double AccessOracle::ObjectEpochAccesses(std::size_t object) const {
  double sum = epoch_by_object_[object];
  for (const SweepWindow& w : sweeps_by_object_[object]) sum += w.accesses;
  return sum;
}

double AccessOracle::TaskEpochAccesses(TaskId task) const {
  double sum = 0;
  if (task >= max_task_) return 0;
  for (const auto& per_task : epoch_by_object_task_) sum += per_task[task];
  return sum;
}

double AccessOracle::TotalEpochAccesses() const {
  double sum = 0;
  for (std::size_t i = 0; i < epoch_by_object_.size(); ++i) {
    sum += ObjectEpochAccesses(i);
  }
  return sum;
}

double AccessOracle::TaskObjectEpochAccesses(std::size_t object,
                                             TaskId task) const {
  if (task >= max_task_) return 0;
  return epoch_by_object_task_[object][task];
}

double AccessOracle::ObjectLifetimeAccesses(std::size_t object) const {
  return lifetime_by_object_[object];
}

std::uint64_t AccessOracle::num_pages() const { return pages_->num_pages(); }

std::size_t AccessOracle::LocateObject(PageId p) const {
  // One-entry memo: consecutive probes usually land in the same extent.
  if (last_located_ < handles_.size()) {
    const hm::ObjectExtent& e = pages_->extent(handles_[last_located_]);
    if (p >= e.first_page && p < e.first_page + e.num_pages &&
        pages_->is_live(handles_[last_located_])) {
      return last_located_;
    }
  }
  // The page table's sorted-extent binary search, mapped back to the
  // workload object index (policies may register extra scratch objects
  // the oracle does not track).
  const std::optional<ObjectId> id = pages_->ObjectOfPage(p);
  if (id.has_value() && *id < index_of_handle_.size()) {
    const std::size_t idx = index_of_handle_[*id];
    if (idx < handles_.size()) last_located_ = idx;
    return idx;
  }
  return std::numeric_limits<std::size_t>::max();
}

double AccessOracle::EpochAccesses(PageId p) const {
  const std::size_t obj = LocateObject(p);
  if (obj == std::numeric_limits<std::size_t>::max()) return 0.0;
  // Idle-object short cut (bit-identical: zero static accesses times any
  // page fraction is exactly +0.0, and there are no windows to add).
  if (epoch_by_object_[obj] == 0.0 && sweeps_by_object_[obj].empty()) {
    return 0.0;
  }
  const hm::ObjectExtent& e = pages_->extent(handles_[obj]);
  const std::uint64_t idx = p - e.first_page;
  // Swept-but-statically-idle objects skip the heat-profile evaluation:
  // zero times any finite positive fraction is exactly +0.0.
  const double stat = epoch_by_object_[obj];
  double sum =
      stat == 0.0
          ? 0.0
          : stat * workload_->objects[obj].heat.PageFraction(idx, e.num_pages);
  // Sweep windows: this page's rank interval is [idx/n, (idx+1)/n);
  // each window spreads its accesses uniformly over [f0, f1).
  const double n = static_cast<double>(e.num_pages);
  const double r0 = static_cast<double>(idx) / n;
  const double r1 = static_cast<double>(idx + 1) / n;
  for (const SweepWindow& w : sweeps_by_object_[obj]) {
    const double lo = std::max(r0, w.f0);
    const double hi = std::min(r1, w.f1);
    if (hi > lo && w.f1 > w.f0) {
      sum += w.accesses * (hi - lo) / (w.f1 - w.f0);
    }
  }
  return sum;
}

void AccessOracle::EpochAccessesBatch(std::span<const PageId> pages,
                                      std::span<double> out) const {
  const std::size_t n = pages.size();
  std::size_t i = 0;
  while (i < n) {
    const std::size_t obj = LocateObject(pages[i]);
    if (obj == std::numeric_limits<std::size_t>::max()) {
      out[i] = 0.0;
      ++i;
      continue;
    }
    const hm::ObjectExtent& e = pages_->extent(handles_[obj]);
    const PageId end = e.first_page + e.num_pages;
    std::size_t j = i + 1;
    while (j < n && pages[j] >= e.first_page && pages[j] < end) ++j;
    const double stat = epoch_by_object_[obj];
    const auto& windows = sweeps_by_object_[obj];
    if (stat == 0.0 && windows.empty()) {
      for (; i < j; ++i) out[i] = 0.0;  // idle object: whole run is zero
      continue;
    }
    const trace::HeatProfile& heat = workload_->objects[obj].heat;
    const double np = static_cast<double>(e.num_pages);
    // Uniform heat gives every page the same fraction (PageFraction
    // returns 1.0/n verbatim), so the static product hoists out of the
    // loop with identical bits. Zipf stays per-page (pow of the rank).
    const bool skip_static = stat == 0.0;
    const bool uniform = heat.kind() == trace::HeatProfile::Kind::kUniform;
    const double uniform_static =
        (skip_static || !uniform) ? 0.0 : stat * (1.0 / np);
    for (; i < j; ++i) {
      const std::uint64_t idx = pages[i] - e.first_page;
      double sum = skip_static ? 0.0
                   : uniform   ? uniform_static
                               : stat * heat.PageFraction(idx, e.num_pages);
      const double r0 = static_cast<double>(idx) / np;
      const double r1 = static_cast<double>(idx + 1) / np;
      for (const SweepWindow& w : windows) {
        const double lo = std::max(r0, w.f0);
        const double hi = std::min(r1, w.f1);
        if (hi > lo && w.f1 > w.f0) {
          sum += w.accesses * (hi - lo) / (w.f1 - w.f0);
        }
      }
      out[i] = sum;
    }
  }
}

double AccessOracle::EpochAccessesFloor(PageId p) const {
  const std::size_t obj = LocateObject(p);
  if (obj == std::numeric_limits<std::size_t>::max()) return 0.0;
  const hm::ObjectExtent& ext = pages_->extent(handles_[obj]);
  if (ext.num_pages == 0) return 0.0;
  // Static term: PageFraction is non-increasing in the page rank (Zipf
  // decays, uniform is flat), so rank n-1 carries the smallest share.
  const double e = epoch_by_object_[obj];
  double bound = 0.0;
  if (e > 0.0) {
    bound = e * workload_->objects[obj].heat.PageFraction(ext.num_pages - 1,
                                                          ext.num_pages);
  }
  // Window term: each page interval of width 1/n integrates the windows'
  // point density, so it collects at least (min density over [0,1)) / n.
  // A sweep over window edges finds that minimum; any coverage gap makes
  // it zero. Fully swept objects — the ones that fill DRAM during a
  // region — thus get a positive floor even with no static heat.
  const auto& windows = sweeps_by_object_[obj];
  if (!windows.empty()) {
    std::vector<std::pair<double, double>> edges;  // (coordinate, +/-density)
    edges.reserve(2 * windows.size());
    for (const SweepWindow& w : windows) {
      if (w.f1 > w.f0 && w.accesses > 0.0) {
        const double d = w.accesses / (w.f1 - w.f0);
        edges.emplace_back(w.f0, d);
        edges.emplace_back(w.f1, -d);
      }
    }
    double dmin = std::numeric_limits<double>::infinity();
    if (edges.empty()) {
      dmin = 0.0;
    } else {
      std::sort(edges.begin(), edges.end());
      double cur = 0.0;
      double x = 0.0;
      std::size_t k = 0;
      while (k < edges.size()) {
        const double nx = edges[k].first;
        if (nx > x) dmin = std::min(dmin, cur);
        while (k < edges.size() && edges[k].first == nx) {
          cur += edges[k].second;
          ++k;
        }
        x = nx;
      }
      if (x < 1.0) dmin = std::min(dmin, cur);
    }
    if (std::isfinite(dmin) && dmin > 0.0) {
      bound += dmin / static_cast<double>(ext.num_pages);
    }
  }
  // Relative shave: the bound is derived with fresh roundings, so give
  // back a hair more than accumulated FP error before comparing against
  // per-page values computed along a different operation sequence.
  return bound * (1.0 - 1e-9);
}

hm::Tier AccessOracle::PageTier(PageId p) const {
  return pages_->page_tier(p);
}

ObjectId AccessOracle::PageObject(PageId p) const {
  const std::size_t obj = LocateObject(p);
  if (obj == std::numeric_limits<std::size_t>::max()) return kInvalidObject;
  return static_cast<ObjectId>(obj);
}

TaskId AccessOracle::PageTask(PageId p) const {
  const ObjectId obj = PageObject(p);
  if (obj == kInvalidObject) return kInvalidTask;
  return workload_->objects[obj].owner;
}

}  // namespace merch::sim
