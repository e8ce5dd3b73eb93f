#include "core/homogeneous.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

#include "common/stats.h"

namespace merch::core {

double SimilarityScale(const std::vector<std::uint64_t>& base_sizes,
                       const std::vector<std::uint64_t>& new_sizes) {
  assert(base_sizes.size() == new_sizes.size());
  std::vector<double> base(base_sizes.begin(), base_sizes.end());
  std::vector<double> now(new_sizes.begin(), new_sizes.end());
  const double cos = CosineSimilarity(base, now);
  double norm_base = 0, norm_new = 0;
  for (const double v : base) norm_base += v * v;
  for (const double v : now) norm_new += v * v;
  if (norm_base <= 0) return 1.0;
  return cos * std::sqrt(norm_new / norm_base);
}

HomogeneousPredictor HomogeneousPredictor::Prepare(
    const sim::Workload& workload, const sim::MachineSpec& machine) {
  assert(!workload.regions.empty());
  // Offline measurement workload: just the base region.
  sim::Workload base;
  base.name = workload.name + "_base";
  base.objects = workload.objects;
  base.regions.push_back(workload.regions.front());

  sim::SimConfig cfg;
  cfg.interval_seconds = 1e9;
  // A forced tier times every access on that tier wherever its page sits,
  // so tier capacity only decides whether the objects can be registered.
  // Give PM room for all of them at this run's page size: a footprint that
  // fits the real run's (smaller) pages must not fail here.
  sim::MachineSpec roomy = machine;
  std::uint64_t need = 0;
  for (const sim::ObjectDecl& o : base.objects) {
    need += (o.bytes + cfg.page_bytes - 1) / cfg.page_bytes * cfg.page_bytes;
  }
  std::uint64_t& pm_capacity = roomy.hm[hm::Tier::kPm].capacity_bytes;
  pm_capacity = std::max(pm_capacity, need);
  const sim::SimResult pm =
      sim::SimulateHomogeneous(base, roomy, hm::Tier::kPm, cfg);
  const sim::SimResult dram =
      sim::SimulateHomogeneous(base, roomy, hm::Tier::kDram, cfg);

  HomogeneousPredictor pred;
  const sim::Region& region = workload.regions.front();
  pred.base_sizes_ = region.active_bytes.empty()
                         ? std::vector<std::uint64_t>()
                         : region.active_bytes;
  if (pred.base_sizes_.empty()) {
    for (const sim::ObjectDecl& o : workload.objects) {
      pred.base_sizes_.push_back(o.bytes);
    }
  }
  for (std::size_t ti = 0; ti < region.tasks.size(); ++ti) {
    TaskProfile profile;
    profile.pm_seconds = pm.regions.at(0).tasks.at(ti).kernel_seconds;
    profile.dram_seconds = dram.regions.at(0).tasks.at(ti).kernel_seconds;
    std::set<std::size_t> touched;
    for (const sim::Kernel& k : region.tasks[ti].kernels) {
      for (const trace::ObjectAccess& a : k.accesses) {
        touched.insert(a.object);
      }
    }
    profile.objects.assign(touched.begin(), touched.end());
    pred.per_task_[region.tasks[ti].task] = std::move(profile);
  }
  return pred;
}

double HomogeneousPredictor::Predict(
    TaskId task, hm::Tier tier,
    const std::vector<std::uint64_t>& new_sizes) const {
  const auto it = per_task_.find(task);
  if (it == per_task_.end()) return 0.0;
  const TaskProfile& profile = it->second;
  // Similarity over the task's own input objects only.
  std::vector<std::uint64_t> base_sub, new_sub;
  for (const std::size_t obj : profile.objects) {
    if (obj < base_sizes_.size() && obj < new_sizes.size()) {
      base_sub.push_back(base_sizes_[obj]);
      new_sub.push_back(new_sizes[obj]);
    }
  }
  const double scale = base_sub.empty()
                           ? SimilarityScale(base_sizes_, new_sizes)
                           : SimilarityScale(base_sub, new_sub);
  const std::vector<double>& times =
      tier == hm::Tier::kPm ? profile.pm_seconds : profile.dram_seconds;
  double total = 0;
  for (const double t : times) total += t;
  return total * scale;
}

}  // namespace merch::core
