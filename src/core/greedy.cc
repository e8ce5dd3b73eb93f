#include "core/greedy.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>

namespace merch::core {
namespace {

std::uint64_t MapToPages(double r, const GreedyTaskInput& task) {
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

/// Per-task evaluation state: the correlation function specialized on the
/// task's PMCs (CorrelationProfile — tree ensembles collapse to a
/// piecewise-constant function of r, so a probe costs a binary search).
/// Predict replicates PredictHybrid operation for operation — same clamp,
/// same r >= 1 shortcut, shared Combine — so it is bitwise equal to the
/// scalar call, including on the profile's scalar fallback.
class TaskEvaluator {
 public:
  TaskEvaluator(const GreedyTaskInput& task, const PerformanceModel& model)
      : task_(&task), profile_(model.correlation().MakeProfile(task.pmcs)) {}

  double Predict(double r) const {
    const double rc = std::clamp(r, 0.0, 1.0);
    if (rc >= 1.0) return task_->t_dram_only;
    return PerformanceModel::Combine(task_->t_pm_only, task_->t_dram_only, rc,
                                     profile_.Evaluate(rc));
  }

 private:
  const GreedyTaskInput* task_;
  CorrelationProfile profile_;
};

}  // namespace

GreedyResult RunGreedyAllocation(std::span<const GreedyTaskInput> tasks,
                                 std::uint64_t dram_capacity_pages,
                                 const PerformanceModel& model,
                                 GreedyConfig config) {
  const std::size_t n = tasks.size();
  GreedyResult result;
  result.dram_fraction.assign(n, 0.0);
  result.dram_pages.assign(n, 0);
  result.predicted_seconds.resize(n);
  if (n == 0) return result;

  // Lines 6-8: initialise allocations to zero, D' to the PM-only times.
  for (std::size_t i = 0; i < n; ++i) {
    result.predicted_seconds[i] = tasks[i].t_pm_only;
  }
  // Evaluators are built lazily — a task that never becomes the longest
  // never pays for its profile.
  std::vector<std::optional<TaskEvaluator>> evals(n);
  std::uint64_t pages_used = 0;

  for (int round = 0; round < config.max_rounds; ++round) {
    result.rounds = round + 1;

    // Line 10: longest task (ties go to the lower index). Line 11:
    // second-longest execution time.
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
    // r advances by repeated addition, so later rounds' probes bitwise
    // extend earlier ones.
    if (!evals[longest]) evals[longest].emplace(tasks[longest], model);
    const TaskEvaluator& ev = *evals[longest];
    double r = result.dram_fraction[longest];
    double predicted = result.predicted_seconds[longest];
    do {
      r = std::min(1.0, r + config.step);
      predicted = ev.Predict(r);
    } while (predicted > second && r < 1.0 - 1e-9);

    // Lines 17-18: commit and map to a page budget.
    const std::uint64_t new_pages = MapToPages(r, tasks[longest]);

    // Line 19 (capacity guard): if this allocation overflows DRAM, claw the
    // increase back one step at a time until it fits, then stop.
    const std::uint64_t others = pages_used - result.dram_pages[longest];
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
    pages_used = others + fitted_pages;
    result.dram_pages[longest] = fitted_pages;
    // Without a claw-back the commit point is the last probe.
    result.predicted_seconds[longest] =
        fitted_r == r ? predicted : ev.Predict(fitted_r);
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

// ---------------------------------------------------- GreedyResultCache

namespace {

void AppendU64(std::string* s, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    s->push_back(static_cast<char>((v >> (8 * b)) & 0xff));
  }
}

void AppendDouble(std::string* s, double d) {
  AppendU64(s, std::bit_cast<std::uint64_t>(d));
}

}  // namespace

std::string GreedyResultCache::Fingerprint(
    std::span<const GreedyTaskInput> tasks, std::uint64_t dram_capacity_pages,
    const PerformanceModel& model, const GreedyConfig& config) {
  std::string key;
  key.reserve(64 + tasks.size() * 128);
  // Model identity: the correlation function object the predictions come
  // from (owners keep trained systems alive for the cache's lifetime).
  AppendU64(&key,
            static_cast<std::uint64_t>(
                reinterpret_cast<std::uintptr_t>(&model.correlation())));
  AppendU64(&key, dram_capacity_pages);
  AppendDouble(&key, config.step);
  AppendU64(&key, static_cast<std::uint64_t>(config.max_rounds));
  AppendU64(&key, tasks.size());
  for (const GreedyTaskInput& t : tasks) {
    AppendU64(&key, static_cast<std::uint64_t>(t.task));
    AppendDouble(&key, t.t_pm_only);
    AppendDouble(&key, t.t_dram_only);
    AppendDouble(&key, t.total_accesses);
    AppendU64(&key, t.footprint_pages);
    for (const double e : t.pmcs) AppendDouble(&key, e);
    AppendU64(&key, t.pages_for_access_fraction.size());
    for (const auto& [f, p] : t.pages_for_access_fraction) {
      AppendDouble(&key, f);
      AppendDouble(&key, p);
    }
  }
  return key;
}

std::shared_ptr<const GreedyResult> GreedyResultCache::Find(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

void GreedyResultCache::Insert(const std::string& key, GreedyResult result) {
  auto value = std::make_shared<const GreedyResult>(std::move(result));
  std::lock_guard<std::mutex> lock(mu_);
  map_.emplace(key, std::move(value));
}

std::uint64_t GreedyResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t GreedyResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace merch::core
