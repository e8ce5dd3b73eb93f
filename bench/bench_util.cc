#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "baselines/memory_mode_policy.h"
#include "baselines/memory_optimizer.h"
#include "baselines/pm_only.h"

namespace merch::bench {

RepeatTiming MeasureRepeated(int repeats,
                             const std::function<double()>& sample) {
  repeats = std::max(1, repeats);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) samples.push_back(sample());
  std::sort(samples.begin(), samples.end());
  const auto quantile = [&](double q) {
    const double h = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(h);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] +
           (h - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
  };
  RepeatTiming t;
  t.repeats = repeats;
  t.min_seconds = samples.front();
  const std::size_t mid = samples.size() / 2;
  t.median_seconds = samples.size() % 2 == 1
                         ? samples[mid]
                         : 0.5 * (samples[mid - 1] + samples[mid]);
  t.iqr_seconds = quantile(0.75) - quantile(0.25);
  return t;
}

sim::MachineSpec PaperMachine() { return sim::MachineSpec::Paper(); }

sim::SimConfig PaperSimConfig() {
  sim::SimConfig cfg;
  cfg.epoch_seconds = 0.05;
  cfg.interval_seconds = 0.5;
  cfg.page_bytes = 2 * MiB;
  cfg.migration_gbps = 2.0;
  cfg.seed = 42;
  return cfg;
}

const core::MerchandiserSystem& TrainedSystem() {
  static const core::MerchandiserSystem* kSystem = [] {
    std::fprintf(stderr,
                 "[bench] training correlation function "
                 "(281 code regions x 10 placements)...\n");
    workloads::TrainingConfig cfg;  // paper defaults: 281 x 10
    auto* system =
        new core::MerchandiserSystem(core::MerchandiserSystem::Train(cfg));
    std::fprintf(stderr, "[bench] GBR test R^2 = %.3f\n",
                 system->correlation().test_r2());
    return system;
  }();
  return *kSystem;
}

const apps::AppBundle& Bundle(const std::string& name) {
  static auto* cache = new std::map<std::string, apps::AppBundle>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    it = cache->emplace(name, apps::BuildApp(name)).first;
  }
  return it->second;
}

const sim::SimResult& Run(const std::string& app, const std::string& policy) {
  static auto* cache = new std::map<std::string, sim::SimResult>();
  const std::string key = app + "/" + policy;
  const auto it = cache->find(key);
  if (it != cache->end()) return it->second;

  const apps::AppBundle& bundle = Bundle(app);
  const sim::MachineSpec machine = PaperMachine();
  const sim::SimConfig cfg = PaperSimConfig();

  sim::SimResult result;
  if (policy == kPmOnly) {
    baselines::PmOnlyPolicy p;
    result = sim::Engine(bundle.workload, machine, cfg, &p).Run();
  } else if (policy == kMemoryMode) {
    baselines::MemoryModePolicy p;
    result = sim::Engine(bundle.workload, machine, cfg, &p).Run();
  } else if (policy == kMemoryOptimizer) {
    baselines::MemoryOptimizerPolicy p;
    result = sim::Engine(bundle.workload, machine, cfg, &p).Run();
  } else if (policy == kMerchandiser) {
    auto p = TrainedSystem().MakePolicy(bundle.workload, machine);
    result = sim::Engine(bundle.workload, machine, cfg, p.get()).Run();
  } else {
    std::fprintf(stderr, "unknown policy %s\n", policy.c_str());
    std::abort();
  }
  return cache->emplace(key, std::move(result)).first->second;
}

}  // namespace merch::bench
