// Engine hot-path benchmark: wall clock and hot-path counters of the
// simulation engine on real runs.
//
//   1. The tracked sweep: Engine::Run of the five paper applications under
//      all four policies {pm-only, MemoryMode, MemoryOptimizer,
//      Merchandiser} at full scale. Every row is repeated (--repeat N,
//      default 5) and reports the min, median and interquartile range of
//      its wall clock; the bench exits 1 if the repetitions of a row ever
//      disagree on the simulated makespan.
//   2. The same sweep at a second (quarter) scale.
//   3. A PlacementService batch (five apps x {pm, mm, mo}) submitted one
//      request per pool job, and the same batch through SubmitFused (one
//      pool job per shared-app group), each repeated like the rows.
//
// The gated aggregate, five_app_sweep_memo_speedup, is
// sum(timing_evals) / (sum(base_builds) + sum(partial_refreshes)) over the
// tracked sweep: how many timing evaluations each memoized base build or
// refresh serves. It counts work rather than time, so it is deterministic
// and bench_diff's 10% gate on it cannot flake; wall clocks are reported
// for trajectory, not gated.
//
// Writes BENCH_engine.json (override with --out <path>); --quick shrinks
// scales for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "bench/bench_util.h"
#include "baselines/memory_mode_policy.h"
#include "baselines/memory_optimizer.h"
#include "baselines/pm_only.h"
#include "common/table.h"
#include "core/merchandiser.h"
#include "service/batch.h"
#include "service/placement_service.h"
#include "sim/engine.h"
#include "workloads/training.h"

namespace merch {
namespace {

struct RunRow {
  std::string app;
  std::string policy;
  double scale = 1.0;
  bench::RepeatTiming wall;
  double sim_seconds = 0;  // simulated makespan (identical every repetition)
  std::uint64_t epochs = 0;
  std::uint64_t timing_evals = 0;
  std::uint64_t base_builds = 0;
  std::uint64_t partial_refreshes = 0;

  double MemoSpeedup() const {
    const double builds = static_cast<double>(base_builds + partial_refreshes);
    return builds > 0 ? static_cast<double>(timing_evals) / builds : 0;
  }
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One correlation system per process: engine speed, not training speed,
/// is under test, so a reduced training budget keeps the bench short.
const core::MerchandiserSystem& TrainedSystem(bool quick) {
  static const core::MerchandiserSystem* kSystem = [quick] {
    workloads::TrainingConfig cfg;
    cfg.num_regions = quick ? 8 : 40;
    std::fprintf(stderr, "[engine_speed] training correlation (%zu x %zu)\n",
                 cfg.num_regions, cfg.placements_per_region);
    return new core::MerchandiserSystem(core::MerchandiserSystem::Train(cfg));
  }();
  return *kSystem;
}

/// One timed Engine::Run; fills every field of `row` but the wall timing
/// and returns the wall seconds.
double TimeEngineRun(const std::string& app, const std::string& policy,
                     double scale, double work, bool quick, RunRow* row) {
  service::PlacementRequest req;
  req.app = app;
  req.scale = scale;
  req.work = work;
  const apps::AppBundle bundle = apps::BuildApp(app, scale, work);
  const sim::MachineSpec machine =
      service::PlacementService::RequestMachine(req);
  const sim::SimConfig cfg = service::PlacementService::RequestSimConfig(req);

  // Policy construction (incl. Merchandiser's offline steps) happens
  // outside the timed section: the engine's epoch loop is what is tracked.
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
    merch = TrainedSystem(quick).MakePolicy(bundle.workload, machine);
    p = merch.get();
  }

  sim::Engine engine(bundle.workload, machine, cfg, p);
  const double t0 = Now();
  const sim::SimResult result = engine.Run();
  const double wall = Now() - t0;
  const sim::EngineCounters c = engine.counters();

  row->app = app;
  row->policy = policy;
  row->scale = scale;
  row->sim_seconds = result.total_seconds;
  row->epochs = c.epochs;
  row->timing_evals = c.timing_evals;
  row->base_builds = c.base_builds;
  row->partial_refreshes = c.partial_refreshes;
  return wall;
}

/// TimeEngineRun over `repeats` otherwise-identical runs. The engine is
/// deterministic, so every repetition must report the same makespan;
/// exits 1 otherwise.
RunRow TimeEngineRunRepeated(const std::string& app, const std::string& policy,
                             double scale, double work, bool quick,
                             int repeats) {
  RunRow row;
  double first_sim = -1;
  row.wall = bench::MeasureRepeated(repeats, [&] {
    const double wall = TimeEngineRun(app, policy, scale, work, quick, &row);
    if (first_sim >= 0 && row.sim_seconds != first_sim) {
      std::fprintf(stderr,
                   "%s/%s @ %g: repetitions diverged (%.17g vs %.17g)\n",
                   app.c_str(), policy.c_str(), scale, first_sim,
                   row.sim_seconds);
      std::exit(1);
    }
    first_sim = row.sim_seconds;
    return wall;
  });
  return row;
}

/// Wall seconds for a five-app x {pm, mm, mo} batch through the service:
/// one Submit per request, or SubmitFused (one pool job per shared-app
/// group).
double TimeServiceBatch(double scale, double work, service::BatchMode mode) {
  service::PlacementService service({.threads = 2});
  std::vector<service::PlacementRequest> reqs;
  for (const std::string& app : apps::AppNames()) {
    for (const char* policy : {"pm", "mm", "mo"}) {
      service::PlacementRequest req;
      req.app = app;
      req.policy = policy;
      req.scale = scale;
      req.work = work;
      reqs.push_back(req);
    }
  }
  std::vector<service::PlacementService::Ticket> tickets;
  if (mode == service::BatchMode::kFused) {
    tickets = service.SubmitFused(reqs);
  } else {
    for (const service::PlacementRequest& req : reqs) {
      tickets.push_back(service.Submit(req));
    }
  }
  const double t0 = Now();
  for (auto& t : tickets) t.future.wait();
  const double wall = Now() - t0;
  for (auto& t : tickets) {
    const service::PlacementResult& r = t.future.get();
    if (!r.ok()) {
      std::fprintf(stderr, "service run failed: %s\n", r.error.c_str());
      std::exit(1);
    }
  }
  return wall;
}

void WriteJson(const char* path, const std::vector<RunRow>& rows,
               double memo_speedup, const bench::RepeatTiming& per_request,
               const bench::RepeatTiming& fused, bool quick, int repeats) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"engine_speed\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"repeats\": %d,\n", repeats);
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"app\": \"%s\", \"policy\": \"%s\", \"scale\": %g, "
        "\"variant\": \"engine\", \"wall_seconds\": %.6f, "
        "\"wall_median_seconds\": %.6f, \"wall_iqr_seconds\": %.6f, "
        "\"sim_seconds\": %.9g, \"epochs\": %llu, "
        "\"timing_evals\": %llu, \"base_builds\": %llu, "
        "\"partial_refreshes\": %llu, \"memo_speedup\": %.3f}%s\n",
        r.app.c_str(), r.policy.c_str(), r.scale, r.wall.min_seconds,
        r.wall.median_seconds, r.wall.iqr_seconds, r.sim_seconds,
        static_cast<unsigned long long>(r.epochs),
        static_cast<unsigned long long>(r.timing_evals),
        static_cast<unsigned long long>(r.base_builds),
        static_cast<unsigned long long>(r.partial_refreshes),
        r.MemoSpeedup(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"five_app_sweep_memo_speedup\": %.3f,\n", memo_speedup);
  std::fprintf(f,
               "  \"service_batch\": {\"per_request_wall_seconds\": %.6f, "
               "\"per_request_wall_median_seconds\": %.6f, "
               "\"per_request_wall_iqr_seconds\": %.6f, "
               "\"fused_wall_seconds\": %.6f, "
               "\"fused_wall_median_seconds\": %.6f, "
               "\"fused_wall_iqr_seconds\": %.6f, \"fused_speedup\": %.3f}\n",
               per_request.min_seconds, per_request.median_seconds,
               per_request.iqr_seconds, fused.min_seconds,
               fused.median_seconds, fused.iqr_seconds,
               fused.median_seconds > 0
                   ? per_request.median_seconds / fused.median_seconds
                   : 0.0);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace
}  // namespace merch

int main(int argc, char** argv) {
  using namespace merch;
  bool quick = false;
  int repeats = 5;
  const char* out = "BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeats = std::max(1, std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--repeat N] [--out <path>]\n",
                   argv[0]);
      return 2;
    }
  }

  // (scale, work) pairs; the first is the tracked fig4-scale measurement.
  std::vector<std::pair<double, double>> scales;
  if (quick) {
    scales = {{0.05, 0.05}, {0.02, 0.03}};
  } else {
    scales = {{1.0, 1.0}, {0.25, 0.25}};
  }
  const double service_scale = quick ? 0.02 : 0.05;
  const double service_work = quick ? 0.03 : 0.05;

  std::vector<RunRow> rows;
  std::uint64_t sweep_evals = 0, sweep_builds = 0;
  double sweep_median = 0;
  std::printf("=== engine_speed: five apps x {pm, mm, mo, merch}, "
              "%d repetition(s) per row ===\n", repeats);
  TextTable table({"application", "policy", "scale", "min s", "median s",
                   "IQR s", "evals", "builds", "memo x"});
  for (std::size_t s = 0; s < scales.size(); ++s) {
    for (const std::string& app : apps::AppNames()) {
      for (const char* policy : {"pm", "mm", "mo", "merch"}) {
        const RunRow r = TimeEngineRunRepeated(
            app, policy, scales[s].first, scales[s].second, quick, repeats);
        rows.push_back(r);
        if (s == 0) {
          sweep_evals += r.timing_evals;
          sweep_builds += r.base_builds + r.partial_refreshes;
          sweep_median += r.wall.median_seconds;
        }
        table.AddRow({app, policy, TextTable::Num(r.scale),
                      TextTable::Num(r.wall.min_seconds),
                      TextTable::Num(r.wall.median_seconds),
                      TextTable::Num(r.wall.iqr_seconds),
                      std::to_string(r.timing_evals),
                      std::to_string(r.base_builds + r.partial_refreshes),
                      TextTable::Num(r.MemoSpeedup())});
      }
    }
  }
  table.Print();
  const double memo_speedup =
      sweep_builds > 0 ? static_cast<double>(sweep_evals) /
                             static_cast<double>(sweep_builds)
                       : 0;
  std::printf("\nfive-app sweep (scale %g, 4 policies): sum of medians "
              "%.3fs; %llu timing evals over %llu base builds+refreshes "
              "-> memo %.2fx\n",
              scales[0].first, sweep_median,
              static_cast<unsigned long long>(sweep_evals),
              static_cast<unsigned long long>(sweep_builds), memo_speedup);

  std::printf("\n=== engine_speed: service batch (5 apps x pm/mm/mo) ===\n");
  const bench::RepeatTiming per_request =
      bench::MeasureRepeated(repeats, [&] {
        return TimeServiceBatch(service_scale, service_work,
                                service::BatchMode::kPerRequest);
      });
  const bench::RepeatTiming fused = bench::MeasureRepeated(repeats, [&] {
    return TimeServiceBatch(service_scale, service_work,
                            service::BatchMode::kFused);
  });
  std::printf("per-request median %.2fs (IQR %.3fs), fused median %.2fs "
              "(IQR %.3fs) -> %.2fx fused\n",
              per_request.median_seconds, per_request.iqr_seconds,
              fused.median_seconds, fused.iqr_seconds,
              per_request.median_seconds /
                  std::max(fused.median_seconds, 1e-9));

  WriteJson(out, rows, memo_speedup, per_request, fused, quick, repeats);
  return 0;
}
