// Decision-path benchmark: measures what the flattened batched GBR
// inference, the incremental heap greedy, and the policy memoization buy.
//
// Each measurement runs in two variants:
//   legacy    — MERCH_FLAT_FOREST=0, MERCH_GREEDY_HEAP=0,
//               MERCH_POLICY_MEMO=0: pointer-chasing per-tree inference,
//               per-round full-rescan Algorithm 1 with one scalar model
//               evaluation per probe, no candidate/curve memoization.
//   optimized — the defaults (SoA flat forest + PredictBatch, lazy-deletion
//               max-heap greedy probing through per-task partial
//               specializations of the correlation function, decision memos).
// Both variants run the same (single-path) engine: this bench isolates
// the decision path.
// Results are bit-identical between variants (tests/decision_equiv_test.cc
// and the equality gates below); only the wall clock differs.
//
//   1. The tracked number: a greedy-replay microbenchmark — every
//      Algorithm 1 call a full Merchandiser run of each application made,
//      replayed standalone from the captured InstanceDecision inputs,
//      legacy vs optimized. The PR this bench landed with requires >= 2x
//      on DMRG.
//   2. Full Engine::Run of the five applications under the Merchandiser
//      policy, with the per-region decision seconds broken out.
//   3. A GBR inference microbenchmark: scalar Evaluate over an r grid vs
//      one PrefixRow + EvaluateGrid batch.
//   4. A PlacementService batch (five apps x merch) through the env
//      escape hatches, with the shared greedy warm-start cache counters.
//
// Writes BENCH_policy.json (override with --out <path>); --quick shrinks
// scales for CI smoke runs; --repeat N reports min/median over N runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "bench/bench_util.h"
#include "common/table.h"
#include "core/greedy.h"
#include "core/merchandiser.h"
#include "service/placement_service.h"
#include "sim/engine.h"
#include "workloads/training.h"

namespace merch {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One correlation system per process: decision speed, not training speed,
/// is under test, so a reduced training budget keeps the bench short.
const core::MerchandiserSystem& TrainedSystem(bool quick) {
  static const core::MerchandiserSystem* kSystem = [quick] {
    workloads::TrainingConfig cfg;
    cfg.num_regions = quick ? 8 : 40;
    std::fprintf(stderr, "[policy_speed] training correlation (%zu x %zu)\n",
                 cfg.num_regions, cfg.placements_per_region);
    return new core::MerchandiserSystem(core::MerchandiserSystem::Train(cfg));
  }();
  return *kSystem;
}

void SetLegacyEnv(bool legacy) {
  if (legacy) {
    setenv("MERCH_FLAT_FOREST", "0", 1);
    setenv("MERCH_GREEDY_HEAP", "0", 1);
    setenv("MERCH_POLICY_MEMO", "0", 1);
  } else {
    unsetenv("MERCH_FLAT_FOREST");
    unsetenv("MERCH_GREEDY_HEAP");
    unsetenv("MERCH_POLICY_MEMO");
  }
}

struct FullRun {
  double wall_seconds = 0;
  double wall_median_seconds = 0;
  double decision_seconds = 0;  // summed over regions
  double sim_seconds = 0;
  std::vector<core::InstanceDecision> decisions;
};

/// One Engine::Run under the Merchandiser policy. Policy construction
/// (incl. the offline homogeneous timing) happens outside the timed
/// section; the env hatches must already be set by the caller.
FullRun RunMerchOnce(const std::string& app, double scale, double work,
                     bool quick) {
  service::PlacementRequest req;
  req.app = app;
  req.scale = scale;
  req.work = work;
  const apps::AppBundle bundle = apps::BuildApp(app, scale, work);
  const sim::MachineSpec machine =
      service::PlacementService::RequestMachine(req);
  const sim::SimConfig cfg = service::PlacementService::RequestSimConfig(req);
  const auto policy = TrainedSystem(quick).MakePolicy(bundle.workload, machine);

  sim::Engine engine(bundle.workload, machine, cfg, policy.get());
  const double t0 = Now();
  const sim::SimResult result = engine.Run();
  FullRun fr;
  fr.wall_seconds = Now() - t0;
  fr.sim_seconds = result.total_seconds;
  fr.decisions = policy->decisions();
  for (const core::InstanceDecision& d : fr.decisions) {
    fr.decision_seconds += d.decision_seconds;
  }
  return fr;
}

FullRun RunMerchRepeated(const std::string& app, double scale, double work,
                         bool quick, int repeats) {
  FullRun fr;
  const bench::RepeatTiming t = bench::MeasureRepeated(repeats, [&] {
    fr = RunMerchOnce(app, scale, work, quick);
    return fr.wall_seconds;
  });
  fr.wall_seconds = t.min_seconds;
  fr.wall_median_seconds = t.median_seconds;
  return fr;
}

bool SameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

/// The two variants must make bitwise-identical decisions end to end.
bool SameDecisions(const std::vector<core::InstanceDecision>& a,
                   const std::vector<core::InstanceDecision>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].tasks != b[i].tasks ||
        !SameDoubles(a[i].dram_fraction, b[i].dram_fraction) ||
        !SameDoubles(a[i].predicted_seconds, b[i].predicted_seconds) ||
        !SameDoubles(a[i].t_pm_only, b[i].t_pm_only) ||
        !SameDoubles(a[i].t_dram_only, b[i].t_dram_only) ||
        !SameDoubles(a[i].estimated_accesses, b[i].estimated_accesses) ||
        a[i].greedy_rounds != b[i].greedy_rounds) {
      return false;
    }
  }
  return true;
}

bool SameGreedyResult(const core::GreedyResult& a,
                      const core::GreedyResult& b) {
  return SameDoubles(a.dram_fraction, b.dram_fraction) &&
         a.dram_pages == b.dram_pages &&
         SameDoubles(a.predicted_seconds, b.predicted_seconds) &&
         a.rounds == b.rounds;
}

/// One pass: replay every captured Algorithm 1 call of `decisions`.
double ReplayPass(const std::vector<core::InstanceDecision>& decisions,
                  const core::PerformanceModel& model, bool incremental,
                  int inner) {
  core::GreedyConfig cfg;
  cfg.incremental = incremental;
  const double t0 = Now();
  for (int it = 0; it < inner; ++it) {
    for (const core::InstanceDecision& d : decisions) {
      const core::GreedyResult r = core::RunGreedyAllocation(
          d.greedy_inputs, d.dram_capacity_pages, model, cfg);
      if (r.rounds < 0) std::abort();  // keep the call observable
    }
  }
  return (Now() - t0) / inner;
}

struct ReplayRow {
  std::string app;
  std::size_t decisions = 0;
  bench::RepeatTiming legacy;
  bench::RepeatTiming optimized;
  double speedup = 0;
};

/// Wall seconds for a five-app merch batch through the service; the env
/// hatches must already be set by the caller.
double TimeServiceBatch(double scale, double work,
                        std::uint64_t* greedy_hits,
                        std::uint64_t* greedy_misses) {
  service::PlacementService service({.threads = 2});
  std::vector<service::PlacementService::Ticket> tickets;
  for (const std::string& app : apps::AppNames()) {
    service::PlacementRequest req;
    req.app = app;
    req.policy = "merch";
    req.scale = scale;
    req.work = work;
    req.train_regions = 8;
    tickets.push_back(service.Submit(req));
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
  const service::ServiceStats stats = service.Stats();
  if (greedy_hits != nullptr) *greedy_hits = stats.greedy_hits;
  if (greedy_misses != nullptr) *greedy_misses = stats.greedy_misses;
  return wall;
}

struct FullRow {
  std::string app;
  FullRun legacy;
  FullRun optimized;
};

void WriteJson(const char* path, const std::vector<FullRow>& full,
               const std::vector<ReplayRow>& replay, double tracked_speedup,
               double gbr_rows, double gbr_scalar, double gbr_batched,
               double service_legacy, double service_optimized,
               std::uint64_t greedy_hits, std::uint64_t greedy_misses,
               bool quick, int repeats) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"policy_speed\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"repeat\": %d,\n", repeats);
  std::fprintf(f, "  \"full_runs\": [\n");
  for (std::size_t i = 0; i < full.size(); ++i) {
    const FullRow& r = full[i];
    std::fprintf(
        f,
        "    {\"app\": \"%s\", \"legacy_wall_seconds\": %.6f, "
        "\"optimized_wall_seconds\": %.6f, "
        "\"legacy_decision_seconds\": %.6f, "
        "\"optimized_decision_seconds\": %.6f, "
        "\"sim_seconds\": %.9g, \"regions\": %zu, "
        "\"wall_speedup\": %.3f, \"decision_speedup\": %.3f}%s\n",
        r.app.c_str(), r.legacy.wall_seconds, r.optimized.wall_seconds,
        r.legacy.decision_seconds, r.optimized.decision_seconds,
        r.optimized.sim_seconds, r.optimized.decisions.size(),
        r.optimized.wall_seconds > 0
            ? r.legacy.wall_seconds / r.optimized.wall_seconds
            : 0.0,
        r.optimized.decision_seconds > 0
            ? r.legacy.decision_seconds / r.optimized.decision_seconds
            : 0.0,
        i + 1 < full.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"greedy_replay\": [\n");
  for (std::size_t i = 0; i < replay.size(); ++i) {
    const ReplayRow& r = replay[i];
    std::fprintf(
        f,
        "    {\"app\": \"%s\", \"decisions\": %zu, "
        "\"legacy_seconds\": %.6f, \"legacy_median_seconds\": %.6f, "
        "\"optimized_seconds\": %.6f, \"optimized_median_seconds\": %.6f, "
        "\"speedup\": %.3f}%s\n",
        r.app.c_str(), r.decisions, r.legacy.min_seconds,
        r.legacy.median_seconds, r.optimized.min_seconds,
        r.optimized.median_seconds, r.speedup,
        i + 1 < replay.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"tracked\": {\"app\": \"DMRG\", "
               "\"greedy_replay_speedup\": %.3f},\n",
               tracked_speedup);
  std::fprintf(f,
               "  \"gbr_inference\": {\"rows\": %.0f, "
               "\"scalar_seconds\": %.6f, \"batched_seconds\": %.6f, "
               "\"speedup\": %.3f},\n",
               gbr_rows, gbr_scalar, gbr_batched,
               gbr_batched > 0 ? gbr_scalar / gbr_batched : 0.0);
  std::fprintf(f,
               "  \"service_batch\": {\"legacy_wall_seconds\": %.6f, "
               "\"optimized_wall_seconds\": %.6f, \"speedup\": %.3f, "
               "\"greedy_cache_hits\": %llu, "
               "\"greedy_cache_misses\": %llu}\n",
               service_legacy, service_optimized,
               service_optimized > 0 ? service_legacy / service_optimized
                                     : 0.0,
               static_cast<unsigned long long>(greedy_hits),
               static_cast<unsigned long long>(greedy_misses));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace
}  // namespace merch

int main(int argc, char** argv) {
  using namespace merch;
  bool quick = false;
  int repeats = 1;
  const char* out = "BENCH_policy.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--repeat N] [--out <path>]\n",
                   argv[0]);
      return 2;
    }
  }

  const double scale = quick ? 0.05 : 1.0;
  const double work = quick ? 0.05 : 1.0;
  const double service_scale = quick ? 0.02 : 0.05;
  const double service_work = quick ? 0.03 : 0.05;

  // 1. Full Merchandiser runs, legacy vs optimized decision path. The
  // decisions captured here (exact Algorithm 1 inputs per region) feed the
  // replay microbenchmark below.
  std::printf("=== policy_speed: five apps x merch, full runs ===\n");
  std::vector<FullRow> full;
  TextTable table({"application", "legacy s", "optimized s", "speedup",
                   "decision legacy s", "decision opt s", "dec speedup"});
  for (const std::string& app : apps::AppNames()) {
    FullRow row;
    row.app = app;
    SetLegacyEnv(true);
    row.legacy = RunMerchRepeated(app, scale, work, quick, repeats);
    SetLegacyEnv(false);
    row.optimized = RunMerchRepeated(app, scale, work, quick, repeats);
    if (row.legacy.sim_seconds != row.optimized.sim_seconds ||
        !SameDecisions(row.legacy.decisions, row.optimized.decisions)) {
      std::fprintf(stderr,
                   "%s: decision-path variants diverged "
                   "(sim %.9g vs %.9g)\n",
                   app.c_str(), row.legacy.sim_seconds,
                   row.optimized.sim_seconds);
      return 1;
    }
    table.AddRow(
        {app, TextTable::Num(row.legacy.wall_seconds),
         TextTable::Num(row.optimized.wall_seconds),
         TextTable::Num(row.legacy.wall_seconds /
                        std::max(row.optimized.wall_seconds, 1e-9)),
         TextTable::Num(row.legacy.decision_seconds),
         TextTable::Num(row.optimized.decision_seconds),
         TextTable::Num(row.legacy.decision_seconds /
                        std::max(row.optimized.decision_seconds, 1e-9))});
    full.push_back(std::move(row));
  }
  table.Print();

  // 2. The tracked number: greedy replay from the captured inputs. Every
  // pass re-runs every Algorithm 1 call of the app's whole run; min over
  // max(repeats, 3) samples.
  std::printf("\n=== policy_speed: Algorithm 1 replay ===\n");
  const core::PerformanceModel model(&TrainedSystem(quick).correlation());
  const int inner = quick ? 5 : 20;
  const int replay_repeats = std::max(repeats, 3);
  std::vector<ReplayRow> replay;
  double tracked_speedup = 0;
  TextTable rtable({"application", "decisions", "legacy s/pass",
                    "optimized s/pass", "speedup"});
  for (const FullRow& fr : full) {
    const std::vector<core::InstanceDecision>& ds = fr.optimized.decisions;
    if (ds.empty()) continue;
    // Equality gate first: both variants, every decision, exact result.
    for (const core::InstanceDecision& d : ds) {
      core::GreedyConfig legacy_cfg, opt_cfg;
      legacy_cfg.incremental = false;
      opt_cfg.incremental = true;
      const core::GreedyResult a = core::RunGreedyAllocation(
          d.greedy_inputs, d.dram_capacity_pages, model, legacy_cfg);
      const core::GreedyResult b = core::RunGreedyAllocation(
          d.greedy_inputs, d.dram_capacity_pages, model, opt_cfg);
      if (!SameGreedyResult(a, b)) {
        std::fprintf(stderr, "%s region %zu: greedy variants diverged\n",
                     fr.app.c_str(), d.region);
        return 1;
      }
    }
    ReplayRow row;
    row.app = fr.app;
    row.decisions = ds.size();
    row.legacy = bench::MeasureRepeated(
        replay_repeats, [&] { return ReplayPass(ds, model, false, inner); });
    row.optimized = bench::MeasureRepeated(
        replay_repeats, [&] { return ReplayPass(ds, model, true, inner); });
    row.speedup =
        row.legacy.min_seconds / std::max(row.optimized.min_seconds, 1e-12);
    if (fr.app == "DMRG") tracked_speedup = row.speedup;
    rtable.AddRow({row.app, std::to_string(row.decisions),
                   TextTable::Num(row.legacy.min_seconds),
                   TextTable::Num(row.optimized.min_seconds),
                   TextTable::Num(row.speedup)});
    replay.push_back(std::move(row));
  }
  rtable.Print();
  std::printf("\ntracked: DMRG Algorithm 1 replay speedup %.2fx\n",
              tracked_speedup);

  // 3. GBR inference: scalar Evaluate vs PrefixRow + EvaluateGrid over a
  // dense r grid, on a real task's PMCs from the first captured decision.
  std::printf("\n=== policy_speed: GBR inference (scalar vs batched) ===\n");
  double gbr_scalar = 0, gbr_batched = 0, gbr_rows = 0;
  {
    const core::CorrelationFunction& corr = TrainedSystem(quick).correlation();
    sim::EventVector pmcs{};
    for (const FullRow& fr : full) {
      if (!fr.optimized.decisions.empty() &&
          !fr.optimized.decisions.front().greedy_inputs.empty()) {
        pmcs = fr.optimized.decisions.front().greedy_inputs.front().pmcs;
        break;
      }
    }
    const int grid_n = 1001;
    std::vector<double> grid(grid_n), scalar_out(grid_n), batched_out(grid_n);
    for (int i = 0; i < grid_n; ++i) {
      grid[i] = static_cast<double>(i) / (grid_n - 1);
    }
    const int gbr_inner = quick ? 20 : 100;
    gbr_rows = static_cast<double>(grid_n) * gbr_inner;
    gbr_scalar = bench::MeasureRepeated(replay_repeats, [&] {
                   const double t0 = Now();
                   for (int it = 0; it < gbr_inner; ++it) {
                     for (int i = 0; i < grid_n; ++i) {
                       scalar_out[i] = corr.Evaluate(pmcs, grid[i]);
                     }
                   }
                   return Now() - t0;
                 }).min_seconds;
    const std::vector<double> prefix = corr.PrefixRow(pmcs);
    gbr_batched = bench::MeasureRepeated(replay_repeats, [&] {
                    const double t0 = Now();
                    for (int it = 0; it < gbr_inner; ++it) {
                      corr.EvaluateGrid(prefix, grid, batched_out);
                    }
                    return Now() - t0;
                  }).min_seconds;
    if (!SameDoubles(scalar_out, batched_out)) {
      std::fprintf(stderr, "GBR scalar vs batched outputs diverged\n");
      return 1;
    }
    std::printf("%d rows x %d: scalar %.4fs, batched %.4fs -> %.2fx\n",
                grid_n, gbr_inner, gbr_scalar, gbr_batched,
                gbr_scalar / std::max(gbr_batched, 1e-12));
  }

  // 4. Service batch: merch end to end through the env escape hatches,
  // with the shared warm-start cache counters.
  std::printf("\n=== policy_speed: service batch (5 apps x merch) ===\n");
  SetLegacyEnv(true);
  const double service_legacy =
      TimeServiceBatch(service_scale, service_work, nullptr, nullptr);
  SetLegacyEnv(false);
  std::uint64_t greedy_hits = 0, greedy_misses = 0;
  const double service_optimized = TimeServiceBatch(
      service_scale, service_work, &greedy_hits, &greedy_misses);
  std::printf(
      "legacy %.2fs, optimized %.2fs -> %.2fx (greedy cache %llu/%llu)\n",
      service_legacy, service_optimized,
      service_legacy / std::max(service_optimized, 1e-9),
      static_cast<unsigned long long>(greedy_hits),
      static_cast<unsigned long long>(greedy_hits + greedy_misses));

  WriteJson(out, full, replay, tracked_speedup, gbr_rows, gbr_scalar,
            gbr_batched, service_legacy, service_optimized, greedy_hits,
            greedy_misses, quick, repeats);
  return 0;
}
