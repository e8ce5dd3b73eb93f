// Decision-path benchmark: what the online decision math (Eq. 1
// estimation, homogeneous bounds, Algorithm 1 over Eq. 2) costs inside
// real Merchandiser runs.
//
//   1. Full Engine::Run of the five applications under the Merchandiser
//      policy at scales 1 and 0.05, against one trained correlation
//      function. The correlation function's profile cache gives each row
//      three states, reported apart: the first run probes through the
//      scalar fallback (first sight of every task's PMCs), the second
//      builds the specializations, and every later run finds them
//      cached. After those two runs each row is repeated (--repeat N,
//      default 5) and reports the min, median and interquartile range of
//      the run's summed per-region decision seconds and of its wall
//      clock. The bench exits 1 if any run of a row disagrees with the
//      first on a decision or on the simulated makespan.
//   2. Model-call costs on a real task's PMCs: one scalar
//      CorrelationFunction::Evaluate, one specialization build (the
//      profile cache's miss cost), and one probe of a cached profile.
//      These are what the profile cache trades against each other.
//
// Writes BENCH_policy.json (override with --out <path>); --quick trains a
// smaller correlation function and runs scale 0.05 only, for CI smoke
// runs.
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

struct MerchRun {
  double wall_seconds = 0;
  double decision_seconds = 0;  // summed over regions
  double sim_seconds = 0;
  std::vector<core::InstanceDecision> decisions;
};

/// One Engine::Run under a fresh Merchandiser policy. Policy construction
/// (incl. the offline homogeneous timing) happens outside the timed
/// section.
MerchRun RunMerchOnce(const std::string& app, double scale, double work,
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
  MerchRun run;
  run.wall_seconds = Now() - t0;
  run.sim_seconds = result.total_seconds;
  run.decisions = policy->decisions();
  for (const core::InstanceDecision& d : run.decisions) {
    run.decision_seconds += d.decision_seconds;
  }
  return run;
}

/// Repetitions must make bitwise-identical decisions.
bool SameDecisions(const std::vector<core::InstanceDecision>& a,
                   const std::vector<core::InstanceDecision>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].tasks != b[i].tasks || a[i].dram_fraction != b[i].dram_fraction ||
        a[i].predicted_seconds != b[i].predicted_seconds ||
        a[i].t_pm_only != b[i].t_pm_only ||
        a[i].t_dram_only != b[i].t_dram_only ||
        a[i].estimated_accesses != b[i].estimated_accesses ||
        a[i].greedy_rounds != b[i].greedy_rounds) {
      return false;
    }
  }
  return true;
}

struct Row {
  std::string app;
  double scale = 1.0;
  std::size_t regions = 0;
  int greedy_rounds = 0;
  double sim_seconds = 0;
  bench::RepeatTiming wall;
  bench::RepeatTiming decision;  // cached specializations
  double first_decision_seconds = 0;  // scalar fallback
  double build_decision_seconds = 0;  // specializations built
};

/// One cold run, one run that builds the profile cache, then `repeats`
/// summarized runs of RunMerchOnce; exits 1 if any run disagrees with the
/// first on a decision or on the simulated makespan.
Row MeasureRow(const std::string& app, double scale, double work, bool quick,
               int repeats) {
  Row row;
  row.app = app;
  row.scale = scale;
  const MerchRun first = RunMerchOnce(app, scale, work, quick);
  std::vector<double> walls, decisions;
  for (int rep = 1; rep < 2 + repeats; ++rep) {
    const MerchRun run = RunMerchOnce(app, scale, work, quick);
    if (run.sim_seconds != first.sim_seconds ||
        !SameDecisions(run.decisions, first.decisions)) {
      std::fprintf(stderr,
                   "%s @ %g: run %d disagrees with the first "
                   "(sim %.9g vs %.9g)\n",
                   app.c_str(), scale, rep, run.sim_seconds,
                   first.sim_seconds);
      std::exit(1);
    }
    if (rep == 1) {
      row.build_decision_seconds = run.decision_seconds;
      continue;
    }
    walls.push_back(run.wall_seconds);
    decisions.push_back(run.decision_seconds);
  }
  row.regions = first.decisions.size();
  for (const core::InstanceDecision& d : first.decisions) {
    row.greedy_rounds += d.greedy_rounds;
  }
  row.sim_seconds = first.sim_seconds;
  row.first_decision_seconds = first.decision_seconds;
  row.wall = bench::Summarize(std::move(walls));
  row.decision = bench::Summarize(std::move(decisions));
  return row;
}

struct ModelCallCosts {
  double scalar_us = 0;
  double specialize_us = 0;
  double probe_us = 0;
};

/// Per-call costs on `pmcs`, each the median of `repeats` timed batches.
/// Specialization builds use feature rows no decision has seen (the first
/// selected event is nudged per build), so each one pays the full
/// construction.
ModelCallCosts MeasureModelCalls(const core::CorrelationFunction& corr,
                                 const sim::EventVector& pmcs, int repeats) {
  constexpr int kProbes = 2000;
  constexpr int kBuilds = 20;
  double sink = 0;
  const auto per_probe_us = [&](const auto& evaluate) {
    return bench::MeasureRepeated(repeats, [&] {
             const double t0 = Now();
             for (int i = 0; i < kProbes; ++i) {
               sink += evaluate(static_cast<double>(i) / kProbes);
             }
             return (Now() - t0) / kProbes * 1e6;
           }).median_seconds;
  };
  ModelCallCosts costs;
  costs.scalar_us =
      per_probe_us([&](double r) { return corr.Evaluate(pmcs, r); });
  int nudge = 0;
  costs.specialize_us = bench::MeasureRepeated(repeats, [&] {
                          double seconds = 0;
                          for (int i = 0; i < kBuilds; ++i) {
                            sim::EventVector row = pmcs;
                            row[corr.events().front()] += 1e-9 * ++nudge;
                            corr.MakeProfile(row);  // first sight: fallback
                            const double t0 = Now();
                            corr.MakeProfile(row);  // second sight: builds
                            seconds += Now() - t0;
                          }
                          return seconds / kBuilds * 1e6;
                        }).median_seconds;
  corr.MakeProfile(pmcs);
  const core::CorrelationProfile profile = corr.MakeProfile(pmcs);
  costs.probe_us =
      per_probe_us([&](double r) { return profile.Evaluate(r); });
  if (sink == 42.0) std::fputc(' ', stderr);  // keep the calls observable
  return costs;
}

void WriteJson(const char* path, const std::vector<Row>& rows,
               const ModelCallCosts& calls, bool quick, int repeats) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"policy_speed\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"repeats\": %d,\n", repeats);
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"app\": \"%s\", \"scale\": %g, \"regions\": %zu, "
        "\"greedy_rounds\": %d, \"sim_seconds\": %.9g, "
        "\"decision_seconds\": %.6f, \"decision_median_seconds\": %.6f, "
        "\"decision_iqr_seconds\": %.6f, "
        "\"first_decision_seconds\": %.6f, "
        "\"build_decision_seconds\": %.6f, "
        "\"wall_seconds\": %.6f, \"wall_median_seconds\": %.6f, "
        "\"wall_iqr_seconds\": %.6f}%s\n",
        r.app.c_str(), r.scale, r.regions, r.greedy_rounds, r.sim_seconds,
        r.decision.min_seconds, r.decision.median_seconds,
        r.decision.iqr_seconds, r.first_decision_seconds,
        r.build_decision_seconds, r.wall.min_seconds,
        r.wall.median_seconds, r.wall.iqr_seconds,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"model_call_us\": {\"scalar_evaluate\": %.3f, "
               "\"specialize\": %.3f, \"profile_probe\": %.4f}\n",
               calls.scalar_us, calls.specialize_us, calls.probe_us);
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
  const char* out = "BENCH_policy.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeats = std::max(1, std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--repeat N] [--out <path>]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::vector<double> scales =
      quick ? std::vector<double>{0.05} : std::vector<double>{1.0, 0.05};
  const double work = quick ? 0.05 : 1.0;

  std::printf("=== policy_speed: five apps x merch, %d repetitions ===\n",
              repeats);
  std::vector<Row> rows;
  TextTable table({"application", "scale", "decision min ms", "median ms",
                   "IQR ms", "first ms", "build ms", "wall median s",
                   "IQR s"});
  for (const double scale : scales) {
    for (const std::string& app : apps::AppNames()) {
      Row row = MeasureRow(app, scale, work, quick, repeats);
      table.AddRow({app, TextTable::Num(scale),
                    TextTable::Num(row.decision.min_seconds * 1e3),
                    TextTable::Num(row.decision.median_seconds * 1e3),
                    TextTable::Num(row.decision.iqr_seconds * 1e3),
                    TextTable::Num(row.first_decision_seconds * 1e3),
                    TextTable::Num(row.build_decision_seconds * 1e3),
                    TextTable::Num(row.wall.median_seconds),
                    TextTable::Num(row.wall.iqr_seconds)});
      rows.push_back(std::move(row));
    }
  }
  table.Print();

  // Model-call costs on the first captured task's PMCs.
  sim::EventVector pmcs{};
  {
    const MerchRun run =
        RunMerchOnce(apps::AppNames().front(), scales.back(), work, quick);
    if (!run.decisions.empty() &&
        !run.decisions.front().greedy_inputs.empty()) {
      pmcs = run.decisions.front().greedy_inputs.front().pmcs;
    }
  }
  const ModelCallCosts calls = MeasureModelCalls(
      TrainedSystem(quick).correlation(), pmcs, repeats);
  std::printf(
      "\nmodel call: scalar Evaluate %.2f us, specialization build %.1f us, "
      "cached-profile probe %.3f us\n",
      calls.scalar_us, calls.specialize_us, calls.probe_us);

  WriteJson(out, rows, calls, quick, repeats);
  return 0;
}
