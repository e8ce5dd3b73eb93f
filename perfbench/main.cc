// perfbench — the C++ half of the repository benchmark (run.py runs it).
// Every subcommand reads generated request files, does one kind
// of work against the placement service, and writes its results as
// ResultLine()s plus a flat JSON summary that run.py checks and reduces:
//
//   record  run request files through one service; write result lines and
//           app footprints (how the expected results were produced)
//   cold    every request on a fresh 1-thread PlacementService (run.py
//           starts one process per cold request)
//   probe   parse requests and construct one idle service (cold set-up)
//   sweep   fresh nproc-wide service + training warm-up (set-up), then
//           passes of distinct keys: one through
//           service::RunBatch(kPerRequest) for the pass wall, before or
//           after one or more through SubmitAsync (the same Submit path)
//           for per-request latencies
//   replay  traced layer-by-layer replay (replay.cc)
//   warm    drive a merchd --listen server closed-loop (load.cc)
//   load    the serve workload's hit + miss streams (load.cc)
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "common.h"
#include "service/batch.h"
#include "service/placement_service.h"

namespace perfbench {

int RunReplay(const Args& args);
int RunWarm(const Args& args);
int RunLoad(const Args& args);

namespace {

using merch::service::PlacementRequest;
using merch::service::PlacementResult;
using merch::service::PlacementService;
using merch::service::ServiceStats;

/// Accumulated service counters across the services a command created.
struct StatTotals {
  std::uint64_t simulated = 0, coalesced = 0, cache_hits = 0,
                cache_misses = 0, greedy_hits = 0, greedy_misses = 0;

  void Add(const ServiceStats& s) {
    simulated += s.simulated;
    coalesced += s.coalesced;
    cache_hits += s.cache.hits;
    cache_misses += s.cache.misses;
    greedy_hits += s.greedy_hits;
    greedy_misses += s.greedy_misses;
  }
  void WriteTo(Json& out) const {
    out.Int("simulated", simulated)
        .Int("coalesced", coalesced)
        .Int("cache_hits", cache_hits)
        .Int("cache_misses", cache_misses)
        .Int("greedy_hits", greedy_hits)
        .Int("greedy_misses", greedy_misses);
  }
};

int RunRecord(const Args& args) {
  const std::vector<PlacementRequest> requests =
      LoadRequests(args.Get("requests"));
  PlacementService svc({.threads = static_cast<std::size_t>(
                            args.Num("threads", 1)),
                        .cache_capacity = requests.size() + 8,
                        .queue_capacity = requests.size() + 8});
  const merch::service::BatchReport report = merch::service::RunBatch(
      svc, requests, merch::service::BatchMode::kPerRequest);
  std::vector<std::string> lines;
  for (const PlacementResult& r : report.results) {
    lines.push_back(ResultLine(r));
  }
  WriteLines(args.Get("results"), lines);

  // App footprints, straight from apps::BuildApp: the invariant run.py
  // checks placement bytes against.
  std::map<std::string, std::uint64_t> footprints;
  for (const PlacementRequest& req : requests) {
    char key[160];
    std::snprintf(key, sizeof key, "%s|%.17g|%.17g", req.app.c_str(),
                  req.scale, req.work);
    if (footprints.count(key) != 0) continue;
    const merch::apps::AppBundle bundle =
        merch::apps::BuildApp(req.app, req.scale, req.work);
    std::uint64_t bytes = 0;
    for (const auto& obj : bundle.workload.objects) bytes += obj.bytes;
    footprints[key] = bytes;
  }
  std::vector<std::string> fp_lines;
  for (const auto& [key, bytes] : footprints) {
    fp_lines.push_back(key + "\t" + std::to_string(bytes));
  }
  WriteLines(args.Get("footprints"), fp_lines);
  return 0;
}

int RunProbe(const Args& args) {
  const std::vector<PlacementRequest> requests =
      LoadRequests(args.Get("requests"));
  PlacementService svc({.threads = 1});
  svc.Shutdown();
  return requests.empty() ? 1 : 0;
}

int RunCold(const Args& args) {
  const std::vector<PlacementRequest> requests =
      LoadRequests(args.Get("requests"));
  const std::size_t hits_per_request =
      static_cast<std::size_t>(args.Num("hits", 0));
  std::vector<double> seconds, hit_us;
  std::uint64_t hit_misses = 0;
  std::vector<std::string> keys, lines;
  StatTotals totals;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const double t0 = Now();
    PlacementResult result;
    ServiceStats stats;
    {
      PlacementService svc({.threads = 1});
      result = svc.Submit(requests[i]).future.get();
      seconds.push_back(Now() - t0);
      // The repeat of an answered request: served from the ResultCache.
      for (std::size_t k = 0; k < hits_per_request; ++k) {
        const double h0 = Now();
        const PlacementService::Ticket t = svc.Submit(requests[i]);
        t.future.wait();
        hit_us.push_back((Now() - h0) * 1e6);
        if (!t.cache_hit) ++hit_misses;
      }
      stats = svc.Stats();
    }
    totals.Add(stats);
    keys.push_back(merch::service::CanonicalKey(requests[i]));
    lines.push_back(ResultLine(result));
  }
  WriteLines(args.Get("results"), lines);
  Json out;
  out.StrArray("keys", keys)
      .Array("seconds", seconds)
      .Array("hit_us", hit_us)
      .Int("hit_misses", hit_misses);
  totals.WriteTo(out);
  out.Num("peak_rss_mb", PeakRssMb()).WriteTo(args.Get("out"));
  return 0;
}

/// Submit every request through SubmitAsync and record, per request, the
/// time from its submission to its completion callback.
std::vector<PlacementResult> RunTimedBatch(
    PlacementService& svc, const std::vector<PlacementRequest>& requests,
    std::vector<double>* latency) {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t pending = requests.size();
  std::vector<PlacementResult> results(requests.size());
  latency->assign(requests.size(), 0);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const double t0 = Now();
    svc.SubmitAsync(requests[i], [&, i, t0](const PlacementResult& r) {
      const double t1 = Now();
      std::lock_guard<std::mutex> lock(mu);
      (*latency)[i] = t1 - t0;
      results[i] = r;
      if (--pending == 0) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return pending == 0; });
  return results;
}

int RunSweep(const Args& args) {
  const std::vector<PlacementRequest> warm = LoadRequests(args.Get("warm"));
  const std::vector<PlacementRequest> batch = LoadRequests(args.Get("batch"));
  // --timed: comma-separated request files, one SubmitAsync pass each.
  std::vector<std::vector<PlacementRequest>> timed;
  std::size_t requests = warm.size() + batch.size();
  std::stringstream timed_files(args.Get("timed"));
  for (std::string path; std::getline(timed_files, path, ',');) {
    timed.push_back(LoadRequests(path));
    if (timed.back().empty()) Die("empty timed pass " + path);
    requests += timed.back().size();
  }
  const std::size_t threads = static_cast<std::size_t>(args.Num("threads", 1));
  const std::size_t hit_rounds = static_cast<std::size_t>(args.Num("hits", 0));
  const bool batch_first = args.Num("batch-first", 1) != 0;
  if (warm.empty() || batch.empty() || timed.empty()) {
    Die("sweep needs --warm, --batch and --timed");
  }

  const double t0 = Now();
  PlacementService svc({.threads = threads, .cache_capacity = requests});
  for (const PlacementRequest& req : warm) {
    const PlacementResult r = svc.Submit(req).future.get();
    if (!r.ok()) Die("warm-up request failed: " + r.error);
  }
  const double setup = Now() - t0;

  // The pass wall comes from RunBatch itself, so a change to how it pushes
  // a batch into the service shows; it reports no per-request times, which
  // the timed passes supply.
  merch::service::BatchReport report;
  std::vector<double> latency;
  std::vector<PlacementResult> timed_results;
  double timed_wall = 0;
  auto run_batch = [&] {
    report = merch::service::RunBatch(svc, batch,
                                      merch::service::BatchMode::kPerRequest);
  };
  auto run_timed = [&] {
    for (const std::vector<PlacementRequest>& pass : timed) {
      std::vector<double> pass_latency;
      const double t1 = Now();
      const std::vector<PlacementResult> results =
          RunTimedBatch(svc, pass, &pass_latency);
      timed_wall += Now() - t1;
      latency.insert(latency.end(), pass_latency.begin(), pass_latency.end());
      timed_results.insert(timed_results.end(), results.begin(),
                           results.end());
    }
  };
  if (batch_first) {
    run_batch();
    run_timed();
  } else {
    run_timed();
    run_batch();
  }

  std::vector<std::string> lines, keys;
  for (const PlacementResult& r : report.results) {
    lines.push_back(ResultLine(r));
  }
  for (const PlacementResult& r : timed_results) {
    lines.push_back(ResultLine(r));
    keys.push_back(merch::service::CanonicalKey(r.request));
  }
  // Repeats of the batch pass: served from the ResultCache.
  std::vector<double> hit_us;
  std::uint64_t hit_misses = 0;
  for (std::size_t k = 0; k < hit_rounds; ++k) {
    for (const PlacementRequest& req : batch) {
      const double h0 = Now();
      const PlacementService::Ticket t = svc.Submit(req);
      t.future.wait();
      hit_us.push_back((Now() - h0) * 1e6);
      if (!t.cache_hit) ++hit_misses;
    }
  }
  WriteLines(args.Get("results"), lines);
  Json out;
  out.Num("setup_seconds", setup)
      .Num("wall_seconds", report.wall_seconds)
      .Num("timed_wall_seconds", timed_wall)
      .StrArray("keys", keys)
      .Array("latency_seconds", latency)
      .Array("hit_us", hit_us)
      .Int("hit_misses", hit_misses);
  StatTotals totals;
  totals.Add(svc.Stats());
  totals.WriteTo(out);
  out.Num("peak_rss_mb", PeakRssMb()).WriteTo(args.Get("out"));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench record|cold|probe|sweep|replay|warm|load "
                 "[--flag value ...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args(argc, argv, 2);
  if (cmd == "record") return RunRecord(args);
  if (cmd == "cold") return RunCold(args);
  if (cmd == "probe") return RunProbe(args);
  if (cmd == "sweep") return RunSweep(args);
  if (cmd == "replay") return RunReplay(args);
  if (cmd == "warm") return RunWarm(args);
  if (cmd == "load") return RunLoad(args);
  Die("unknown command '" + cmd + "'");
}
