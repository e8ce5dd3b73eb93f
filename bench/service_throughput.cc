// Placement-service throughput: jobs/sec for a fixed request grid at pool
// widths 1, 2, 4 and 8, plus the cache-hit speedup of answering the same
// sweep again against a warm service.
//
// The grid is every application under the three untrained policies at two
// downscaled footprints — 30 independent simulations. Jobs are
// embarrassingly parallel (each owns its Engine/PageTable), so on an
// 8-core host the 8-thread row should land near 8x the 1-thread row
// (>= 3x is the acceptance floor); the warm pass answers the whole sweep
// from the LRU cache without simulating and should be >= 10x faster than
// the cold pass.
#include <cstdio>
#include <vector>

#include "apps/registry.h"
#include "service/batch.h"
#include "service/placement_service.h"
#include "service/request.h"

namespace {

using namespace merch;

std::vector<service::PlacementRequest> Grid() {
  std::vector<service::PlacementRequest> requests;
  for (const auto& app : apps::AppNames()) {
    for (const char* policy : {"pm", "mm", "mo"}) {
      for (double scale : {0.02, 0.01}) {
        service::PlacementRequest req;
        req.app = app;
        req.policy = policy;
        req.scale = scale;
        req.work = 0.05;
        requests.push_back(req);
      }
    }
  }
  return requests;
}

}  // namespace

int main() {
  const std::vector<service::PlacementRequest> requests = Grid();
  std::printf("service_throughput: %zu requests (%zu apps x 3 policies x 2 "
              "scales)\n\n",
              requests.size(), apps::AppNames().size());
  std::printf("%-8s %12s %12s %10s\n", "threads", "wall [s]", "jobs/s",
              "speedup");

  double base_jobs_per_second = 0;
  double cold_wall = 0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    service::PlacementService svc(
        {.threads = threads, .cache_capacity = requests.size()});
    const service::BatchReport cold =
        service::RunBatch(svc, requests, service::BatchMode::kPerRequest);
    if (threads == 1) base_jobs_per_second = cold.jobs_per_second;
    std::printf("%-8zu %12.2f %12.2f %9.2fx\n", threads, cold.wall_seconds,
                cold.jobs_per_second,
                base_jobs_per_second > 0
                    ? cold.jobs_per_second / base_jobs_per_second
                    : 1.0);
    if (threads == 8) {
      cold_wall = cold.wall_seconds;
      const service::BatchReport warm =
          service::RunBatch(svc, requests, service::BatchMode::kPerRequest);
      const service::ServiceStats stats = svc.Stats();
      std::printf("\nwarm repeat (8 threads): %.4fs  (%.0f jobs/s)  "
                  "cache-hit speedup %.0fx\n",
                  warm.wall_seconds, warm.jobs_per_second,
                  warm.wall_seconds > 0 ? cold_wall / warm.wall_seconds : 0);
      std::printf("cache: hits %llu  misses %llu  evictions %llu\n",
                  static_cast<unsigned long long>(stats.cache.hits),
                  static_cast<unsigned long long>(stats.cache.misses),
                  static_cast<unsigned long long>(stats.cache.evictions));
    }
  }
  return 0;
}
