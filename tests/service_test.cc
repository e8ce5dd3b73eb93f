// Placement-service subsystem tests: thread-pool ordering and shutdown,
// LRU eviction and key canonicalization, in-flight duplicate coalescing,
// request-file parsing, and cross-pool-width determinism (the service must
// return bit-identical results whether it simulates on 1 thread or 8).
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/registry.h"
#include "core/merchandiser.h"
#include "service/batch.h"
#include "service/placement_service.h"
#include "service/request.h"
#include "service/result_cache.h"
#include "service/thread_pool.h"

namespace merch::service {
namespace {

// Small enough that one simulation finishes in well under a second, big
// enough that a job spans many epochs and pages.
PlacementRequest TinyRequest(std::string app, std::string policy,
                             std::uint64_t seed = 42) {
  PlacementRequest req;
  req.app = std::move(app);
  req.policy = std::move(policy);
  req.scale = 0.005;
  req.work = 0.02;
  req.train_regions = 6;
  req.seed = seed;
  return req;
}

PlacementResult MakeResult(double makespan) {
  PlacementResult r;
  r.makespan_seconds = makespan;
  return r;
}

// --- ThreadPool ---

TEST(ThreadPool, RunsEveryAcceptedJob) {
  std::atomic<int> count{0};
  ThreadPool pool(4, 8);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&count] { ++count; }));
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.jobs_accepted(), 100u);
  EXPECT_EQ(pool.jobs_executed(), 100u);
}

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder) {
  std::vector<int> order;
  ThreadPool pool(1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.Submit([&order, i] { order.push_back(i); }));
  }
  pool.Shutdown();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ShutdownDrainsQueuedJobsBeforeJoining) {
  std::atomic<int> count{0};
  ThreadPool pool(1, 64);
  ASSERT_TRUE(pool.Submit(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(30)); }));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.Submit([&count] { ++count; }));
  }
  pool.Shutdown();  // must run the 10 queued jobs, not drop them
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, RejectsSubmissionAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
  EXPECT_EQ(pool.jobs_accepted(), 0u);
}

TEST(ThreadPool, BoundedQueueAppliesBackpressureWithoutDeadlock) {
  std::atomic<int> count{0};
  ThreadPool pool(2, 2);  // queue much smaller than the burst
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(pool.Submit([&count] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ++count;
    }));
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 64);
}

// --- ResultCache ---

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.Put("a", MakeResult(1));
  cache.Put("b", MakeResult(2));
  ASSERT_TRUE(cache.Get("a").has_value());  // bump "a": "b" is now LRU
  cache.Put("c", MakeResult(3));
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  const CacheStats s = cache.Stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.capacity, 2u);
}

TEST(ResultCache, CountsHitsAndMisses) {
  ResultCache cache(4);
  EXPECT_FALSE(cache.Get("x").has_value());
  cache.Put("x", MakeResult(7));
  const auto hit = cache.Get("x");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->makespan_seconds, 7.0);
  const CacheStats s = cache.Stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(ResultCache, PutExistingKeyOverwritesAndRefreshes) {
  ResultCache cache(2);
  cache.Put("a", MakeResult(1));
  cache.Put("b", MakeResult(2));
  cache.Put("a", MakeResult(10));  // refresh "a": "b" becomes LRU
  cache.Put("c", MakeResult(3));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_EQ(cache.Get("a")->makespan_seconds, 10.0);
}

// --- Canonicalization ---

TEST(Canonicalize, ResolvesAppCaseInsensitively) {
  PlacementRequest req = TinyRequest("spgemm", "PM");
  ASSERT_EQ(CanonicalizeRequest(req), "");
  EXPECT_EQ(req.app, "SpGEMM");
  EXPECT_EQ(req.policy, "pm");

  PlacementRequest other = TinyRequest("SPGEMM", "pm");
  ASSERT_EQ(CanonicalizeRequest(other), "");
  EXPECT_EQ(CanonicalKey(req), CanonicalKey(other));
}

TEST(Canonicalize, CollapsesTrainingBudgetForPoliciesThatNeverTrain) {
  PlacementRequest a = TinyRequest("BFS", "pm");
  a.train_regions = 100;
  PlacementRequest b = TinyRequest("BFS", "pm");
  b.train_regions = 281;
  ASSERT_EQ(CanonicalizeRequest(a), "");
  ASSERT_EQ(CanonicalizeRequest(b), "");
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));

  PlacementRequest m1 = TinyRequest("BFS", "merch");
  m1.train_regions = 100;
  PlacementRequest m2 = TinyRequest("BFS", "merch");
  m2.train_regions = 281;
  ASSERT_EQ(CanonicalizeRequest(m1), "");
  ASSERT_EQ(CanonicalizeRequest(m2), "");
  EXPECT_NE(CanonicalKey(m1), CanonicalKey(m2));
}

TEST(Canonicalize, DistinguishesEveryRequestField) {
  PlacementRequest base = TinyRequest("DMRG", "mo");
  ASSERT_EQ(CanonicalizeRequest(base), "");
  for (auto mutate : {+[](PlacementRequest& r) { r.app = "BFS"; },
                      +[](PlacementRequest& r) { r.policy = "mm"; },
                      +[](PlacementRequest& r) { r.scale *= 2; },
                      +[](PlacementRequest& r) { r.work *= 2; },
                      +[](PlacementRequest& r) { r.seed += 1; }}) {
    PlacementRequest changed = base;
    mutate(changed);
    ASSERT_EQ(CanonicalizeRequest(changed), "");
    EXPECT_NE(CanonicalKey(changed), CanonicalKey(base));
  }
}

TEST(Canonicalize, RejectsBadFieldsWithClearMessages) {
  PlacementRequest bad_app = TinyRequest("NoSuchApp", "pm");
  EXPECT_NE(CanonicalizeRequest(bad_app).find("unknown application"),
            std::string::npos);

  PlacementRequest bad_policy = TinyRequest("SpGEMM", "fastest");
  EXPECT_NE(CanonicalizeRequest(bad_policy).find("unknown policy"),
            std::string::npos);

  PlacementRequest bad_scale = TinyRequest("SpGEMM", "pm");
  bad_scale.scale = 0;
  EXPECT_NE(CanonicalizeRequest(bad_scale), "");

  // Non-finite scale/work are rejected, not simulated as an empty app.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {inf, -inf, nan}) {
    PlacementRequest scale = TinyRequest("SpGEMM", "pm");
    scale.scale = v;
    EXPECT_NE(CanonicalizeRequest(scale).find("scale must be finite"),
              std::string::npos)
        << v;
    PlacementRequest work = TinyRequest("SpGEMM", "pm");
    work.work = v;
    EXPECT_NE(CanonicalizeRequest(work).find("work must be finite"),
              std::string::npos)
        << v;
  }

  PlacementRequest bad_train = TinyRequest("SpGEMM", "merch");
  bad_train.train_regions = 0;
  EXPECT_NE(CanonicalizeRequest(bad_train), "");

  // Training cost grows with the budget: 10x the paper's 281 regions is
  // the ceiling.
  PlacementRequest huge_train = TinyRequest("SpGEMM", "merch");
  huge_train.train_regions = 2810;
  EXPECT_EQ(CanonicalizeRequest(huge_train), "");
  huge_train.train_regions = 2811;
  EXPECT_EQ(CanonicalizeRequest(huge_train), "train_regions must be <= 2810");
}

// --- Request-file parsing ---

TEST(ParseRequestLine, ParsesKeyValueTokensInAnyOrder) {
  PlacementRequest req;
  std::string err;
  ASSERT_EQ(ParseRequestLine(
                "seed=9 app=BFS scale=0.25 policy=mo work=0.5 train_regions=3",
                &req, &err),
            ParseStatus::kRequest);
  EXPECT_EQ(req.app, "BFS");
  EXPECT_EQ(req.policy, "mo");
  EXPECT_EQ(req.scale, 0.25);
  EXPECT_EQ(req.work, 0.5);
  EXPECT_EQ(req.train_regions, 3u);
  EXPECT_EQ(req.seed, 9u);
}

TEST(ParseRequestLine, SkipsBlankAndCommentLines) {
  PlacementRequest req;
  std::string err;
  EXPECT_EQ(ParseRequestLine("", &req, &err), ParseStatus::kSkip);
  EXPECT_EQ(ParseRequestLine("   ", &req, &err), ParseStatus::kSkip);
  EXPECT_EQ(ParseRequestLine("# app=BFS", &req, &err), ParseStatus::kSkip);
}

TEST(ParseRequestLine, ReportsMalformedTokens) {
  PlacementRequest req;
  std::string err;
  EXPECT_EQ(ParseRequestLine("app=BFS bogus", &req, &err),
            ParseStatus::kError);
  EXPECT_NE(err.find("bogus"), std::string::npos);
  EXPECT_EQ(ParseRequestLine("scale=fast", &req, &err), ParseStatus::kError);
  EXPECT_EQ(ParseRequestLine("speed=1.0", &req, &err), ParseStatus::kError);
}

// --- PlacementService ---

TEST(PlacementService, InvalidRequestYieldsReadyErrorFuture) {
  PlacementService svc({.threads = 1});
  auto ticket = svc.Submit(TinyRequest("NoSuchApp", "pm"));
  const PlacementResult r = ticket.future.get();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("unknown application"), std::string::npos);
  EXPECT_EQ(svc.Stats().failed, 1u);
}

/// The small end of the scale domain: a footprint scaled until objects no
/// longer fit one page of the scaled tiers must come back as a valid
/// result or a clear error, never a crash (the engine throws
/// std::invalid_argument naming the object; RunRequest reports it).
TEST(PlacementService, TinyScalesGiveAResultOrAnError) {
  workloads::TrainingConfig training;
  training.num_regions = 4;
  const core::MerchandiserSystem system =
      core::MerchandiserSystem::Train(training);
  for (const std::string& app : apps::AppNames()) {
    for (const double scale : {1e-6, 1e-9}) {
      bool ok[2] = {};
      for (const int p : {0, 1}) {
        const char* policy = p == 0 ? "pm" : "merch";
        PlacementRequest req{app, policy, scale, 0.05, 4, 42};
        ASSERT_EQ(CanonicalizeRequest(req), "");
        const PlacementResult r =
            PlacementService::RunRequest(req, &system, nullptr);
        SCOPED_TRACE(app + "/" + policy + " @ " + std::to_string(scale));
        ok[p] = r.ok();
        if (r.ok()) {
          EXPECT_TRUE(std::isfinite(r.makespan_seconds));
          EXPECT_GT(r.makespan_seconds, 0);
          EXPECT_FALSE(r.placements.empty());
        } else {
          EXPECT_NE(r.error.find("does not fit"), std::string::npos)
              << r.error;
        }
        // Nothing fits a page of a 1e-9-scaled machine.
        if (scale == 1e-9) {
          EXPECT_FALSE(r.ok());
        }
      }
      // merch's offline homogeneous bound runs add no failure of their
      // own: it gives a result exactly when pm does.
      EXPECT_EQ(ok[1], ok[0]) << app << " @ " << scale;
    }
  }
}

TEST(PlacementService, CoalescesConcurrentDuplicatesIntoOneSimulation) {
  PlacementService svc({.threads = 1});
  // Occupy the single worker so the duplicates below stay in flight.
  auto blocker = svc.Submit(TinyRequest("SpGEMM", "pm"));

  const PlacementRequest dup = TinyRequest("BFS", "pm");
  std::vector<PlacementService::Ticket> tickets;
  for (int i = 0; i < 5; ++i) tickets.push_back(svc.Submit(dup));

  std::size_t coalesced = 0;
  for (const auto& t : tickets) coalesced += t.coalesced ? 1 : 0;
  EXPECT_EQ(coalesced, 4u);  // first starts the job, the rest join it

  const PlacementResult first = tickets[0].future.get();
  ASSERT_TRUE(first.ok());
  for (auto& t : tickets) {
    const PlacementResult r = t.future.get();
    EXPECT_EQ(r.makespan_seconds, first.makespan_seconds);
  }
  blocker.future.wait();

  const ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.coalesced, 4u);
  EXPECT_EQ(stats.simulated, 2u);  // blocker + one shared duplicate job

  // Identical request after completion: served from cache, no new job.
  auto cached = svc.Submit(dup);
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(cached.future.get().makespan_seconds, first.makespan_seconds);
  EXPECT_EQ(svc.Stats().simulated, 2u);
}

TEST(PlacementService, ResultsAreBitIdenticalAcrossPoolWidths) {
  const std::vector<PlacementRequest> requests = {
      TinyRequest("SpGEMM", "pm", 9), TinyRequest("BFS", "mo", 9),
      TinyRequest("WarpX", "mm", 9), TinyRequest("DMRG", "merch", 9)};

  PlacementService narrow({.threads = 1});
  PlacementService wide({.threads = 8});
  const BatchReport a = RunBatch(narrow, requests, BatchMode::kPerRequest);
  const BatchReport b = RunBatch(wide, requests, BatchMode::kPerRequest);

  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const PlacementResult& ra = a.results[i];
    const PlacementResult& rb = b.results[i];
    ASSERT_TRUE(ra.ok()) << ra.error;
    ASSERT_TRUE(rb.ok()) << rb.error;
    // Exact floating-point equality on purpose: same request + seed must
    // reproduce bit-identical results regardless of service concurrency.
    EXPECT_EQ(ra.makespan_seconds, rb.makespan_seconds);
    EXPECT_EQ(ra.task_cov, rb.task_cov);
    EXPECT_EQ(ra.migrated_bytes, rb.migrated_bytes);
    ASSERT_EQ(ra.placements.size(), rb.placements.size());
    for (std::size_t j = 0; j < ra.placements.size(); ++j) {
      EXPECT_EQ(ra.placements[j].object, rb.placements[j].object);
      EXPECT_EQ(ra.placements[j].dram_fraction,
                rb.placements[j].dram_fraction);
    }
  }
}

TEST(PlacementService, SubmitFusedMatchesPerRequestSubmissionBitwise) {
  // All five policies over one SpGEMM instance share a fused group (one
  // app build), BFS rides alone, a duplicate coalesces, and a bad request
  // fails — all in one batch, answers indexed like the input. Every
  // answer, placements included, must be bit-identical to a plain Submit.
  std::vector<PlacementRequest> requests = {
      TinyRequest("SpGEMM", "pm", 7),     TinyRequest("SpGEMM", "mm", 7),
      TinyRequest("SpGEMM", "mo", 7),     TinyRequest("SpGEMM", "sparta", 7),
      TinyRequest("SpGEMM", "merch", 7),  TinyRequest("BFS", "mo", 7),
      TinyRequest("SpGEMM", "pm", 7),     TinyRequest("NoSuchApp", "pm", 7)};

  PlacementService fused_svc({.threads = 2});
  auto tickets = fused_svc.SubmitFused(requests);
  ASSERT_EQ(tickets.size(), requests.size());
  EXPECT_TRUE(tickets[6].coalesced);  // duplicate of requests[0]

  PlacementService plain_svc({.threads = 2});
  for (std::size_t i = 0; i + 1 < requests.size(); ++i) {
    const PlacementResult f = tickets[i].future.get();
    const PlacementResult p = plain_svc.Submit(requests[i]).future.get();
    ASSERT_TRUE(f.ok()) << f.error;
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_EQ(f.makespan_seconds, p.makespan_seconds) << i;
    EXPECT_EQ(f.task_cov, p.task_cov) << i;
    EXPECT_EQ(f.migrated_bytes, p.migrated_bytes) << i;
    EXPECT_EQ(f.regions, p.regions) << i;
    ASSERT_EQ(f.placements.size(), p.placements.size()) << i;
    for (std::size_t j = 0; j < f.placements.size(); ++j) {
      EXPECT_EQ(f.placements[j].object, p.placements[j].object);
      EXPECT_EQ(f.placements[j].bytes, p.placements[j].bytes);
      EXPECT_EQ(f.placements[j].dram_fraction, p.placements[j].dram_fraction);
    }
  }
  const PlacementResult bad = tickets.back().future.get();
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("unknown application"), std::string::npos);

  const ServiceStats stats = fused_svc.Stats();
  EXPECT_EQ(stats.fused_groups, 1u);  // the five-policy SpGEMM group
  EXPECT_EQ(stats.failed, 1u);

  // Completed fused answers land in the same cache as Submit's.
  auto cached = fused_svc.Submit(requests[0]);
  EXPECT_TRUE(cached.cache_hit);
}

TEST(PlacementService, SeedIsPartOfTheRequestIdentity) {
  PlacementService svc({.threads = 2});
  auto t1 = svc.Submit(TinyRequest("BFS", "mo", 1));
  auto t2 = svc.Submit(TinyRequest("BFS", "mo", 2));
  ASSERT_TRUE(t1.future.get().ok());
  ASSERT_TRUE(t2.future.get().ok());
  // Different seeds are different requests: no coalescing, no cache hit.
  EXPECT_FALSE(t2.cache_hit);
  EXPECT_FALSE(t2.coalesced);
  EXPECT_EQ(svc.Stats().simulated, 2u);
}

}  // namespace
}  // namespace merch::service
