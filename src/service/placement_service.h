// Merchandiser-as-a-service: a long-lived, concurrent placement-query
// engine on top of the simulator.
//
// Every Submit() turns a PlacementRequest into (at most) one simulation
// job on a fixed ThreadPool. Three layers keep repeated and concurrent
// traffic cheap:
//
//   1. ResultCache — completed canonical requests are served back without
//      re-simulation (placement queries are deterministic; see
//      service/result_cache.h).
//   2. In-flight coalescing — identical requests submitted while the first
//      is still queued or running share one job and one future.
//   3. Trained-system sharing — 'merch' requests reuse one immutable
//      MerchandiserSystem per training budget ("the construction of f
//      happens only once", paper Section 5.1); training is serialized and
//      every simulation job only reads the trained function.
//
// Each simulation owns its Engine/PageTable/Rng state, so jobs are
// embarrassingly parallel and results are bit-identical regardless of the
// pool width.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/registry.h"
#include "core/merchandiser.h"
#include "service/request.h"
#include "service/result_cache.h"
#include "service/thread_pool.h"
#include "sim/engine.h"
#include "sim/machine.h"

namespace merch::service {

/// Point-in-time counters (cache counters come from the ResultCache).
struct ServiceStats {
  std::uint64_t submitted = 0;   // Submit()/SubmitFused() requests
  std::uint64_t coalesced = 0;   // joined an identical in-flight request
  std::uint64_t simulated = 0;   // jobs that actually ran an Engine
  std::uint64_t failed = 0;      // jobs whose result carries an error
  /// SubmitFused groups that shared one app build across >= 2 members.
  std::uint64_t fused_groups = 0;
  /// Shared greedy warm-start cache (see GreedyResultCache): instance
  /// decisions replayed from / inserted into the cross-job memo.
  std::uint64_t greedy_hits = 0;
  std::uint64_t greedy_misses = 0;
  CacheStats cache;
  std::size_t threads = 0;
};

class PlacementService {
 public:
  struct Config {
    std::size_t threads = 1;
    std::size_t cache_capacity = 128;
    std::size_t queue_capacity = 1024;
  };

  /// How a Submit() was satisfied, plus the (shared) result future.
  struct Ticket {
    std::shared_future<PlacementResult> future;
    bool cache_hit = false;   // served from the result cache, no job
    bool coalesced = false;   // joined an existing in-flight job
  };

  explicit PlacementService(Config config);

  /// Drains in-flight jobs (ThreadPool::Shutdown semantics).
  ~PlacementService();

  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;

  /// Canonicalizes and enqueues `request`. Invalid requests yield a ready
  /// future whose result carries the error — Submit itself never throws.
  Ticket Submit(PlacementRequest request);

  /// Batched sweep submission: like one Submit per request (same
  /// canonicalization, cache, and coalescing, ticket i answers request i),
  /// but cache-missing requests that share an application instance — same
  /// (app, scale, work, seed) — are fused into ONE pool job that builds
  /// the app and runs its static analysis once, then runs each member's
  /// engine against the shared instance. Results are bit-identical to
  /// individual Submit()s; only the redundant per-member app construction
  /// and lint passes are elided. Sweep drivers (merchctl sweep --fused)
  /// use this to amortize setup across the policy axis of a sweep.
  std::vector<Ticket> SubmitFused(std::vector<PlacementRequest> requests);

  /// Completion callback: invoked exactly once per SubmitAsync, with the
  /// finished result. Runs on the worker thread that completed the job —
  /// or inline on the caller's thread for cache hits, invalid requests,
  /// and shutdown rejections — so it must be cheap and non-blocking.
  using Callback = std::function<void(const PlacementResult&)>;

  /// Submit + continuation, for callers that must not block on a future
  /// (the net reactor). Coalesces with in-flight identical requests like
  /// Submit(); every coalesced waiter's callback fires when the shared job
  /// completes.
  Ticket SubmitAsync(PlacementRequest request, Callback done);

  /// Cache-only probe: canonicalizes and returns the cached result if
  /// present, without enqueueing anything. Invalid requests return
  /// nullopt. Lets admission control serve warm keys even while shedding
  /// simulation load.
  std::optional<PlacementResult> Peek(PlacementRequest request);

  /// Jobs accepted by the pool but not yet started (shedding signal).
  std::size_t QueueDepth() const;

  /// The result cache (snapshot save/load; see ResultCache::Serialize).
  ResultCache& result_cache() { return cache_; }
  const ResultCache& result_cache() const { return cache_; }

  ServiceStats Stats() const;

  /// Stop accepting work and finish everything accepted so far.
  void Shutdown();

  // --- request plumbing shared with merchctl's direct-run path ---

  /// The evaluation machine with both tier capacities scaled by
  /// `req.scale` (capacity pressure tracks the footprint).
  static sim::MachineSpec RequestMachine(const PlacementRequest& req);

  /// Simulation knobs for `req` (epoch, placement granularity, seed).
  static sim::SimConfig RequestSimConfig(const PlacementRequest& req);

  /// Synchronously run one canonicalized request. `system` may be null for
  /// policies other than 'merch'. Never throws; errors land in the result.
  /// `greedy_cache` (optional, must outlive the call) lets 'merch' runs
  /// warm-start Algorithm 1 from identical decisions made by other jobs
  /// sharing the cache — bit-identical either way, since the cache only
  /// replays exact-input hits.
  static PlacementResult RunRequest(const PlacementRequest& req,
                                    const core::MerchandiserSystem* system,
                                    core::GreedyResultCache* greedy_cache =
                                        nullptr);

  /// The policy-independent half of RunRequest: app construction, the
  /// static-analysis gates, machine and sim config. Shareable across every
  /// request with the same (app, scale, work, seed); a build or lint
  /// failure lands in `error` and fails each member run identically.
  struct PreparedApp {
    apps::AppBundle bundle;
    sim::MachineSpec machine;
    sim::SimConfig cfg;
    std::string error;  // empty = usable
  };
  static PreparedApp PrepareApp(const PlacementRequest& req);

  /// The per-policy half of RunRequest against an already-prepared app.
  /// RunRequest(req, ...) == RunPrepared(PrepareApp(req), req, ...) bit for
  /// bit; fused sweeps call PrepareApp once per group.
  static PlacementResult RunPrepared(const PreparedApp& prepared,
                                     const PlacementRequest& req,
                                     const core::MerchandiserSystem* system,
                                     core::GreedyResultCache* greedy_cache =
                                         nullptr);

 private:
  /// The shared immutable trained system for `train_regions`, training it
  /// on first use. Training is serialized across jobs.
  std::shared_ptr<const core::MerchandiserSystem> TrainedSystem(
      std::size_t train_regions);

  void RunJob(const std::string& key, const PlacementRequest& req,
              std::shared_ptr<std::promise<PlacementResult>> promise);

  /// One cache-missing member of a SubmitFused group.
  struct FusedMember {
    std::string key;
    PlacementRequest req;
    std::shared_ptr<std::promise<PlacementResult>> promise;
  };

  /// Pool job for one fused group: PrepareApp once, then run and finish
  /// every member against the shared instance.
  void RunFusedJob(std::vector<FusedMember> members);

  /// Publish one finished job result: cache insert, in-flight retirement,
  /// stats, promise resolution, queued callbacks. Shared by RunJob and
  /// RunFusedJob.
  void FinishJob(const std::string& key, PlacementResult result,
                 const std::shared_ptr<std::promise<PlacementResult>>& promise);

  /// One in-flight simulation: the shared future every coalesced Submit()
  /// returned, plus the continuations attached by SubmitAsync().
  struct InFlight {
    std::shared_future<PlacementResult> future;
    std::vector<Callback> callbacks;
  };

  Ticket SubmitInternal(PlacementRequest request, Callback done);

  Config config_;
  ResultCache cache_;

  mutable std::mutex mu_;  // guards inflight_ + counters
  std::unordered_map<std::string, InFlight> inflight_;
  std::uint64_t submitted_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t simulated_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t fused_groups_ = 0;

  std::mutex train_mu_;  // serializes training; guards systems_
  std::map<std::size_t, std::shared_ptr<const core::MerchandiserSystem>>
      systems_;

  /// Shared across jobs: parallel sweep points that reach the same
  /// Algorithm 1 inputs replay each other's results (thread-safe; keyed
  /// bitwise, so sharing never changes a result). Declared after systems_
  /// — fingerprints reference correlation functions owned there.
  core::GreedyResultCache greedy_cache_;

  ThreadPool pool_;  // last member: jobs may touch everything above
};

}  // namespace merch::service
