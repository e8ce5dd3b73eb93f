#include "service/placement_service.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <utility>

#include "analysis/depgraph.h"
#include "analysis/ir.h"
#include "analysis/lint.h"
#include "analysis/passes.h"
#include "analysis/summaries.h"
#include "apps/registry.h"
#include "baselines/memory_mode_policy.h"
#include "baselines/memory_optimizer.h"
#include "baselines/pm_only.h"
#include "baselines/static_priority.h"
#include "obs/distributed/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/policy.h"
#include "workloads/training.h"

namespace merch::service {

PlacementService::PlacementService(Config config)
    : config_(config),
      cache_(config.cache_capacity),
      pool_(config.threads, config.queue_capacity) {}

PlacementService::~PlacementService() { Shutdown(); }

void PlacementService::Shutdown() { pool_.Shutdown(); }

PlacementService::Ticket PlacementService::Submit(PlacementRequest request) {
  return SubmitInternal(std::move(request), nullptr);
}

namespace {

/// Application-instance identity: requests with equal fuse keys share
/// BuildApp + static analysis (policy and train_regions deliberately
/// excluded — they only pick the engine's policy object).
std::string FuseKey(const PlacementRequest& req) {
  char buf[192];
  std::snprintf(buf, sizeof buf, "%s|%.17g|%.17g|%llu", req.app.c_str(),
                req.scale, req.work,
                static_cast<unsigned long long>(req.seed));
  return buf;
}

}  // namespace

std::vector<PlacementService::Ticket> PlacementService::SubmitFused(
    std::vector<PlacementRequest> requests) {
  std::vector<Ticket> tickets;
  tickets.reserve(requests.size());
  // Group insertion order is submission order, so job dispatch below stays
  // deterministic for a given request list.
  std::vector<std::string> group_order;
  std::map<std::string, std::vector<FusedMember>> groups;
  for (PlacementRequest& request : requests) {
    Ticket ticket;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++submitted_;
    }
    MERCH_METRIC_COUNT("merch_service_submitted_total", 1);
    if (std::string err = CanonicalizeRequest(request); !err.empty()) {
      PlacementResult bad;
      bad.request = std::move(request);
      bad.error = std::move(err);
      std::promise<PlacementResult> p;
      ticket.future = p.get_future().share();
      p.set_value(std::move(bad));
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++failed_;
      }
      MERCH_METRIC_COUNT("merch_service_failed_total", 1);
      tickets.push_back(std::move(ticket));
      continue;
    }
    const std::string key = CanonicalKey(request);
    if (auto cached = cache_.Get(key)) {
      std::promise<PlacementResult> p;
      ticket.future = p.get_future().share();
      p.set_value(*std::move(cached));
      ticket.cache_hit = true;
      tickets.push_back(std::move(ticket));
      continue;
    }
    auto promise = std::make_shared<std::promise<PlacementResult>>();
    bool joined = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {  // incl. duplicates earlier in this batch
        ++coalesced_;
        ticket.future = it->second.future;
        ticket.coalesced = true;
        joined = true;
      } else {
        ticket.future = promise->get_future().share();
        InFlight entry;
        entry.future = ticket.future;
        inflight_.emplace(key, std::move(entry));
      }
    }
    if (joined) {
      MERCH_METRIC_COUNT("merch_service_coalesced_total", 1);
      MERCH_TRACE_INSTANT(obs::Category::kService, "service.coalesced");
      tickets.push_back(std::move(ticket));
      continue;
    }
    const std::string fuse = FuseKey(request);
    auto [it, inserted] = groups.try_emplace(fuse);
    if (inserted) group_order.push_back(fuse);
    it->second.push_back(
        FusedMember{key, std::move(request), std::move(promise)});
    tickets.push_back(std::move(ticket));
  }

  for (const std::string& fuse : group_order) {
    auto members =
        std::make_shared<std::vector<FusedMember>>(std::move(groups[fuse]));
    if (members->size() > 1) {
      std::lock_guard<std::mutex> lock(mu_);
      ++fused_groups_;
    }
    // The submitter's trace context rides to the worker thread, so the
    // fused-group span lands in the caller's distributed trace.
    const bool accepted = pool_.Submit(
        [this, members, ctx = obs::CurrentTraceContext()] {
          obs::TraceContextScope scope(ctx);
          RunFusedJob(std::move(*members));
        });
    if (!accepted) {  // shutting down: fail the members instead of hanging
      for (FusedMember& m : *members) {
        PlacementResult bad;
        bad.request = m.req;
        bad.error = "service is shutting down";
        std::vector<Callback> callbacks;
        {
          std::lock_guard<std::mutex> lock(mu_);
          auto it = inflight_.find(m.key);
          if (it != inflight_.end()) {
            callbacks = std::move(it->second.callbacks);
            inflight_.erase(it);
          }
          ++failed_;
        }
        MERCH_METRIC_COUNT("merch_service_failed_total", 1);
        if (callbacks.empty()) {
          m.promise->set_value(std::move(bad));
        } else {
          m.promise->set_value(bad);
          for (Callback& cb : callbacks) cb(bad);
        }
      }
    }
  }
  return tickets;
}

PlacementService::Ticket PlacementService::SubmitAsync(
    PlacementRequest request, Callback done) {
  return SubmitInternal(std::move(request), std::move(done));
}

PlacementService::Ticket PlacementService::SubmitInternal(
    PlacementRequest request, Callback done) {
  Ticket ticket;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++submitted_;
  }
  MERCH_METRIC_COUNT("merch_service_submitted_total", 1);
  if (std::string err = CanonicalizeRequest(request); !err.empty()) {
    PlacementResult bad;
    bad.request = std::move(request);
    bad.error = std::move(err);
    std::promise<PlacementResult> p;
    ticket.future = p.get_future().share();
    p.set_value(std::move(bad));
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++failed_;
    }
    MERCH_METRIC_COUNT("merch_service_failed_total", 1);
    if (done) done(ticket.future.get());
    return ticket;
  }
  const std::string key = CanonicalKey(request);

  if (auto cached = cache_.Get(key)) {
    std::promise<PlacementResult> p;
    ticket.future = p.get_future().share();
    p.set_value(*std::move(cached));
    ticket.cache_hit = true;
    if (done) done(ticket.future.get());
    return ticket;
  }

  auto promise = std::make_shared<std::promise<PlacementResult>>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      ++coalesced_;
      MERCH_METRIC_COUNT("merch_service_coalesced_total", 1);
      MERCH_TRACE_INSTANT(obs::Category::kService, "service.coalesced");
      ticket.future = it->second.future;
      ticket.coalesced = true;
      if (done) it->second.callbacks.push_back(std::move(done));
      return ticket;
    }
    ticket.future = promise->get_future().share();
    InFlight entry;
    entry.future = ticket.future;
    if (done) entry.callbacks.push_back(std::move(done));
    inflight_.emplace(key, std::move(entry));
  }

  // Capture the submitter's trace context (e.g. the server's per-request
  // context) so the simulation's spans join the caller's trace.
  const bool accepted = pool_.Submit(
      [this, key, request = std::move(request), promise,
       ctx = obs::CurrentTraceContext()]() mutable {
        obs::TraceContextScope scope(ctx);
        RunJob(key, request, promise);
      });
  if (!accepted) {  // shutting down: fail the request instead of hanging it
    PlacementResult bad;
    bad.error = "service is shutting down";
    std::vector<Callback> callbacks;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        callbacks = std::move(it->second.callbacks);
        inflight_.erase(it);
      }
      ++failed_;
    }
    MERCH_METRIC_COUNT("merch_service_failed_total", 1);
    promise->set_value(std::move(bad));
    for (Callback& cb : callbacks) cb(ticket.future.get());
  }
  return ticket;
}

std::optional<PlacementResult> PlacementService::Peek(
    PlacementRequest request) {
  if (!CanonicalizeRequest(request).empty()) return std::nullopt;
  return cache_.Get(CanonicalKey(request));
}

std::size_t PlacementService::QueueDepth() const {
  return pool_.queue_depth();
}

void PlacementService::RunJob(
    const std::string& key, const PlacementRequest& req,
    std::shared_ptr<std::promise<PlacementResult>> promise) {
  MERCH_TRACE_SPAN_VAR(request_span, obs::Category::kService,
                       "service.request");
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const core::MerchandiserSystem> system;
  if (req.policy == "merch") system = TrainedSystem(req.train_regions);

  PlacementResult result = RunRequest(req, system.get(), &greedy_cache_);
  FinishJob(key, std::move(result), promise);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  MERCH_METRIC_OBSERVE_TRACED("merch_service_request_seconds", seconds);
}

void PlacementService::RunFusedJob(std::vector<FusedMember> members) {
  MERCH_TRACE_SPAN_VAR(group_span, obs::Category::kService,
                       "service.fused_group");
  if (members.empty()) return;
  // One app build + analysis pass for the whole group; every member's
  // engine run reads the shared immutable instance.
  const PreparedApp prepared = PrepareApp(members.front().req);
  for (FusedMember& m : members) {
    const auto t0 = std::chrono::steady_clock::now();
    std::shared_ptr<const core::MerchandiserSystem> system;
    if (m.req.policy == "merch") system = TrainedSystem(m.req.train_regions);
    PlacementResult result =
        RunPrepared(prepared, m.req, system.get(), &greedy_cache_);
    FinishJob(m.key, std::move(result), m.promise);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    MERCH_METRIC_OBSERVE_TRACED("merch_service_request_seconds", seconds);
  }
}

void PlacementService::FinishJob(
    const std::string& key, PlacementResult result,
    const std::shared_ptr<std::promise<PlacementResult>>& promise) {
  if (result.ok()) cache_.Put(key, result);
  std::vector<Callback> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      callbacks = std::move(it->second.callbacks);
      inflight_.erase(it);
    }
    ++simulated_;
    if (!result.ok()) ++failed_;
  }
  MERCH_METRIC_COUNT("merch_service_simulated_total", 1);
  if (!result.ok()) MERCH_METRIC_COUNT("merch_service_failed_total", 1);
  // Resolve the shared future before running continuations, so a callback
  // that hands off to a future-waiting path observes a completed future.
  if (callbacks.empty()) {
    promise->set_value(std::move(result));
  } else {
    promise->set_value(result);
    for (Callback& cb : callbacks) cb(result);
  }
}

ServiceStats PlacementService::Stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.submitted = submitted_;
    s.coalesced = coalesced_;
    s.simulated = simulated_;
    s.failed = failed_;
    s.fused_groups = fused_groups_;
  }
  s.greedy_hits = greedy_cache_.hits();
  s.greedy_misses = greedy_cache_.misses();
  s.cache = cache_.Stats();
  s.threads = pool_.thread_count();
  return s;
}

std::shared_ptr<const core::MerchandiserSystem> PlacementService::TrainedSystem(
    std::size_t train_regions) {
  std::lock_guard<std::mutex> lock(train_mu_);
  auto it = systems_.find(train_regions);
  if (it != systems_.end()) return it->second;
  workloads::TrainingConfig training;
  training.num_regions = train_regions;
  auto system = std::make_shared<const core::MerchandiserSystem>(
      core::MerchandiserSystem::Train(training));
  systems_.emplace(train_regions, system);
  return system;
}

sim::MachineSpec PlacementService::RequestMachine(const PlacementRequest& req) {
  sim::MachineSpec machine = sim::MachineSpec::Paper();
  for (auto tier : {hm::Tier::kDram, hm::Tier::kPm}) {
    machine.hm[tier].capacity_bytes = static_cast<std::uint64_t>(
        static_cast<double>(machine.hm[tier].capacity_bytes) * req.scale);
  }
  return machine;
}

sim::SimConfig PlacementService::RequestSimConfig(const PlacementRequest& req) {
  sim::SimConfig cfg;
  cfg.epoch_seconds = 0.05;
  // Downscaled footprints shrink the placement granularity with them so a
  // run still spans many pages (same rule merchctl has always applied).
  cfg.page_bytes =
      req.scale >= 0.5
          ? 2 * MiB
          : std::max<std::uint64_t>(
                64 * KiB,
                static_cast<std::uint64_t>(2.0 * MiB * req.scale * 16));
  cfg.migration_gbps = 2.0;
  cfg.seed = req.seed;
  return cfg;
}

PlacementResult PlacementService::RunRequest(
    const PlacementRequest& req, const core::MerchandiserSystem* system,
    core::GreedyResultCache* greedy_cache) {
  return RunPrepared(PrepareApp(req), req, system, greedy_cache);
}

PlacementService::PreparedApp PlacementService::PrepareApp(
    const PlacementRequest& req) {
  PreparedApp prepared;
  try {
    prepared.bundle = apps::BuildApp(req.app, req.scale, req.work);

    // Static-analysis gate: reject requests whose kernel IR carries
    // error-severity lint findings (e.g. a referenced object the app never
    // registered with LB_HM_config) — the runtime could not place it.
    const analysis::Module module = analysis::ModuleFromWorkload(
        prepared.bundle.workload, prepared.bundle.task_irs);
    std::vector<analysis::Finding> findings =
        analysis::Lint(module, analysis::Analyze(module));

    prepared.machine = RequestMachine(req);

    // Dependence gate: a provably racy task graph (a non-owner task
    // writing another task's object with exact overlap evidence) cannot
    // be placed meaningfully — the access counts themselves are
    // undefined. Rejected like lint errors.
    const analysis::TaskGraph graph =
        analysis::BuildTaskGraph(module, analysis::Summarize(module));
    const std::vector<analysis::Finding> dep =
        analysis::LintDependences(module, graph, prepared.machine.hm);
    findings.insert(findings.end(), dep.begin(), dep.end());

    if (analysis::HasErrors(findings)) {
      for (const analysis::Finding& f : findings) {
        if (f.severity != analysis::Severity::kError) continue;
        if (!prepared.error.empty()) prepared.error += "; ";
        prepared.error += "lint: [" + f.code + "] " + f.message;
      }
      return prepared;
    }
    prepared.cfg = RequestSimConfig(req);
  } catch (const std::exception& e) {
    prepared.error = e.what();
  }
  return prepared;
}

namespace {

/// The policy switch behind RunPrepared: builds the engine policy a
/// request names, or returns null with `*error` set for policies the app
/// does not define. May throw; RunPrepared's try/catch lands construction
/// failures in the result.
std::unique_ptr<sim::PlacementPolicy> MakeRequestPolicy(
    const PlacementService::PreparedApp& prepared, const PlacementRequest& req,
    const core::MerchandiserSystem* system,
    core::GreedyResultCache* greedy_cache, std::string* error) {
  const apps::AppBundle& bundle = prepared.bundle;
  if (req.policy == "pm") {
    return std::make_unique<baselines::PmOnlyPolicy>();
  }
  if (req.policy == "mm") {
    return std::make_unique<baselines::MemoryModePolicy>();
  }
  if (req.policy == "mo") {
    return std::make_unique<baselines::MemoryOptimizerPolicy>();
  }
  if (req.policy == "sparta") {
    if (bundle.sparta_priority.empty()) {
      *error = "policy 'sparta' is not defined for app " + req.app;
      return nullptr;
    }
    return std::make_unique<baselines::StaticPriorityPolicy>(
        "Sparta-like", bundle.sparta_priority);
  }
  if (req.policy == "warpx-pm") {
    if (bundle.lifetime_priority.empty()) {
      *error = "policy 'warpx-pm' is not defined for app " + req.app;
      return nullptr;
    }
    return std::make_unique<baselines::StaticPriorityPolicy>(
        "WarpX-PM", bundle.lifetime_priority);
  }
  if (req.policy == "merch") {
    if (system == nullptr) {
      *error = "policy 'merch' needs a trained MerchandiserSystem";
      return nullptr;
    }
    core::MerchandiserConfig merch_config;
    merch_config.greedy_cache = greedy_cache;
    return system->MakePolicy(bundle.workload, prepared.machine,
                              merch_config);
  }
  *error = "unknown policy '" + req.policy + "'";
  return nullptr;
}

}  // namespace

PlacementResult PlacementService::RunPrepared(
    const PreparedApp& prepared, const PlacementRequest& req,
    const core::MerchandiserSystem* system,
    core::GreedyResultCache* greedy_cache) {
  PlacementResult out;
  out.request = req;
  if (!prepared.error.empty()) {
    out.error = prepared.error;
    return out;
  }
  const apps::AppBundle& bundle = prepared.bundle;
  try {
    std::unique_ptr<sim::PlacementPolicy> policy =
        MakeRequestPolicy(prepared, req, system, greedy_cache, &out.error);
    if (policy == nullptr) return out;

    sim::Engine engine(bundle.workload, prepared.machine, prepared.cfg,
                       policy.get());
    const sim::SimResult r = engine.Run();
    out.makespan_seconds = r.total_seconds;
    out.task_cov = r.AverageCoV();
    out.migrated_bytes = static_cast<std::uint64_t>(
        r.migration.bytes_to_dram + r.migration.bytes_to_pm);
    out.regions = r.regions.size();
    out.placements.reserve(bundle.workload.objects.size());
    for (std::size_t i = 0; i < bundle.workload.objects.size(); ++i) {
      const auto& obj = bundle.workload.objects[i];
      out.placements.push_back(
          {obj.name, obj.bytes, engine.ObjectDramFraction(i)});
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace merch::service
