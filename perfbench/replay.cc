// perfbench replay — the traced run. Each request is replayed layer by
// layer through the public functions the service composes (training,
// BuildApp, analysis passes, policy, Engine::Run), with the benchmark's
// own spans around each call; the program's internal tracing stays off.
// The replayed result must be bit-identical to
// PlacementService::RunRequest, run untraced on the same request right
// before or after it (alternating): the median per-request difference
// between the two is the tracing overhead.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/depgraph.h"
#include "analysis/ir.h"
#include "analysis/lint.h"
#include "analysis/passes.h"
#include "analysis/summaries.h"
#include "apps/registry.h"
#include "baselines/memory_mode_policy.h"
#include "baselines/memory_optimizer.h"
#include "baselines/pm_only.h"
#include "common.h"
#include "core/correlation.h"
#include "core/greedy.h"
#include "core/merchandiser.h"
#include "net/frame.h"
#include "obs/validate.h"
#include "service/placement_service.h"
#include "service/serialization.h"
#include "sim/engine.h"
#include "workloads/training.h"

namespace perfbench {
namespace {

using merch::service::PlacementRequest;
using merch::service::PlacementResult;
using merch::service::PlacementService;

/// One recorded span. Times are steady-clock seconds; `parent` indexes the
/// same thread's log (-1 = root).
struct Span {
  const char* name = nullptr;
  double start = 0;
  double end = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Per-thread, in-memory span log; written out when the replay ends.
class SpanLog {
 public:
  int Begin(const char* name, std::uint64_t request) {
    spans_.push_back({name, Now(), 0, current_, request});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  double End(int index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end = Now();
    current_ = s.parent;
    return s.end - s.start;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span that adds its duration to `*total` when it closes.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint64_t request, double* total)
      : log_(log), index_(log.Begin(name, request)), total_(total) {}
  ~Scope() { *total_ += log_.End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int index_;
  double* total_;
};

/// Per-layer totals of one replay (summed over requests and threads).
struct Layers {
  double train_gen_s = 0, fit_s = 0, build_s = 0, analyze_s = 0,
         policy_setup_s = 0, hook_s = 0, run_s = 0, assemble_s = 0;
  std::uint64_t train_samples = 0, findings = 0, hook_calls = 0,
                decisions = 0, greedy_rounds = 0, epochs = 0,
                timing_evals = 0, base_builds = 0, partial_refreshes = 0,
                pages_moved = 0, bytes_moved = 0, failed_capacity = 0;

  void Add(const Layers& o) {
    train_gen_s += o.train_gen_s;
    fit_s += o.fit_s;
    build_s += o.build_s;
    analyze_s += o.analyze_s;
    policy_setup_s += o.policy_setup_s;
    hook_s += o.hook_s;
    run_s += o.run_s;
    assemble_s += o.assemble_s;
    train_samples += o.train_samples;
    findings += o.findings;
    hook_calls += o.hook_calls;
    decisions += o.decisions;
    greedy_rounds += o.greedy_rounds;
    epochs += o.epochs;
    timing_evals += o.timing_evals;
    base_builds += o.base_builds;
    partial_refreshes += o.partial_refreshes;
    pages_moved += o.pages_moved;
    bytes_moved += o.bytes_moved;
    failed_capacity += o.failed_capacity;
  }
};

/// Delegating policy the benchmark owns: times every hook the engine
/// calls (including the migrations the wrapped policy triggers).
class TimedPolicy final : public merch::sim::PlacementPolicy {
 public:
  TimedPolicy(merch::sim::PlacementPolicy* inner, SpanLog& log,
              std::uint64_t request, Layers& layers)
      : inner_(inner), log_(log), request_(request), layers_(layers) {}

  std::string name() const override { return inner_->name(); }
  bool uses_hardware_cache() const override {
    return inner_->uses_hardware_cache();
  }
  void OnSimulationStart(merch::sim::SimContext& ctx) override {
    Scope s = Hook();
    inner_->OnSimulationStart(ctx);
  }
  void OnRegionStart(merch::sim::SimContext& ctx, std::size_t region) override {
    Scope s = Hook();
    inner_->OnRegionStart(ctx, region);
  }
  void OnInterval(merch::sim::SimContext& ctx) override {
    Scope s = Hook();
    inner_->OnInterval(ctx);
  }
  void OnRegionEnd(merch::sim::SimContext& ctx, std::size_t region) override {
    Scope s = Hook();
    inner_->OnRegionEnd(ctx, region);
  }

 private:
  Scope Hook() {
    ++layers_.hook_calls;
    return Scope(log_, "core.hook", request_, &layers_.hook_s);
  }

  merch::sim::PlacementPolicy* inner_;
  SpanLog& log_;
  std::uint64_t request_;
  Layers& layers_;
};

std::unique_ptr<merch::core::MerchandiserSystem> ReplayTraining(
    std::size_t train_regions, SpanLog& log, std::uint64_t request,
    Layers& layers) {
  merch::workloads::TrainingConfig training;
  training.num_regions = train_regions;
  std::vector<merch::workloads::TrainingSample> samples;
  {
    Scope s(log, "workloads.train_gen", request, &layers.train_gen_s);
    samples = merch::workloads::GenerateTrainingSamples(training);
  }
  layers.train_samples += samples.size();
  merch::core::CorrelationFunction correlation(
      merch::core::CorrelationFunction::Config{});
  {
    Scope s(log, "ml.fit", request, &layers.fit_s);
    correlation.Train(samples);
  }
  return std::make_unique<merch::core::MerchandiserSystem>(
      std::move(correlation));
}

/// The replay of PlacementService::RunRequest, one span per layer call.
PlacementResult ReplayRequest(const PlacementRequest& req,
                              const merch::core::MerchandiserSystem* system,
                              merch::core::GreedyResultCache* greedy_cache,
                              SpanLog& log, std::uint64_t id, Layers& layers) {
  PlacementResult out;
  out.request = req;
  try {
    merch::apps::AppBundle bundle;
    {
      Scope s(log, "apps.build", id, &layers.build_s);
      bundle = merch::apps::BuildApp(req.app, req.scale, req.work);
    }
    merch::sim::MachineSpec machine;
    merch::sim::SimConfig cfg;
    {
      Scope s(log, "analysis.analyze", id, &layers.analyze_s);
      const merch::analysis::Module module =
          merch::analysis::ModuleFromWorkload(bundle.workload,
                                              bundle.task_irs);
      std::vector<merch::analysis::Finding> findings = merch::analysis::Lint(
          module, merch::analysis::Analyze(module));
      machine = PlacementService::RequestMachine(req);
      const merch::analysis::TaskGraph graph = merch::analysis::BuildTaskGraph(
          module, merch::analysis::Summarize(module));
      const std::vector<merch::analysis::Finding> dep =
          merch::analysis::LintDependences(module, graph, machine.hm);
      findings.insert(findings.end(), dep.begin(), dep.end());
      layers.findings += findings.size();
      if (merch::analysis::HasErrors(findings)) {
        for (const merch::analysis::Finding& f : findings) {
          if (f.severity != merch::analysis::Severity::kError) continue;
          if (!out.error.empty()) out.error += "; ";
          out.error += "lint: [" + f.code + "] " + f.message;
        }
        return out;
      }
      cfg = PlacementService::RequestSimConfig(req);
    }

    std::unique_ptr<merch::sim::PlacementPolicy> policy;
    const merch::core::MerchandiserPolicy* merch_policy = nullptr;
    {
      Scope s(log, "core.policy_setup", id, &layers.policy_setup_s);
      if (req.policy == "pm") {
        policy = std::make_unique<merch::baselines::PmOnlyPolicy>();
      } else if (req.policy == "mm") {
        policy = std::make_unique<merch::baselines::MemoryModePolicy>();
      } else if (req.policy == "mo") {
        policy = std::make_unique<merch::baselines::MemoryOptimizerPolicy>();
      } else if (req.policy == "merch" && system != nullptr) {
        merch::core::MerchandiserConfig merch_config;
        merch_config.greedy_cache = greedy_cache;
        auto p = system->MakePolicy(bundle.workload, machine, merch_config);
        merch_policy = p.get();
        policy = std::move(p);
      } else {
        Die("replay covers pm, mm, mo and merch, not '" + req.policy + "'");
      }
    }

    TimedPolicy timed(policy.get(), log, id, layers);
    const int run_span = log.Begin("sim.run", id);
    merch::sim::Engine engine(bundle.workload, machine, cfg, &timed);
    const merch::sim::SimResult r = engine.Run();
    layers.run_s += log.End(run_span);

    const merch::sim::EngineCounters c = engine.counters();
    layers.epochs += c.epochs;
    layers.timing_evals += c.timing_evals;
    layers.base_builds += c.base_builds;
    layers.partial_refreshes += c.partial_refreshes;
    layers.pages_moved += r.migration.pages_to_dram + r.migration.pages_to_pm;
    layers.bytes_moved += r.migration.bytes_to_dram + r.migration.bytes_to_pm;
    layers.failed_capacity += r.migration.failed_capacity;
    if (merch_policy != nullptr) {
      layers.decisions += merch_policy->decisions().size();
      for (const auto& d : merch_policy->decisions()) {
        layers.greedy_rounds += static_cast<std::uint64_t>(d.greedy_rounds);
      }
    }

    Scope s(log, "service.assemble", id, &layers.assemble_s);
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

/// Round-trip codec timing on one request/result pair, as the client and
/// server see them: request and response frames encoded, then parsed and
/// decoded. A decoded pair that differs from the original is a mismatch.
struct CodecTotals {
  double encode_s = 0, decode_s = 0;
  std::uint64_t messages = 0, frame_bytes = 0, mismatches = 0;
};

void TimeCodec(const PlacementRequest& req, const PlacementResult& result,
               CodecTotals& totals) {
  constexpr int kReps = 200;
  std::string request_frame, response_frame;
  const double t0 = Now();
  for (int i = 0; i < kReps; ++i) {
    merch::service::WireWriter w;
    w.U32(0);
    merch::net::AppendTraceContext({}, &w);
    merch::service::EncodeRequest(req, &w);
    request_frame = merch::net::EncodeFrame(
        {merch::net::FrameType::kRequest, 1, w.Take()});
    merch::service::WireWriter rw;
    rw.U64(0);
    rw.U64(0);
    merch::service::EncodeResult(result, &rw);
    response_frame = merch::net::EncodeFrame(
        {merch::net::FrameType::kResponse, 1, rw.Take()});
  }
  const double t1 = Now();
  bool same = true;
  for (int i = 0; i < kReps; ++i) {
    merch::net::FrameParser parser;
    parser.Feed(request_frame.data(), request_frame.size());
    parser.Feed(response_frame.data(), response_frame.size());
    merch::net::Frame frame;
    std::string error;
    PlacementRequest req_back;
    PlacementResult res_back;
    std::uint32_t deadline = 0;
    merch::obs::TraceContext ctx;
    std::uint64_t trace_id = 0, span_id = 0;
    bool ok = parser.Next(&frame, &error) ==
              merch::net::FrameParser::Status::kFrame;
    merch::service::WireReader rr(frame.payload);
    ok = ok && rr.U32(&deadline) && merch::net::ReadTraceContext(&rr, &ctx) &&
         merch::service::DecodeRequest(&rr, &req_back);
    ok = ok && parser.Next(&frame, &error) ==
                   merch::net::FrameParser::Status::kFrame;
    merch::service::WireReader r(frame.payload);
    ok = ok && r.U64(&trace_id) && r.U64(&span_id) &&
         merch::service::DecodeResult(&r, &res_back);
    if (i == 0) {
      same = ok && merch::service::CanonicalKey(req_back) ==
                       merch::service::CanonicalKey(req) &&
             merch::service::BitIdentical(res_back, result);
    }
  }
  const double t2 = Now();
  totals.encode_s += (t1 - t0) / kReps;
  totals.decode_s += (t2 - t1) / kReps;
  totals.frame_bytes += request_frame.size() + response_frame.size();
  ++totals.messages;
  if (!same) ++totals.mismatches;
}

std::string ChromeTrace(const std::vector<std::vector<Span>>& logs,
                        double origin) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    for (std::size_t i = 0; i < logs[tid].size(); ++i) {
      const Span& s = logs[tid][i];
      const std::string name = s.name;
      const std::string cat = name.substr(0, name.find('.'));
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
                    "\"args\":{\"request\":%llu,\"span\":%zu,\"parent\":%d}}",
                    first ? "" : ",\n", s.name, cat.c_str(),
                    (s.start - origin) * 1e6, (s.end - s.start) * 1e6, tid,
                    static_cast<unsigned long long>(s.request), i, s.parent);
      out << buf;
      first = false;
    }
  }
  out << "]}\n";
  return out.str();
}

}  // namespace

int RunReplay(const Args& args) {
  const std::vector<PlacementRequest> requests =
      LoadRequests(args.Get("requests"));
  const std::size_t threads = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.Num("threads", 1)));
  // fresh: every merch request trains its own system inside its request
  // (cold). shared: one training up front, as a long-lived service's
  // warm-up does (sweep, serve).
  const bool fresh = args.Get("training", "shared") == "fresh";
  const std::size_t n = requests.size();

  std::vector<SpanLog> logs(threads);
  std::vector<Layers> layers(threads);
  std::unique_ptr<merch::core::MerchandiserSystem> shared;
  std::size_t shared_regions = 0;
  for (const PlacementRequest& req : requests) {
    if (req.policy == "merch") shared_regions = req.train_regions;
  }
  if (!fresh && shared_regions > 0) {
    double setup_s = 0;
    Scope setup(logs[0], "replay.setup", 0, &setup_s);
    shared = ReplayTraining(shared_regions, logs[0], 0, layers[0]);
  }

  // Greedy warm-start caches scoped as the service scopes its own: one
  // per replay when training is shared (one long-lived service), one per
  // request when it is fresh (one service per cold request). The untraced
  // reference gets its own caches of the same scope, so both runs take the
  // service's path.
  std::vector<merch::core::GreedyResultCache> caches(fresh ? 2 * n : 2);
  auto cache = [&](std::size_t i, bool reference) {
    return &caches[(fresh ? 2 * i : 0) + (reference ? 1 : 0)];
  };

  std::vector<PlacementResult> replayed(n);
  std::vector<std::unique_ptr<merch::core::MerchandiserSystem>> own(n);
  std::vector<double> request_s(n, 0), train_s(n, 0), untraced_s(n, 0);
  std::vector<char> identical(n, 0);
  std::atomic<std::size_t> next{0};
  auto worker = [&](std::size_t t) {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const PlacementRequest& req = requests[i];
      const std::uint64_t id = i + 1;
      const merch::core::MerchandiserSystem* system = shared.get();
      if (fresh && req.policy == "merch") {
        Scope root(logs[t], "replay.training", id, &train_s[i]);
        own[i] = ReplayTraining(req.train_regions, logs[t], id, layers[t]);
        system = own[i].get();
      }
      auto traced = [&] {
        Scope root(logs[t], "replay.request", id, &request_s[i]);
        replayed[i] =
            ReplayRequest(req, system, cache(i, false), logs[t], id, layers[t]);
      };
      // Untraced reference: PlacementService::RunRequest on the same
      // request with the same trained system, outside every span.
      PlacementResult ref;
      auto untraced = [&] {
        const double t0 = Now();
        ref = PlacementService::RunRequest(req, system, cache(i, true));
        untraced_s[i] = Now() - t0;
      };
      // Alternate which runs first, so neither gains from going second.
      if (i % 2 == 0) {
        traced();
        untraced();
      } else {
        untraced();
        traced();
      }
      identical[i] = merch::service::BitIdentical(ref, replayed[i]) ? 1 : 0;
    }
  };
  const double replay_t0 = Now();
  {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& th : pool) th.join();
  }

  CodecTotals codec;
  for (std::size_t i = 0; i < n; ++i) {
    TimeCodec(requests[i], replayed[i], codec);
  }

  Layers total;
  for (const Layers& l : layers) total.Add(l);

  // Coverage: the direct children of every root span (a request, its
  // fresh training, or the shared training set-up) against the roots' own
  // durations.
  double root_s = 0, child_s = 0;
  std::vector<std::vector<Span>> all;
  double origin = replay_t0;
  for (const SpanLog& log : logs) {
    all.push_back(log.spans());
    for (const Span& s : log.spans()) {
      origin = std::min(origin, s.start);
      if (s.parent < 0) {
        root_s += s.end - s.start;
      } else if (log.spans()[static_cast<std::size_t>(s.parent)].parent < 0) {
        child_s += s.end - s.start;
      }
    }
  }
  const std::string trace = ChromeTrace(all, origin);
  const std::string trace_path = args.Get("trace-out");
  if (!trace_path.empty()) {
    std::ofstream(trace_path, std::ios::binary) << trace;
  }
  const merch::obs::TraceValidation valid =
      merch::obs::ValidateChromeTrace(trace);

  std::vector<std::string> lines, keys;
  std::vector<double> compute_s, overhead_s;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    lines.push_back(ResultLine(replayed[i]));
    keys.push_back(merch::service::CanonicalKey(requests[i]));
    compute_s.push_back(train_s[i] + request_s[i]);
    overhead_s.push_back(request_s[i] - untraced_s[i]);
    if (identical[i] == 0) ++mismatches;
  }
  WriteLines(args.Get("results"), lines);
  std::sort(overhead_s.begin(), overhead_s.end());
  const double overhead_median =
      n == 0 ? 0 : (overhead_s[(n - 1) / 2] + overhead_s[n / 2]) / 2;

  const double messages =
      std::max<double>(1, static_cast<double>(codec.messages));
  Json out;
  out.StrArray("keys", keys)
      .Array("compute_seconds", compute_s)
      .Int("runrequest_mismatches", mismatches)
      .Num("trace_overhead_s", overhead_median)
      .Num("root_s", root_s)
      .Num("covered_s", child_s)
      .Int("trace_valid", valid.ok ? 1 : 0)
      .Str("trace_error", valid.error)
      .Int("trace_spans", valid.spans)
      .Num("workloads.train_gen_s", total.train_gen_s)
      .Int("workloads.train_samples", total.train_samples)
      .Num("ml.fit_s", total.fit_s)
      .Num("apps.build_s", total.build_s)
      .Num("analysis.analyze_s", total.analyze_s)
      .Int("analysis.findings", total.findings)
      .Num("core.policy_setup_s", total.policy_setup_s)
      .Num("core.hook_s", total.hook_s)
      .Int("core.hook_calls", total.hook_calls)
      .Int("core.decisions", total.decisions)
      .Int("core.greedy_rounds", total.greedy_rounds)
      .Num("sim.run_s", total.run_s)
      .Num("sim.self_s", total.run_s - total.hook_s)
      .Int("sim.epochs", total.epochs)
      .Int("sim.timing_evals", total.timing_evals)
      .Int("sim.base_builds", total.base_builds)
      .Int("sim.partial_refreshes", total.partial_refreshes)
      .Int("hm.pages_moved", total.pages_moved)
      .Int("hm.bytes_moved", total.bytes_moved)
      .Int("hm.failed_capacity", total.failed_capacity)
      .Num("net.encode_us", codec.encode_s / messages * 1e6)
      .Num("net.decode_us", codec.decode_s / messages * 1e6)
      .Num("net.frame_bytes",
           static_cast<double>(codec.frame_bytes) / messages)
      .Int("codec_mismatches", codec.mismatches);
  out.WriteTo(args.Get("out"));
  return 0;
}

}  // namespace perfbench
