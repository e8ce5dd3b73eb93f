// perfbench warm / load — the client side of the serve workload against a
// `merchd --listen` child process.
//
//   warm  closed loop over a request file on --conns connections (set-up:
//         the training warm-up key, then the hot set).
//   load  two streams at once, at most nproc connections in total:
//         hits   open loop at one fixed offered rate (--rate requests/s)
//                over the hot set on --hit-conns connections, driven by one
//                busy-polling thread; each request is timed from its
//                scheduled send time, and the generator records how late
//                it actually sent;
//         misses closed loop on --miss-conns connections, each request a
//                never-seen key (unique seed), so every one simulates.
//         Every hit payload is compared byte for byte with the result the
//         hot key returned before the streams started.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/socket.h"
#include "service/serialization.h"

namespace perfbench {
namespace {

using merch::service::PlacementRequest;
using merch::service::PlacementResult;

constexpr char kHost[] = "127.0.0.1";
constexpr double kReplyTimeout = 10.0;  // seconds

std::uint16_t Port(const Args& args) {
  const double port = args.Num("port", 0);
  if (port < 1 || port > 65535) Die("--port must be 1..65535");
  return static_cast<std::uint16_t>(port);
}

/// Outcome counters of a closed-loop stream.
struct Failures {
  std::uint64_t remote = 0;     // error frames (RETRY_LATER, TIMEOUT, ...)
  std::uint64_t transport = 0;  // dead or broken connections
  std::uint64_t errors = 0;     // results that carry a request-level error
};

/// Closed loop: each connection sends its next request when the previous
/// reply arrived. Returns results in request order (empty results for
/// requests that got none) with per-request send times and latencies
/// (seconds); `done` marks the requests that got a result.
std::vector<PlacementResult> ClosedLoop(
    std::uint16_t port, const std::vector<PlacementRequest>& requests,
    std::size_t conns, double deadline, std::vector<double>* sent_at,
    std::vector<double>* latency, std::vector<char>* done,
    Failures* failures) {
  std::vector<PlacementResult> results(requests.size());
  sent_at->assign(requests.size(), 0);
  latency->assign(requests.size(), 0);
  done->assign(requests.size(), 0);
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  auto worker = [&] {
    merch::net::Client client;
    std::string error;
    if (!client.Connect(kHost, port, &error)) {
      std::lock_guard<std::mutex> lock(mu);
      ++failures->transport;
      return;
    }
    for (std::size_t i = next.fetch_add(1); i < requests.size();
         i = next.fetch_add(1)) {
      if (deadline > 0 && Now() >= deadline) break;
      PlacementResult result;
      merch::net::ErrorCode code{};
      const double t0 = Now();
      const auto status = client.Call(requests[i], 0, &result, &code, &error);
      const double t1 = Now();
      std::lock_guard<std::mutex> lock(mu);
      if (status == merch::net::Client::Status::kOk) {
        sent_at->at(i) = t0;
        latency->at(i) = t1 - t0;
        (*done)[i] = 1;
        if (!result.ok()) ++failures->errors;
        results[i] = std::move(result);
      } else if (status == merch::net::Client::Status::kRemoteError) {
        ++failures->remote;
      } else {
        ++failures->transport;
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t c = 0; c < conns; ++c) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

/// The first 16 bytes of a v2 response payload are the echoed trace ids;
/// the rest is the encoded result.
std::string ResultBytes(const PlacementResult& result) {
  merch::service::WireWriter w;
  merch::service::EncodeResult(result, &w);
  return w.Take();
}

/// Open-loop hit stream: one thread owns every hit connection, sends the
/// k-th request at start + k / rate on connection k % conns, and reads
/// replies in between, so the generator adds one runnable thread, not two
/// per connection.
struct HitStream {
  std::vector<double> latency;  // seconds, scheduled send -> reply
  std::vector<double> late;     // seconds, scheduled -> actual send
  std::uint64_t sent = 0, mismatches = 0, failures = 0;
};

HitStream RunHitStream(std::uint16_t port,
                       const std::vector<PlacementRequest>& hot,
                       const std::vector<std::string>& expected, double start,
                       double rate, double end, std::size_t conns) {
  HitStream out;
  std::vector<pollfd> fds;
  for (std::size_t c = 0; c < conns; ++c) {
    std::string error;
    const int fd = merch::net::ConnectTo(kHost, port, &error);
    if (fd < 0) {
      ++out.failures;
      for (const pollfd& p : fds) merch::net::CloseFd(p.fd);
      return out;
    }
    fds.push_back({fd, POLLIN, 0});
  }
  std::vector<merch::net::FrameParser> parsers(conns);
  auto due = [&](std::uint64_t k) {
    return start + static_cast<double>(k) / rate;
  };
  std::uint64_t received = 0;
  double last_progress = Now();
  char buf[1 << 16];
  bool broken = false;
  while (!broken) {
    const double now = Now();
    for (; due(out.sent) <= now && due(out.sent) < end; ++out.sent) {
      const std::uint64_t k = out.sent;
      merch::service::WireWriter w;
      w.U32(0);
      merch::net::AppendTraceContext({}, &w);
      merch::service::EncodeRequest(hot[k % hot.size()], &w);
      const std::string frame = merch::net::EncodeFrame(
          {merch::net::FrameType::kRequest, static_cast<std::uint32_t>(k + 1),
           w.Take()});
      out.late.push_back(Now() - due(k));
      if (!merch::net::WriteAll(fds[k % conns].fd, frame.data(),
                                frame.size())) {
        broken = true;
        break;
      }
    }
    const bool sending = due(out.sent) < end;
    if (!sending && received >= out.sent) break;
    // A reply silent for longer than kReplyTimeout is a failure, not a
    // hang.
    if (Now() - last_progress > kReplyTimeout) break;
    // Busy-poll: a generator that sleeps between sends pays the
    // host's idle-wake latency (milliseconds on a VM) on every send and
    // reply, which would swamp the latency under test.
    if (::poll(fds.data(), fds.size(), 0) <= 0) continue;
    for (std::size_t c = 0; c < conns && !broken; ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      const long n = merch::net::ReadSome(fds[c].fd, buf, sizeof buf);
      if (n <= 0) {
        broken = true;
        break;
      }
      last_progress = Now();
      parsers[c].Feed(buf, static_cast<std::size_t>(n));
      merch::net::Frame frame;
      std::string perr;
      merch::net::FrameParser::Status st;
      while ((st = parsers[c].Next(&frame, &perr)) ==
             merch::net::FrameParser::Status::kFrame) {
        const std::uint64_t k = frame.seq - 1;
        ++received;
        out.latency.push_back(last_progress - due(k));
        if (frame.type != merch::net::FrameType::kResponse ||
            frame.payload.size() < 16 ||
            frame.payload.compare(16, std::string::npos,
                                  expected[k % hot.size()]) != 0) {
          ++out.mismatches;
        }
      }
      if (st == merch::net::FrameParser::Status::kBad) broken = true;
    }
  }
  // Unanswered sends are failures.
  if (received < out.sent) out.failures += out.sent - received;
  for (const pollfd& p : fds) merch::net::CloseFd(p.fd);
  return out;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Value of an unlabelled counter in a Prometheus text export (0 if absent).
double PromValue(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const bool line_start = pos == 0 || text[pos - 1] == '\n';
    const std::size_t after = pos + name.size();
    if (line_start && after < text.size() && text[after] == ' ') {
      return std::strtod(text.c_str() + after + 1, nullptr);
    }
    pos = after;
  }
  return 0;
}

}  // namespace

int RunWarm(const Args& args) {
  const std::uint16_t port = Port(args);
  const std::vector<PlacementRequest> requests =
      LoadRequests(args.Get("requests"));
  // The first request (the training warm-up) runs alone, so the hot set
  // never queues behind training on every connection at once.
  std::vector<double> sent_at, latency;
  std::vector<char> done;
  Failures failures;
  std::vector<PlacementResult> results = ClosedLoop(
      port, {requests.front()}, 1, 0, &sent_at, &latency, &done, &failures);
  const std::vector<PlacementResult> rest = ClosedLoop(
      port, {requests.begin() + 1, requests.end()},
      static_cast<std::size_t>(args.Num("conns", 1)), 0, &sent_at, &latency,
      &done, &failures);
  results.insert(results.end(), rest.begin(), rest.end());
  std::vector<std::string> lines;
  for (const PlacementResult& r : results) lines.push_back(ResultLine(r));
  WriteLines(args.Get("results"), lines);
  const std::uint64_t failed =
      failures.remote + failures.transport + failures.errors;
  return failed == 0 ? 0 : 1;
}

int RunLoad(const Args& args) {
  const std::uint16_t port = Port(args);
  const std::vector<PlacementRequest> hot = LoadRequests(args.Get("hot"));
  const std::vector<PlacementRequest> misses = LoadRequests(args.Get("miss"));
  const double rate = args.Num("rate", 1000);
  const double seconds = args.Num("seconds", 1);
  const std::size_t hit_conns = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.Num("hit-conns", 1)));
  const std::size_t miss_conns = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.Num("miss-conns", 1)));
  if (hot.empty() || misses.empty()) Die("load needs --hot and --miss");

  // Reference payloads of the hot set (already cached by warm); these
  // results are also checked against the expected table by run.py.
  std::vector<double> sent_at, latency;
  std::vector<char> done;
  Failures ref_failures;
  const std::vector<PlacementResult> hot_results =
      ClosedLoop(port, hot, 1, 0, &sent_at, &latency, &done, &ref_failures);
  std::vector<std::string> expected;
  for (const PlacementResult& r : hot_results) {
    expected.push_back(ResultBytes(r));
  }

  const double start = Now() + 0.05;
  const double end = start + seconds;
  HitStream hits;
  std::thread hit_thread([&] {
    hits = RunHitStream(port, hot, expected, start, rate, end, hit_conns);
  });
  std::vector<double> miss_sent, miss_latency;
  std::vector<char> miss_done;
  Failures miss_failures;
  std::vector<PlacementResult> miss_results;
  std::thread miss_thread([&] {
    while (Now() < start) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    miss_results = ClosedLoop(port, misses, miss_conns, end, &miss_sent,
                              &miss_latency, &miss_done, &miss_failures);
  });
  hit_thread.join();
  miss_thread.join();

  // Server-side counters (the net layer's shed count, cache and service
  // counters) over the METRICS frame.
  merch::net::Client client;
  std::string error, prom;
  merch::net::MetricsReplyPayload reply;
  merch::net::ErrorCode code{};
  if (client.Connect(kHost, port, &error) &&
      client.FetchMetrics(&reply, &code, &error) ==
          merch::net::Client::Status::kOk) {
    prom = reply.prometheus_text;
  }

  std::vector<std::string> lines, miss_keys;
  std::vector<double> miss_seconds, miss_index, miss_start;
  for (const PlacementResult& r : hot_results) lines.push_back(ResultLine(r));
  for (std::size_t i = 0; i < misses.size(); ++i) {
    if (miss_done[i] == 0) continue;
    lines.push_back(ResultLine(miss_results[i]));
    miss_keys.push_back(merch::service::CanonicalKey(misses[i]));
    miss_seconds.push_back(miss_latency[i]);
    miss_index.push_back(static_cast<double>(i));
    miss_start.push_back(miss_sent[i] - start);
  }
  WriteLines(args.Get("results"), lines);

  Json out;
  out.Num("hit_p50_us", Quantile(hits.latency, 0.50) * 1e6)
      .Num("hit_p99_us", Quantile(hits.latency, 0.99) * 1e6)
      .Int("hit_sent", hits.sent)
      .Int("hit_mismatches", hits.mismatches)
      .Int("hit_failures", hits.failures + ref_failures.remote +
                               ref_failures.transport + ref_failures.errors)
      .Num("gen_late_p99_ms", Quantile(hits.late, 0.99) * 1e3)
      .StrArray("miss_keys", miss_keys)
      .Array("miss_seconds", miss_seconds)
      .Array("miss_index", miss_index)
      .Array("miss_start", miss_start)
      // Every miss key answered before the deadline: the stream ran dry.
      .Int("miss_exhausted", miss_keys.size() == misses.size() ? 1 : 0)
      .Int("miss_remote_failures", miss_failures.remote)
      .Int("miss_transport_failures", miss_failures.transport)
      .Int("miss_errors", miss_failures.errors)
      .Num("net.shed", PromValue(prom, "merch_net_shed_total"))
      .Num("cache_hits", PromValue(prom, "merch_cache_hits_total"))
      .Num("cache_misses", PromValue(prom, "merch_cache_misses_total"))
      .Num("simulated", PromValue(prom, "merch_service_simulated_total"))
      .Num("coalesced", PromValue(prom, "merch_service_coalesced_total"))
      .Int("metrics_ok", prom.empty() ? 0 : 1);
  out.WriteTo(args.Get("out"));
  return 0;
}

}  // namespace perfbench
