// Tests for the networked placement service (src/net) and its codec layer
// (service/serialization): wire round-trips, hostile-input robustness,
// cache snapshots, and the live server/router contracts (bit-identity,
// shedding, deadlines, graceful drain, restart-on-crash).
//
// Carries the "net" ctest label (`ctest -L net`); the router cases exec
// the real merchd binary (MERCHD_BIN, injected by CMake).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/router.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/distributed/federation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/placement_service.h"
#include "service/result_cache.h"
#include "service/serialization.h"

namespace merch {
namespace {

service::PlacementRequest MakeRequest(const std::string& app,
                                      const std::string& policy,
                                      double scale = 0.01,
                                      std::uint64_t seed = 42) {
  service::PlacementRequest req{app, policy, scale, 0.02,
                                policy == "merch" ? 8u : 0u, seed};
  const std::string err = service::CanonicalizeRequest(req);
  EXPECT_EQ(err, "") << "bad test request";
  return req;
}

service::PlacementResult MakeResult(const std::string& key_salt) {
  service::PlacementResult r;
  r.request = {"SpGEMM", "pm", 0.25, 1.5, 0, 7};
  r.error = "";
  r.makespan_seconds = 123.456789;
  r.task_cov = 0.0625;
  r.migrated_bytes = 1ull << 33;
  r.regions = 281;
  r.placements.push_back({"A" + key_salt, 4096, 1.0});
  r.placements.push_back({"B" + key_salt, 1ull << 40, 0.125});
  return r;
}

// --- codec ---------------------------------------------------------------

TEST(Serialization, RequestRoundTripIsExact) {
  service::PlacementRequest req{"WarpX", "merch", 0.1, 0.7, 281, 12345};
  service::WireWriter w;
  service::EncodeRequest(req, &w);
  service::WireReader r(w.bytes());
  service::PlacementRequest back;
  ASSERT_TRUE(service::DecodeRequest(&r, &back));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(back.app, req.app);
  EXPECT_EQ(back.policy, req.policy);
  EXPECT_EQ(back.scale, req.scale);
  EXPECT_EQ(back.work, req.work);
  EXPECT_EQ(back.train_regions, req.train_regions);
  EXPECT_EQ(back.seed, req.seed);
}

TEST(Serialization, ResultRoundTripIsBitIdentical) {
  service::PlacementResult result = MakeResult("x");
  // Doubles that break non-bitwise codecs: signed zero, denormal, NaN.
  result.makespan_seconds = -0.0;
  result.task_cov = 4.9406564584124654e-324;
  result.placements[0].dram_fraction =
      std::numeric_limits<double>::quiet_NaN();
  service::WireWriter w;
  service::EncodeResult(result, &w);
  service::WireReader r(w.bytes());
  service::PlacementResult back;
  ASSERT_TRUE(service::DecodeResult(&r, &back));
  EXPECT_TRUE(service::BitIdentical(result, back));
  // BitIdentical itself must distinguish +0 from -0.
  back.makespan_seconds = 0.0;
  EXPECT_FALSE(service::BitIdentical(result, back));
}

TEST(Serialization, TruncatedInputFailsCleanly) {
  service::PlacementResult result = MakeResult("t");
  service::WireWriter w;
  service::EncodeResult(result, &w);
  const std::string full = w.bytes();
  // Every prefix must fail the decode without UB (run under ASan in CI).
  for (std::size_t len = 0; len < full.size(); ++len) {
    service::WireReader r(full.data(), len);
    service::PlacementResult back;
    EXPECT_FALSE(service::DecodeResult(&r, &back)) << "prefix " << len;
  }
}

TEST(Serialization, HostileStringLengthIsRejected) {
  service::WireWriter w;
  w.U32(0xFFFFFFFFu);  // string length prefix far beyond the buffer
  w.U32(0);
  service::WireReader r(w.bytes());
  std::string s;
  EXPECT_FALSE(r.Str(&s));
  EXPECT_FALSE(r.ok());
}

TEST(Serialization, HostilePlacementCountIsRejected) {
  // A valid result header followed by a placement count far beyond the
  // remaining bytes must fail before allocating placements.
  service::PlacementResult result = MakeResult("h");
  result.placements.clear();
  service::WireWriter w;
  service::EncodeResult(result, &w);
  std::string bytes = w.bytes();
  // Patch the trailing u32 placement count (little-endian) to huge.
  bytes[bytes.size() - 4] = static_cast<char>(0xFF);
  bytes[bytes.size() - 3] = static_cast<char>(0xFF);
  bytes[bytes.size() - 2] = static_cast<char>(0xFF);
  bytes[bytes.size() - 1] = static_cast<char>(0x7F);
  service::WireReader r(bytes);
  service::PlacementResult back;
  EXPECT_FALSE(service::DecodeResult(&r, &back));
}

// --- framing -------------------------------------------------------------

TEST(Frame, RoundTripThroughParser) {
  net::Frame in{net::FrameType::kResponse, 77, "payload-bytes"};
  const std::string bytes = net::EncodeFrame(in);
  net::FrameParser parser;
  parser.Feed(bytes.data(), bytes.size());
  net::Frame out;
  std::string err;
  ASSERT_EQ(parser.Next(&out, &err), net::FrameParser::Status::kFrame);
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.payload, in.payload);
  EXPECT_EQ(parser.Next(&out, &err), net::FrameParser::Status::kNeedMore);
}

TEST(Frame, ByteAtATimeFeedProducesSameFrames) {
  std::string stream;
  net::AppendFrame({net::FrameType::kPing, 1, ""}, &stream);
  net::AppendFrame({net::FrameType::kRequest, 2, std::string(1000, 'x')},
                   &stream);
  net::AppendFrame({net::FrameType::kError,
                    3, net::EncodeErrorPayload(net::ErrorCode::kRetryLater,
                                               "busy")},
                   &stream);
  net::FrameParser parser;
  std::vector<net::Frame> frames;
  for (char c : stream) {
    parser.Feed(&c, 1);
    net::Frame f;
    std::string err;
    while (parser.Next(&f, &err) == net::FrameParser::Status::kFrame) {
      frames.push_back(f);
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, net::FrameType::kPing);
  EXPECT_EQ(frames[1].payload.size(), 1000u);
  net::ErrorCode code;
  std::string msg;
  ASSERT_TRUE(net::DecodeErrorPayload(frames[2].payload, &code, &msg));
  EXPECT_EQ(code, net::ErrorCode::kRetryLater);
  EXPECT_EQ(msg, "busy");
}

TEST(Frame, BadMagicIsFatal) {
  std::string bytes = net::EncodeFrame({net::FrameType::kPing, 1, ""});
  bytes[0] = 'X';
  net::FrameParser parser;
  parser.Feed(bytes.data(), bytes.size());
  net::Frame f;
  std::string err;
  bool bad_version = false;
  EXPECT_EQ(parser.Next(&f, &err, &bad_version),
            net::FrameParser::Status::kBad);
  EXPECT_FALSE(bad_version);
}

TEST(Frame, VersionMismatchIsDistinguished) {
  std::string bytes = net::EncodeFrame({net::FrameType::kPing, 1, ""});
  bytes[4] = 99;  // version u16 LE -> far beyond kProtocolVersion
  net::FrameParser parser;
  parser.Feed(bytes.data(), bytes.size());
  net::Frame f;
  std::string err;
  bool bad_version = false;
  EXPECT_EQ(parser.Next(&f, &err, &bad_version),
            net::FrameParser::Status::kBad);
  EXPECT_TRUE(bad_version);
}

TEST(Frame, ParserAcceptsBothProtocolVersions) {
  for (std::uint16_t version :
       {net::kMinProtocolVersion, net::kProtocolVersion}) {
    const std::string bytes =
        net::EncodeFrame({net::FrameType::kPing, 7, "", version});
    net::FrameParser parser;
    parser.Feed(bytes.data(), bytes.size());
    net::Frame out;
    std::string err;
    ASSERT_EQ(parser.Next(&out, &err), net::FrameParser::Status::kFrame)
        << "version " << version << ": " << err;
    EXPECT_EQ(out.version, version);
  }
}

TEST(Frame, V2OnlyFrameTypesAreRejectedOnV1Headers) {
  // kMetrics does not exist in protocol v1: a v1 header carrying it is a
  // broken stream, not a version problem.
  const std::string bytes = net::EncodeFrame(
      {net::FrameType::kMetrics, 1, "", net::kMinProtocolVersion});
  net::FrameParser parser;
  parser.Feed(bytes.data(), bytes.size());
  net::Frame out;
  std::string err;
  bool bad_version = false;
  EXPECT_EQ(parser.Next(&out, &err, &bad_version),
            net::FrameParser::Status::kBad);
  EXPECT_FALSE(bad_version);

  // The same type under a v2 header parses fine.
  const std::string v2 = net::EncodeFrame({net::FrameType::kMetrics, 1, ""});
  net::FrameParser fresh;
  fresh.Feed(v2.data(), v2.size());
  EXPECT_EQ(fresh.Next(&out, &err), net::FrameParser::Status::kFrame);
}

TEST(Frame, TraceContextRoundTrip) {
  service::WireWriter w;
  net::AppendTraceContext({0xABCDEF012345ull, 0x123456ull}, &w);
  EXPECT_EQ(w.bytes().size(), 16u);  // the advertised fixed width
  service::WireReader r(w.bytes());
  obs::TraceContext ctx;
  ASSERT_TRUE(net::ReadTraceContext(&r, &ctx));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(ctx.trace_id, 0xABCDEF012345ull);
  EXPECT_EQ(ctx.parent_span_id, 0x123456ull);

  // Truncated context fails cleanly.
  service::WireReader short_r(w.bytes().data(), 15);
  EXPECT_FALSE(net::ReadTraceContext(&short_r, &ctx));
}

TEST(Frame, PongPayloadRoundTrip) {
  const net::PongPayload pong{981726354ull, 4242, "shard1"};
  const std::string bytes = net::EncodePongPayload(pong);
  net::PongPayload back;
  ASSERT_TRUE(net::DecodePongPayload(bytes, &back));
  EXPECT_EQ(back.now_ns, pong.now_ns);
  EXPECT_EQ(back.pid, pong.pid);
  EXPECT_EQ(back.process_name, pong.process_name);
  // A v1 pong (empty payload) and trailing garbage both fail the decode.
  EXPECT_FALSE(net::DecodePongPayload("", &back));
  EXPECT_FALSE(net::DecodePongPayload(bytes + "x", &back));
}

TEST(Frame, MetricsReplyPayloadRoundTrip) {
  const net::MetricsReplyPayload reply{
      "router", 99, "# TYPE a counter\na 1\n"};
  const std::string bytes = net::EncodeMetricsReplyPayload(reply);
  net::MetricsReplyPayload back;
  ASSERT_TRUE(net::DecodeMetricsReplyPayload(bytes, &back));
  EXPECT_EQ(back.process_name, reply.process_name);
  EXPECT_EQ(back.pid, reply.pid);
  EXPECT_EQ(back.prometheus_text, reply.prometheus_text);
  EXPECT_FALSE(net::DecodeMetricsReplyPayload(bytes + "x", &back));
  EXPECT_FALSE(
      net::DecodeMetricsReplyPayload(bytes.substr(0, bytes.size() - 1),
                                     &back));
}

TEST(Frame, OversizedLengthPrefixIsFatalNotAllocated) {
  net::Frame f{net::FrameType::kRequest, 9, ""};
  std::string bytes = net::EncodeFrame(f);
  // payload_len := 64 MiB, far over the 1 KiB parser bound below.
  bytes[12] = 0;
  bytes[13] = 0;
  bytes[14] = 0;
  bytes[15] = 4;
  net::FrameParser parser(1024);
  parser.Feed(bytes.data(), bytes.size());
  net::Frame out;
  std::string err;
  EXPECT_EQ(parser.Next(&out, &err), net::FrameParser::Status::kBad);
}

TEST(Frame, DeterministicGarbageNeverCrashes) {
  // Fuzz-lite: pseudo-random bytes through the parser in random-ish chunk
  // sizes. The parser may report kBad or starve, but must never crash or
  // hand back a frame claiming more payload than was fed.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 32; ++round) {
    net::FrameParser parser(4096);
    std::string chunk;
    for (int i = 0; i < 512; ++i) chunk.push_back(static_cast<char>(next()));
    std::size_t pos = 0;
    bool dead = false;
    while (pos < chunk.size() && !dead) {
      const std::size_t n =
          std::min<std::size_t>(1 + next() % 64, chunk.size() - pos);
      parser.Feed(chunk.data() + pos, n);
      pos += n;
      net::Frame f;
      std::string err;
      for (;;) {
        const auto status = parser.Next(&f, &err);
        if (status == net::FrameParser::Status::kFrame) {
          EXPECT_LE(f.payload.size(), 4096u);
          continue;
        }
        if (status == net::FrameParser::Status::kBad) dead = true;
        break;
      }
    }
  }
}

// --- cache snapshots -----------------------------------------------------

TEST(CacheSnapshot, RoundTripPreservesEntriesAndRecency) {
  service::ResultCache cache(8);
  cache.Put("a", MakeResult("a"));
  cache.Put("b", MakeResult("b"));
  cache.Put("c", MakeResult("c"));
  (void)cache.Get("a");  // recency now: a, c, b

  const std::string snap = cache.Serialize();
  service::ResultCache back(2);  // smaller: must keep the MRU tail
  std::string err;
  ASSERT_TRUE(back.Deserialize(snap, &err)) << err;
  EXPECT_TRUE(back.Contains("a"));
  EXPECT_TRUE(back.Contains("c"));
  EXPECT_FALSE(back.Contains("b"));  // LRU entry evicted by capacity

  service::ResultCache full(8);
  ASSERT_TRUE(full.Deserialize(snap, &err)) << err;
  auto got = full.Get("b");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(service::BitIdentical(*got, MakeResult("b")));
}

TEST(CacheSnapshot, CorruptSnapshotsAreRejectedWithoutHalfLoads) {
  service::ResultCache cache(8);
  cache.Put("k1", MakeResult("1"));
  cache.Put("k2", MakeResult("2"));
  const std::string snap = cache.Serialize();

  service::ResultCache target(8);
  target.Put("existing", MakeResult("e"));
  std::string err;

  // Truncations at every byte boundary: reject, and never half-load.
  for (std::size_t len = 0; len < snap.size(); ++len) {
    EXPECT_FALSE(target.Deserialize(snap.substr(0, len), &err))
        << "prefix " << len;
    EXPECT_FALSE(target.Contains("k1"));
    EXPECT_FALSE(target.Contains("k2"));
  }
  // Bad magic.
  std::string bad = snap;
  bad[0] = 'X';
  EXPECT_FALSE(target.Deserialize(bad, &err));
  // Unsupported version.
  bad = snap;
  bad[4] = 99;
  EXPECT_FALSE(target.Deserialize(bad, &err));
  EXPECT_NE(err.find("version"), std::string::npos);
  // Trailing garbage.
  EXPECT_FALSE(target.Deserialize(snap + "zz", &err));
  // The target cache was never touched.
  EXPECT_TRUE(target.Contains("existing"));
  EXPECT_FALSE(target.Contains("k1"));
}

// --- live server ---------------------------------------------------------

class ServerFixture {
 public:
  explicit ServerFixture(net::ServerConfig cfg = {}) : server_(Defaults(cfg)) {
    std::string err;
    EXPECT_TRUE(server_.Start(&err)) << err;
    EXPECT_TRUE(client_.Connect("127.0.0.1", server_.port(), &err)) << err;
  }

  static net::ServerConfig Defaults(net::ServerConfig cfg) {
    if (cfg.threads == 4) cfg.threads = 2;  // keep test servers small
    return cfg;
  }

  net::PlacementServer server_;
  net::Client client_;
};

TEST(Server, NetworkedResultsAreBitIdenticalToInProcess) {
  ServerFixture fx;
  service::PlacementService local({.threads = 2, .cache_capacity = 64});
  for (const char* policy : {"pm", "mm", "mo"}) {
    const service::PlacementRequest req = MakeRequest("SpGEMM", policy);
    const service::PlacementResult expected = local.Submit(req).future.get();
    service::PlacementResult remote;
    net::ErrorCode code;
    std::string err;
    ASSERT_EQ(fx.client_.Call(req, 0, &remote, &code, &err),
              net::Client::Status::kOk)
        << err;
    EXPECT_TRUE(service::BitIdentical(expected, remote)) << policy;
    // Second call: served from the server cache, still bit-identical.
    service::PlacementResult cached;
    ASSERT_EQ(fx.client_.Call(req, 0, &cached, &code, &err),
              net::Client::Status::kOk);
    EXPECT_TRUE(service::BitIdentical(expected, cached));
  }
  local.Shutdown();
  EXPECT_GE(fx.server_.stats().responses, 6u);
}

TEST(Server, InvalidRequestTravelsAsResultError) {
  ServerFixture fx;
  service::PlacementRequest req{"NoSuchApp", "pm", 1.0, 1.0, 0, 1};
  service::PlacementResult remote;
  net::ErrorCode code;
  std::string err;
  ASSERT_EQ(fx.client_.Call(req, 0, &remote, &code, &err),
            net::Client::Status::kOk);
  EXPECT_FALSE(remote.ok());
  EXPECT_NE(remote.error.find("unknown application"), std::string::npos);
}

TEST(Server, UnfittableScaleAnswersErrorAndServerStaysUp) {
  ServerFixture fx;
  // At scale 1e-9 no object fits one page of the scaled tiers; the engine
  // rejects the workload and the server must answer, not crash.
  for (const char* policy : {"pm", "merch"}) {
    const service::PlacementRequest req = MakeRequest("SpGEMM", policy, 1e-9);
    service::PlacementResult remote;
    net::ErrorCode code;
    std::string err;
    ASSERT_EQ(fx.client_.Call(req, 0, &remote, &code, &err),
              net::Client::Status::kOk)
        << err;
    EXPECT_FALSE(remote.ok()) << policy;
    EXPECT_NE(remote.error.find("does not fit"), std::string::npos)
        << remote.error;
  }
  std::string err;
  EXPECT_EQ(fx.client_.Ping(&err), net::Client::Status::kOk) << err;
}

TEST(Server, PingPong) {
  ServerFixture fx;
  std::string err;
  EXPECT_EQ(fx.client_.Ping(&err), net::Client::Status::kOk) << err;
  EXPECT_GE(fx.server_.stats().pings, 1u);
}

/// Send one frame over a raw socket and read back the first reply frame.
net::Frame RawTransact(std::uint16_t port, const net::Frame& frame) {
  std::string err;
  const int fd = net::ConnectTo("127.0.0.1", port, &err);
  EXPECT_GE(fd, 0) << err;
  const std::string bytes = net::EncodeFrame(frame);
  EXPECT_TRUE(net::WriteAll(fd, bytes.data(), bytes.size()));
  net::FrameParser parser;
  net::Frame reply;
  for (;;) {
    char buf[4096];
    const long n = net::ReadSome(fd, buf, sizeof buf);
    EXPECT_GT(n, 0) << "connection closed before a reply frame";
    if (n <= 0) break;
    parser.Feed(buf, static_cast<std::size_t>(n));
    std::string perr;
    const auto status = parser.Next(&reply, &perr);
    if (status == net::FrameParser::Status::kFrame) break;
    EXPECT_EQ(status, net::FrameParser::Status::kNeedMore) << perr;
  }
  net::CloseFd(fd);
  return reply;
}

TEST(Server, V1ClientsGetV1ShapedReplies) {
  // The per-message version rule: a v1 request frame (no trace context in
  // the payload) gets a v1 response — the result bytes directly, no
  // trace-id prefix — so pre-v2 clients keep working against this server.
  ServerFixture fx;
  const service::PlacementRequest req = MakeRequest("SpGEMM", "pm");
  service::WireWriter w;
  w.U32(0);  // deadline_ms; a v1 payload has no trace context after it
  service::EncodeRequest(req, &w);
  const net::Frame reply = RawTransact(
      fx.server_.port(),
      {net::FrameType::kRequest, 31, w.bytes(), net::kMinProtocolVersion});
  ASSERT_EQ(reply.type, net::FrameType::kResponse);
  EXPECT_EQ(reply.seq, 31u);
  EXPECT_EQ(reply.version, net::kMinProtocolVersion);
  service::WireReader r(reply.payload);
  service::PlacementResult result;
  ASSERT_TRUE(service::DecodeResult(&r, &result));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(result.ok()) << result.error;

  // Same for pings: a v1 ping gets the classic empty pong.
  const net::Frame pong = RawTransact(
      fx.server_.port(),
      {net::FrameType::kPing, 32, "", net::kMinProtocolVersion});
  ASSERT_EQ(pong.type, net::FrameType::kPong);
  EXPECT_EQ(pong.version, net::kMinProtocolVersion);
  EXPECT_TRUE(pong.payload.empty());
}

TEST(Server, V2ResponsesEchoTheRequestTraceContext) {
  ServerFixture fx;
  const service::PlacementRequest req = MakeRequest("SpGEMM", "pm");
  service::WireWriter w;
  w.U32(0);
  net::AppendTraceContext({0xABC123, 0x456}, &w);
  service::EncodeRequest(req, &w);
  const net::Frame reply = RawTransact(
      fx.server_.port(), {net::FrameType::kRequest, 8, w.bytes()});
  ASSERT_EQ(reply.type, net::FrameType::kResponse);
  EXPECT_EQ(reply.version, net::kProtocolVersion);
  service::WireReader r(reply.payload);
  std::uint64_t trace_id = 0, server_span = 0;
  ASSERT_TRUE(r.U64(&trace_id));
  ASSERT_TRUE(r.U64(&server_span));
  EXPECT_EQ(trace_id, 0xABC123u) << "response lost the trace context";
  EXPECT_NE(server_span, 0u);
  service::PlacementResult result;
  ASSERT_TRUE(service::DecodeResult(&r, &result));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(result.ok()) << result.error;
}

TEST(Server, MetricsFrameReturnsIdentityAndExport) {
  net::ServerConfig cfg;
  cfg.process_name = "metrics-test-server";
  ServerFixture fx(cfg);
  net::MetricsReplyPayload reply;
  net::ErrorCode code;
  std::string err;
  ASSERT_EQ(fx.client_.FetchMetrics(&reply, &code, &err),
            net::Client::Status::kOk)
      << err;
  EXPECT_EQ(reply.process_name, "metrics-test-server");
  EXPECT_EQ(reply.pid, static_cast<std::uint64_t>(::getpid()));
  // Every export leads with the build identity.
  EXPECT_NE(reply.prometheus_text.find("merch_build_info"),
            std::string::npos);
  obs::ParsedMetrics parsed;
  EXPECT_TRUE(
      obs::ParsePrometheusText(reply.prometheus_text, &parsed, &err))
      << err;
}

TEST(Server, PeerClockEstimateUsesV2Pongs) {
  ServerFixture fx;
  obs::TraceRecorder& rec = obs::TraceRecorder::Instance();
  rec.Start();
  obs::PeerClock peer;
  std::string err;
  ASSERT_TRUE(net::EstimatePeerClock(fx.client_, 4, &peer, &err)) << err;
  rec.Stop();
  EXPECT_EQ(peer.name, "merchd");  // ServerConfig default identity
  EXPECT_EQ(peer.pid, static_cast<std::uint64_t>(::getpid()));
  // Server and client share this process's trace clock, so the measured
  // offset is bounded by loopback round-trip noise.
  EXPECT_LT(std::abs(peer.offset_ns), 500'000'000ll);
}

TEST(Server, OverloadShedsWithRetryLaterButServesCacheHits) {
  net::ServerConfig cfg;
  cfg.max_inflight = 0;  // admission rejects every simulation
  ServerFixture fx(cfg);
  const service::PlacementRequest req = MakeRequest("SpGEMM", "pm");

  service::PlacementResult result;
  net::ErrorCode code;
  std::string err;
  ASSERT_EQ(fx.client_.Call(req, 0, &result, &code, &err),
            net::Client::Status::kRemoteError);
  EXPECT_EQ(code, net::ErrorCode::kRetryLater);
  EXPECT_GE(fx.server_.stats().shed, 1u);

  // Warm the cache behind the server's back: the hit path must bypass
  // admission control entirely.
  const service::PlacementResult expected =
      fx.server_.service().Submit(req).future.get();
  ASSERT_EQ(fx.client_.Call(req, 0, &result, &code, &err),
            net::Client::Status::kOk)
      << err;
  EXPECT_TRUE(service::BitIdentical(expected, result));
}

TEST(Server, DeadlineExpiryAnswersTimeout) {
  ServerFixture fx;
  // 'merch' trains a correlation model first — far more than 1ms of work.
  const service::PlacementRequest req = MakeRequest("SpGEMM", "merch");
  service::PlacementResult result;
  net::ErrorCode code;
  std::string err;
  ASSERT_EQ(fx.client_.Call(req, 1, &result, &code, &err),
            net::Client::Status::kRemoteError);
  EXPECT_EQ(code, net::ErrorCode::kTimeout);
  EXPECT_GE(fx.server_.stats().timeouts, 1u);
}

TEST(Server, GarbageBytesGetProtocolErrorNotCrash) {
  ServerFixture fx;
  // A raw socket spraying garbage must be answered (or dropped) cleanly...
  std::string err;
  int fd = net::ConnectTo("127.0.0.1", fx.server_.port(), &err);
  ASSERT_GE(fd, 0) << err;
  const std::string garbage(64, '\xEE');
  ASSERT_TRUE(net::WriteAll(fd, garbage.data(), garbage.size()));
  char buf[256];
  const long n = net::ReadSome(fd, buf, sizeof buf);  // error frame or EOF
  EXPECT_GE(n, 0);
  net::CloseFd(fd);
  // ...and the server keeps serving well-behaved clients afterwards.
  EXPECT_EQ(fx.client_.Ping(&err), net::Client::Status::kOk) << err;
  EXPECT_GE(fx.server_.stats().protocol_errors, 1u);
}

TEST(Server, MalformedRequestPayloadAnswersMalformed) {
  ServerFixture fx;
  std::string err;
  int fd = net::ConnectTo("127.0.0.1", fx.server_.port(), &err);
  ASSERT_GE(fd, 0) << err;
  // Valid frame envelope, undecodable request payload.
  const std::string bytes =
      net::EncodeFrame({net::FrameType::kRequest, 5, "\x01\x02\x03"});
  ASSERT_TRUE(net::WriteAll(fd, bytes.data(), bytes.size()));
  net::FrameParser parser;
  net::Frame reply;
  for (;;) {
    char buf[512];
    const long n = net::ReadSome(fd, buf, sizeof buf);
    ASSERT_GT(n, 0);
    parser.Feed(buf, static_cast<std::size_t>(n));
    std::string perr;
    const auto status = parser.Next(&reply, &perr);
    if (status == net::FrameParser::Status::kFrame) break;
    ASSERT_EQ(status, net::FrameParser::Status::kNeedMore) << perr;
  }
  net::CloseFd(fd);
  ASSERT_EQ(reply.type, net::FrameType::kError);
  EXPECT_EQ(reply.seq, 5u);
  net::ErrorCode code;
  std::string msg;
  ASSERT_TRUE(net::DecodeErrorPayload(reply.payload, &code, &msg));
  EXPECT_EQ(code, net::ErrorCode::kMalformed);
}

TEST(Server, GracefulStopAnswersInFlightRequests) {
  net::ServerConfig cfg;
  cfg.threads = 1;
  ServerFixture fx(cfg);
  // A request slow enough (training) to still be in flight when Stop()
  // lands; the drain must deliver its response, not orphan it.
  const service::PlacementRequest req = MakeRequest("SpGEMM", "merch");
  std::atomic<bool> got{false};
  net::Client::Status status = net::Client::Status::kTransportError;
  std::thread caller([&] {
    service::PlacementResult result;
    net::ErrorCode code;
    std::string err;
    status = fx.client_.Call(req, 60000, &result, &code, &err);
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  fx.server_.Stop();
  caller.join();
  EXPECT_TRUE(got.load());
  EXPECT_EQ(status, net::Client::Status::kOk);
}

TEST(Server, SnapshotSurvivesRestart) {
  const std::string path =
      ::testing::TempDir() + "/merch_net_test.snapshot";
  std::remove(path.c_str());
  const service::PlacementRequest req = MakeRequest("BFS", "pm");
  service::PlacementResult expected;
  {
    net::ServerConfig cfg;
    cfg.snapshot_save = path;
    ServerFixture fx(cfg);
    net::ErrorCode code;
    std::string err;
    ASSERT_EQ(fx.client_.Call(req, 0, &expected, &code, &err),
              net::Client::Status::kOk)
        << err;
    fx.server_.Stop();  // writes the snapshot
  }
  {
    net::ServerConfig cfg;
    cfg.snapshot_load = path;
    cfg.max_inflight = 0;  // only the warmed cache can answer
    ServerFixture fx(cfg);
    service::PlacementResult result;
    net::ErrorCode code;
    std::string err;
    ASSERT_EQ(fx.client_.Call(req, 0, &result, &code, &err),
              net::Client::Status::kOk)
        << err;
    EXPECT_TRUE(service::BitIdentical(expected, result));
  }
  std::remove(path.c_str());
}

// --- router --------------------------------------------------------------

net::RouterConfig TestRouterConfig(std::size_t shards) {
  net::RouterConfig cfg;
  cfg.shards = shards;
  cfg.worker_command = {MERCHD_BIN, "--threads", "2", "--cache", "64"};
  return cfg;
}

TEST(Router, ShardedResultsAreBitIdenticalToInProcess) {
  net::ShardRouter router(TestRouterConfig(2));
  std::string err;
  ASSERT_TRUE(router.Start(&err)) << err;

  service::PlacementService local({.threads = 2, .cache_capacity = 64});
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port(), &err)) << err;
  for (const char* app : {"SpGEMM", "WarpX", "BFS"}) {
    for (const char* policy : {"pm", "mo"}) {
      const service::PlacementRequest req = MakeRequest(app, policy);
      const service::PlacementResult expected =
          local.Submit(req).future.get();
      service::PlacementResult remote;
      net::ErrorCode code;
      ASSERT_EQ(client.Call(req, 0, &remote, &code, &err),
                net::Client::Status::kOk)
          << app << "/" << policy << ": " << err;
      EXPECT_TRUE(service::BitIdentical(expected, remote))
          << app << "/" << policy;
    }
  }
  local.Shutdown();
  EXPECT_GE(router.stats().forwarded, 6u);

  // Invalid requests come back as result-level errors, same as in-process.
  service::PlacementRequest bad{"NoSuchApp", "pm", 1.0, 1.0, 0, 1};
  service::PlacementResult remote;
  net::ErrorCode code;
  ASSERT_EQ(client.Call(bad, 0, &remote, &code, &err),
            net::Client::Status::kOk);
  EXPECT_FALSE(remote.ok());

  router.Stop();
}

TEST(Router, CrashedWorkerIsRestartedAndServiceContinues) {
  net::ShardRouter router(TestRouterConfig(2));
  std::string err;
  ASSERT_TRUE(router.Start(&err)) << err;
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port(), &err)) << err;

  const service::PlacementRequest req = MakeRequest("SpGEMM", "pm");
  service::PlacementResult before;
  net::ErrorCode code;
  ASSERT_EQ(client.Call(req, 0, &before, &code, &err),
            net::Client::Status::kOk)
      << err;

  // Kill every worker: whichever shard owns the key is definitely dead.
  const std::vector<int> pids = router.worker_pids();
  ASSERT_EQ(pids.size(), 2u);
  for (int pid : pids) ::kill(pid, SIGKILL);

  // The monitor must respawn them; a retry loop absorbs the window where
  // the router answers UNAVAILABLE while workers come back.
  service::PlacementResult after;
  bool ok = false;
  for (int attempt = 0; attempt < 100 && !ok; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    net::Client retry;  // the old connection may have been poisoned
    if (!retry.Connect("127.0.0.1", router.port(), &err)) continue;
    ok = retry.Call(req, 0, &after, &code, &err) == net::Client::Status::kOk;
  }
  ASSERT_TRUE(ok) << "service did not recover after worker crash: " << err;
  EXPECT_TRUE(service::BitIdentical(before, after));
  EXPECT_GE(router.stats().restarts, 2u);

  const std::vector<int> fresh = router.worker_pids();
  EXPECT_NE(fresh, pids);
  router.Stop();
  // No zombie workers: every fresh pid must be reaped after Stop().
  for (int pid : fresh) {
    EXPECT_EQ(::kill(pid, 0), -1) << "worker " << pid << " still alive";
  }
}

/// Pull and parse one process's Prometheus export over the wire.
obs::ParsedMetrics FetchParsedMetrics(std::uint16_t port,
                                      std::string* process_name = nullptr) {
  net::Client client;
  std::string err;
  EXPECT_TRUE(client.Connect("127.0.0.1", port, &err)) << err;
  net::MetricsReplyPayload reply;
  net::ErrorCode code;
  EXPECT_EQ(client.FetchMetrics(&reply, &code, &err),
            net::Client::Status::kOk)
      << err;
  if (process_name != nullptr) *process_name = reply.process_name;
  obs::ParsedMetrics parsed;
  EXPECT_TRUE(obs::ParsePrometheusText(reply.prometheus_text, &parsed, &err))
      << err;
  return parsed;
}

TEST(Router, FederatedMetricsSumShardCountersExactly) {
  net::ShardRouter router(TestRouterConfig(2));
  std::string err;
  ASSERT_TRUE(router.Start(&err)) << err;
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port(), &err)) << err;

  // Distinct requests so the shard workers do real engine work.
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    const service::PlacementRequest req =
        MakeRequest("SpGEMM", "pm", 0.01, seed);
    service::PlacementResult result;
    net::ErrorCode code;
    ASSERT_EQ(client.Call(req, 0, &result, &code, &err),
              net::Client::Status::kOk)
        << err;
  }

  // Ground truth: the workers' own exports plus this process's registry
  // (the router federates itself under its process name). Only counters
  // that nothing but placement execution moves are compared, so the pulls
  // themselves cannot skew the books.
  const char* const kStable[] = {"merch_engine_base_builds_total",
                                 "merch_cache_misses_total",
                                 "merch_service_simulated_total"};
  const std::vector<std::uint16_t> ports = router.worker_ports();
  ASSERT_EQ(ports.size(), 2u);
  std::map<std::string, double> expected;
  for (const std::uint16_t port : ports) {
    for (const auto& [name, value] : FetchParsedMetrics(port).counters) {
      expected[name] += value;
    }
  }
  obs::ParsedMetrics own;
  ASSERT_TRUE(obs::ParsePrometheusText(
      obs::MetricsRegistry::Instance().PrometheusText(), &own, &err))
      << err;
  for (const auto& [name, value] : own.counters) expected[name] += value;

  std::string responder;
  const obs::ParsedMetrics fed =
      FetchParsedMetrics(router.port(), &responder);
  EXPECT_EQ(responder, "router");
  for (const char* name : kStable) {
    const auto it = fed.counters.find(name);
    const double fleet = it == fed.counters.end() ? 0 : it->second;
    EXPECT_EQ(fleet, expected[name]) << name;
  }

  // The raw federated text keeps per-shard series and build identities.
  std::string raw_err;
  std::string raw;
  ASSERT_TRUE(router.FederatedPrometheus(&raw, &raw_err)) << raw_err;
  for (const char* shard : {"router", "shard0", "shard1"}) {
    EXPECT_NE(raw.find("merch_build_info{shard=\"" + std::string(shard) +
                       "\","),
              std::string::npos)
        << shard;
  }

  router.Stop();
}

}  // namespace
}  // namespace merch
