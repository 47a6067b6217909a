// Tests for the network serving front-end (src/net): HTTP parser, JSON
// field extraction, SSE framing, event loop, and end-to-end loopback
// serving over HttpServer (streamed generation, disconnect-cancellation
// with full page reclamation, also under concurrent streams, deadlines,
// backpressure).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "net/event_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/step_tracer.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "serve/scheduler.hpp"

namespace lserve::net {
namespace {

// ---------------------------------------------------------------------------
// HttpParser.

TEST(HttpParser, ParsesSimpleGet) {
  HttpParser parser;
  const auto state =
      parser.feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_EQ(state, HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/healthz");
  EXPECT_EQ(parser.request().version, "HTTP/1.1");
  ASSERT_NE(parser.request().header("host"), nullptr);
  EXPECT_EQ(*parser.request().header("HOST"), "x");
}

TEST(HttpParser, ParsesPostBodyIncrementallyOneByteAtATime) {
  const std::string raw =
      "POST /v1/generate HTTP/1.1\r\nContent-Length: 11\r\n"
      "Content-Type: application/json\r\n\r\n{\"a\": 1234}";
  HttpParser parser;
  for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
    ASSERT_NE(parser.feed(std::string_view(&raw[i], 1)),
              HttpParser::State::kComplete)
        << "completed early at byte " << i;
    ASSERT_FALSE(parser.failed());
  }
  ASSERT_EQ(parser.feed(std::string_view(&raw.back(), 1)),
            HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().body, "{\"a\": 1234}");
}

TEST(HttpParser, ToleratesBareLfAndMissingBody) {
  HttpParser parser;
  ASSERT_EQ(parser.feed("GET / HTTP/1.1\nHost: y\n\n"),
            HttpParser::State::kComplete);
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(HttpParser, RejectsMalformedInput) {
  HttpParser line;
  EXPECT_EQ(line.feed("NONSENSE\r\n\r\n"), HttpParser::State::kError);

  HttpParser header;
  EXPECT_EQ(header.feed("GET / HTTP/1.1\r\nbadheader\r\n\r\n"),
            HttpParser::State::kError);

  HttpParser proto;
  EXPECT_EQ(proto.feed("GET / SPDY/99\r\n\r\n"), HttpParser::State::kError);

  HttpParser chunked;
  EXPECT_EQ(
      chunked.feed(
          "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
      HttpParser::State::kError);
}

TEST(HttpParser, EnforcesBodyLimit) {
  HttpParser::Limits limits;
  limits.max_body_bytes = 8;
  HttpParser parser(limits);
  EXPECT_EQ(parser.feed("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n"),
            HttpParser::State::kError);
}

TEST(HttpParser, ResetAllowsReuse) {
  HttpParser parser;
  ASSERT_EQ(parser.feed("GET /a HTTP/1.1\r\n\r\n"),
            HttpParser::State::kComplete);
  parser.reset();
  ASSERT_EQ(parser.feed("GET /b HTTP/1.1\r\n\r\n"),
            HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/b");
}

// ---------------------------------------------------------------------------
// JSON field extraction + SSE framing.

TEST(Json, FindsIntsAndArrays) {
  const std::string body =
      "{\"prompt_len\": 32, \"max_new_tokens\":8, "
      "\"prompt\": [ 1, 2 ,3, -4 ], \"seed\": -7}";
  EXPECT_EQ(json_find_int(body, "prompt_len").value_or(-1), 32);
  EXPECT_EQ(json_find_int(body, "max_new_tokens").value_or(-1), 8);
  EXPECT_EQ(json_find_int(body, "seed").value_or(0), -7);
  EXPECT_FALSE(json_find_int(body, "missing").has_value());
  const auto prompt = json_find_int_array(body, "prompt");
  ASSERT_TRUE(prompt.has_value());
  EXPECT_EQ(*prompt, (std::vector<std::int32_t>{1, 2, 3, -4}));
  EXPECT_FALSE(json_find_int_array(body, "prompt_len").has_value());
  EXPECT_FALSE(json_find_int_array(body, "nope").has_value());
  EXPECT_FALSE(json_find_int_array("{\"a\": [1, 2", "a").has_value());
}

TEST(Sse, FramesEvents) {
  EXPECT_EQ(sse_event("token", "{\"index\":0}"),
            "event: token\ndata: {\"index\":0}\n\n");
  const std::string head = sse_response_head();
  EXPECT_NE(head.find("200 OK"), std::string::npos);
  EXPECT_NE(head.find("text/event-stream"), std::string::npos);
}

// ---------------------------------------------------------------------------
// EventLoop.

TEST(EventLoop, RunsPostedTasksFromOtherThreads) {
  EventLoop loop;
  std::atomic<int> ran{0};
  std::thread runner([&] { loop.run(); });
  for (int i = 0; i < 10; ++i) {
    loop.post([&] { ran.fetch_add(1); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ran.load() < 10 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.stop();
  runner.join();
  EXPECT_EQ(ran.load(), 10);
}

TEST(EventLoop, DispatchesReadableFd) {
  EventLoop loop;
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  std::atomic<int> got{-1};
  loop.add(pipefd[0], kReadable, [&](std::uint32_t) {
    char c = 0;
    ASSERT_EQ(::read(pipefd[0], &c, 1), 1);
    got.store(c);
    loop.remove(pipefd[0]);
    loop.stop();
  });
  std::thread runner([&] { loop.run(); });
  const char byte = 'z';
  ASSERT_EQ(::write(pipefd[1], &byte, 1), 1);
  runner.join();
  EXPECT_EQ(got.load(), 'z');
  ::close(pipefd[0]);
  ::close(pipefd[1]);
}

// ---------------------------------------------------------------------------
// End-to-end loopback serving.

serve::EngineConfig engine_cfg() {
  serve::EngineConfig c = baselines::vllm_config(model::tiny());
  c.dense_pages.page_size = 8;
  c.dense_pages.logical_page_size = 8;
  c.tiling = {8, 8};
  c.pool_pages = 512;
  return c;
}

/// Ephemeral loopback port; everything else at defaults.
ServerConfig loopback_cfg() {
  ServerConfig cfg;
  cfg.port = 0;
  return cfg;
}

/// Occurrences of `what` in `s`.
std::size_t count_of(const std::string& s, const std::string& what) {
  std::size_t n = 0;
  for (std::size_t p = s.find(what); p != std::string::npos;
       p = s.find(what, p + what.size())) {
    ++n;
  }
  return n;
}

/// Blocking loopback client. Sends `request` and reads until `until` has
/// been seen `times` times (or the peer closes / 30s passes), then closes
/// the socket; returns everything received.
std::string talk(std::uint16_t port, const std::string& request,
                 const std::string& until, std::size_t times = 1) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string received;
  char buf[4096];
  while (count_of(received, until) < times) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    received.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return received;
}

std::string post_generate(const std::string& body) {
  return "POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Token values parsed from the SSE stream, in index order.
std::vector<std::int32_t> stream_tokens(const std::string& stream) {
  std::vector<std::int32_t> tokens;
  std::size_t pos = 0;
  while ((pos = stream.find("\"token\":", pos)) != std::string::npos) {
    tokens.push_back(std::atoi(stream.c_str() + pos + 8));
    pos += 8;
  }
  return tokens;
}

TEST(HttpServer, StreamsGenerationMatchingDirectEngineRun) {
  serve::Engine engine(engine_cfg());
  serve::Scheduler sched(engine, 4);
  HttpServer server(sched, loopback_cfg());
  const std::uint16_t port = server.start();

  const std::string stream = talk(
      port, post_generate("{\"prompt\":[5,18,31,44,57],"
                          "\"max_new_tokens\":6}"),
      "event: done");
  EXPECT_NE(stream.find("text/event-stream"), std::string::npos);
  EXPECT_NE(stream.find("\"status\":\"FINISHED\""), std::string::npos);

  // The streamed tokens are exactly what the engine produces directly.
  serve::Engine direct(engine_cfg());
  const auto seq = direct.create_sequence();
  const std::vector<std::int32_t> prompt{5, 18, 31, 44, 57};
  const auto expected =
      direct.generate(seq, std::span<const std::int32_t>(prompt), 6);
  EXPECT_EQ(stream_tokens(stream), expected);

  server.stop();
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
}

TEST(HttpServer, DisconnectMidStreamCancelsAndReclaimsPages) {
  serve::Engine engine(engine_cfg());
  serve::Scheduler sched(engine, 4);
  HttpServer server(sched, loopback_cfg());
  const std::uint16_t port = server.start();

  // A long stream we abandon after the first token event: reading until
  // the first "event: token" then closing is a mid-stream disconnect.
  const std::string partial = talk(
      port, post_generate("{\"prompt_len\":16,\"max_new_tokens\":512}"),
      "event: token");
  EXPECT_NE(partial.find("event: token"), std::string::npos);
  EXPECT_EQ(partial.find("event: done"), std::string::npos);

  // The server must cancel the request; every page goes back to the pool.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (sched.live_requests() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(sched.live_requests(), 0u);
  server.stop();
  // Read stats only after stop() joined the scheduler thread (the stats
  // object is scheduler-thread-only while serving).
  EXPECT_GE(sched.scheduler_stats().cancelled, 1u);
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
  EXPECT_EQ(engine.dense_allocator().free_pages(),
            engine.dense_allocator().capacity());
}

TEST(HttpServer, AbandonedConcurrentStreamsCancelAndReclaimPages) {
  serve::Engine engine(engine_cfg());
  serve::Scheduler sched(engine, 8);
  HttpServer server(sched, loopback_cfg());
  const std::uint16_t port = server.start();

  // Six concurrent streams; every third client hangs up after its second
  // token event, hundreds of tokens before its request would finish.
  constexpr std::size_t kStreams = 6;
  const auto abandoned = [](std::size_t i) { return i % 3 == 2; };
  std::vector<std::string> streams(kStreams);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kStreams; ++i) {
    clients.emplace_back([&, i] {
      const std::string body =
          "{\"prompt_len\":16,\"seed\":" + std::to_string(i) +
          ",\"max_new_tokens\":" + (abandoned(i) ? "512" : "12") + "}";
      streams[i] = abandoned(i)
                       ? talk(port, post_generate(body), "event: token", 2)
                       : talk(port, post_generate(body), "event: done");
    });
  }
  for (std::thread& t : clients) t.join();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (sched.live_requests() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(sched.live_requests(), 0u);
  server.stop();

  std::size_t n_abandoned = 0;
  for (std::size_t i = 0; i < kStreams; ++i) {
    SCOPED_TRACE("stream " + std::to_string(i));
    if (abandoned(i)) {
      ++n_abandoned;
      EXPECT_GE(count_of(streams[i], "event: token"), 2u);
      EXPECT_EQ(streams[i].find("event: done"), std::string::npos);
    } else {
      EXPECT_NE(streams[i].find("\"status\":\"FINISHED\""),
                std::string::npos);
    }
  }
  // Read stats only after stop() joined the scheduler thread.
  EXPECT_EQ(sched.scheduler_stats().cancelled, n_abandoned);
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
}

TEST(HttpServer, DeadlineSurfacesInTerminalEvent) {
  serve::Engine engine(engine_cfg());
  serve::Scheduler sched(engine, 4);
  HttpServer server(sched, loopback_cfg());
  const std::uint16_t port = server.start();

  const std::string stream = talk(
      port,
      post_generate("{\"prompt_len\":8,\"max_new_tokens\":512,"
                    "\"deadline_steps\":3}"),
      "event: done");
  EXPECT_NE(stream.find("\"status\":\"DEADLINE_EXCEEDED\""),
            std::string::npos);
  server.stop();
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
}

TEST(HttpServer, HealthzRespondsAndUnknownTargets404) {
  serve::Engine engine(engine_cfg());
  serve::Scheduler sched(engine, 4);
  HttpServer server(sched, loopback_cfg());
  const std::uint16_t port = server.start();

  const std::string health =
      talk(port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", "}");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);

  // Every non-2xx JSON body follows the structured error schema:
  // {"error":{"code":"...","message":"..."}}.
  const std::string missing =
      talk(port, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n", "}");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);
  EXPECT_NE(missing.find("{\"error\":{\"code\":\"not_found\""),
            std::string::npos);
  EXPECT_NE(missing.find("\"message\":"), std::string::npos);

  const std::string bad = talk(port, post_generate("{}"), "}");
  EXPECT_NE(bad.find("400 Bad Request"), std::string::npos);
  EXPECT_NE(bad.find("{\"error\":{\"code\":\"bad_request\""),
            std::string::npos);
  EXPECT_NE(bad.find("\"message\":"), std::string::npos);

  // A hostile prompt_len must be rejected without ever allocating.
  const std::string huge = talk(
      port, post_generate("{\"prompt_len\":9000000000000000000}"), "}");
  EXPECT_NE(huge.find("400 Bad Request"), std::string::npos);
  EXPECT_NE(huge.find("{\"error\":{\"code\":\"bad_request\""),
            std::string::npos);

  // Without a wired registry/tracer the observability endpoints 404 and
  // /healthz omits the occupancy fields rather than inventing zeros.
  EXPECT_EQ(health.find("\"pages_free\""), std::string::npos);
  const std::string metrics =
      talk(port, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n", "}");
  EXPECT_NE(metrics.find("404 Not Found"), std::string::npos);
  const std::string trace =
      talk(port, "GET /debug/trace HTTP/1.1\r\nHost: t\r\n\r\n", "}");
  EXPECT_NE(trace.find("404 Not Found"), std::string::npos);
  server.stop();
}

TEST(HttpServer, MetricsEndpointExposesPrometheusTelemetry) {
  serve::Engine engine(engine_cfg());
  obs::MetricsRegistry reg;
  obs::StepTracer tracer(64);
  serve::SchedulerConfig sc;
  sc.max_batch = 4;
  sc.metrics = &reg;
  sc.tracer = &tracer;
  serve::Scheduler sched(engine, sc);
  ServerConfig cfg = loopback_cfg();
  cfg.metrics = &reg;
  cfg.tracer = &tracer;
  HttpServer server(sched, cfg);
  const std::uint16_t port = server.start();

  // One full generation so the latency histograms hold real samples.
  const std::string stream = talk(
      port, post_generate("{\"prompt_len\":8,\"max_new_tokens\":4}"),
      "event: done");
  EXPECT_NE(stream.find("\"status\":\"FINISHED\""), std::string::npos);

  // The scrape connection closes after the flush, so read to EOF.
  const std::string page =
      talk(port, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n", "\xff");
  EXPECT_NE(page.find("200 OK"), std::string::npos);
  EXPECT_NE(page.find("text/plain; version=0.0.4"), std::string::npos);
  // Text-format shape: HELP/TYPE headers, cumulative histogram series.
  EXPECT_NE(page.find("# TYPE lserve_request_ttft_seconds histogram"),
            std::string::npos);
  EXPECT_NE(page.find("lserve_request_ttft_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(page.find("lserve_request_ttft_seconds_count 1"),
            std::string::npos);
  EXPECT_NE(page.find("lserve_request_tpot_seconds_count 3"),
            std::string::npos);
  // Lifecycle counters, routed-decode labels, and HTTP-layer counters all
  // land on the same page.
  EXPECT_NE(page.find("lserve_requests_finished_total 1"), std::string::npos);
  EXPECT_NE(page.find("lserve_scheduler_steps_total"), std::string::npos);
  EXPECT_NE(page.find("lserve_decode_route_steps_total{route=\"dense\"}"),
            std::string::npos);
  EXPECT_NE(page.find("lserve_decode_route_steps_total{route=\"sparse\"}"),
            std::string::npos);
  EXPECT_NE(page.find("# TYPE lserve_kv_pages_in_use gauge"),
            std::string::npos);
  EXPECT_NE(page.find("lserve_http_accepts_total"), std::string::npos);

  // /healthz reports occupancy and queue depth from the same registry.
  const std::string health =
      talk(port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", "}");
  EXPECT_NE(health.find("\"pages_free\":"), std::string::npos);
  EXPECT_NE(health.find("\"pages_total\":"), std::string::npos);
  EXPECT_NE(health.find("\"waiting\":0"), std::string::npos);
  EXPECT_EQ(health.find("\"pages_total\":0,"), std::string::npos)
      << "capacity gauge should be non-zero: " << health;
  server.stop();
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
}

TEST(HttpServer, DebugTraceEndpointExportsChromeTraceJson) {
  serve::Engine engine(engine_cfg());
  obs::MetricsRegistry reg;
  obs::StepTracer tracer(64);
  serve::SchedulerConfig sc;
  sc.max_batch = 4;
  sc.metrics = &reg;
  sc.tracer = &tracer;
  serve::Scheduler sched(engine, sc);
  ServerConfig cfg = loopback_cfg();
  cfg.metrics = &reg;
  cfg.tracer = &tracer;
  HttpServer server(sched, cfg);
  const std::uint16_t port = server.start();

  const std::string stream = talk(
      port, post_generate("{\"prompt_len\":8,\"max_new_tokens\":4}"),
      "event: done");
  EXPECT_NE(stream.find("\"status\":\"FINISHED\""), std::string::npos);

  const std::string trace =
      talk(port, "GET /debug/trace HTTP/1.1\r\nHost: t\r\n\r\n", "\xff");
  EXPECT_NE(trace.find("200 OK"), std::string::npos);
  EXPECT_NE(trace.find("application/json"), std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"step\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"decode_batch\""), std::string::npos);
  server.stop();
}

TEST(HttpServer, BackpressureRejectsWith503) {
  serve::Engine engine(engine_cfg());
  serve::Scheduler sched(engine, 4);
  ServerConfig cfg;
  cfg.port = 0;
  cfg.max_live = 1;
  HttpServer server(sched, cfg);
  const std::uint16_t port = server.start();

  // Occupy the single live slot with a long-running stream on a separate
  // socket that stays open while the second request arrives.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string first =
      post_generate("{\"prompt_len\":16,\"max_new_tokens\":4096}");
  ASSERT_EQ(::send(fd, first.data(), first.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(first.size()));
  // Wait until the stream is live before probing the overload path.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (sched.live_requests() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(sched.live_requests(), 1u);

  const std::string rejected = talk(
      port, post_generate("{\"prompt_len\":8,\"max_new_tokens\":4}"), "}");
  EXPECT_NE(rejected.find("503 Service Unavailable"), std::string::npos);
  EXPECT_NE(rejected.find("{\"error\":{\"code\":\"overloaded\""),
            std::string::npos);
  EXPECT_NE(rejected.find("\"message\":"), std::string::npos);

  ::close(fd);  // disconnect-cancel the long stream.
  server.stop();
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
}

}  // namespace
}  // namespace lserve::net
