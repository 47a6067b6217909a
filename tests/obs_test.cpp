// Tests for the observability layer (src/obs) and its serving
// integration: metric primitives under concurrency, histogram bucket/
// quantile semantics, the Prometheus exposition golden format, the step
// tracer ring, deterministic wall-clock telemetry through an injected
// FakeClock, the telemetry-never-changes-scheduling bit-identity pin, and
// the per-step export of counters owned by the prefix cache, the engine
// and the tier store.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "net/server.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/step_tracer.hpp"
#include "serve/scheduler.hpp"

namespace lserve::obs {
namespace {

// ---------------------------------------------------------------------------
// Metric primitives.

TEST(Metrics, CounterGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.set(-1.0);  // gauges may go down.
  EXPECT_EQ(g.value(), -1.0);
}

// The TSan CI job runs this suite: concurrent increments on one counter
// and one histogram must be race-free and lose no updates.
TEST(Metrics, ConcurrentIncrementsLoseNothing) {
  MetricsRegistry reg;
  Counter& c = reg.counter("t_total", "concurrent counter");
  Histogram& h =
      reg.histogram("t_seconds", "concurrent histogram", {1.0, 2.0, 4.0});
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 20000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h] {
      for (std::size_t i = 0; i < kIters; ++i) {
        c.inc();
        h.observe(static_cast<double>(i % 5));  // 0,1,2,3,4 round-robin.
      }
    });
  }
  // Concurrent scrapes while the workers hammer the atomics: exposition
  // must never tear an individual value or trip TSan.
  for (int s = 0; s < 50; ++s) {
    const std::string page = reg.expose_prometheus();
    EXPECT_NE(page.find("t_total"), std::string::npos);
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(c.value(), kThreads * kIters);
  EXPECT_EQ(h.count(), kThreads * kIters);
  // Per thread: 4000 each of {0,1,2,3,4} -> sum = 4000 * 10.
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads) * 4000.0 * 10.0);
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], kThreads * 8000u);  // 0 and 1 (le=1 inclusive).
  EXPECT_EQ(counts[1], kThreads * 4000u);  // 2.
  EXPECT_EQ(counts[2], kThreads * 8000u);  // 3 and 4 (le=4 inclusive).
  EXPECT_EQ(counts[3], 0u);                // +Inf.
}

TEST(Metrics, RegisterOrGetSharesSeriesAndRejectsTypeClash) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x_total", "x");
  Counter& b = reg.counter("x_total", "x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_THROW(reg.gauge("x_total", "x"), std::invalid_argument);

  a.inc(7);
  EXPECT_EQ(reg.find_counter("x_total")->value(), 7u);
  EXPECT_EQ(reg.find_gauge("x_total"), nullptr);   // type mismatch.
  EXPECT_EQ(reg.find_counter("absent"), nullptr);  // unknown name.
}

// ---------------------------------------------------------------------------
// Histogram semantics.

TEST(Histogram, BucketBoundsAreInclusiveUpperLimits) {
  Histogram h({1.0, 10.0});
  h.observe(-5.0);      // below every bound: still the first bucket.
  h.observe(1.0);       // exactly le=1: first bucket (inclusive).
  h.observe(1.0000001); // just past: second bucket.
  h.observe(10.0);      // exactly le=10: second bucket.
  h.observe(10.5);      // past the last finite bound: +Inf.
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_NEAR(h.sum(), 17.5000001, 1e-9);
}

TEST(Histogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_NO_THROW(Histogram({}));  // only the +Inf bucket.
}

TEST(Histogram, QuantileInterpolatesWithinBucketAndClampsAtInf) {
  Histogram h({1.0, 2.0, 3.0});
  for (int i = 0; i < 10; ++i) h.observe(0.5);  // first bucket.
  for (int i = 0; i < 10; ++i) h.observe(1.5);  // second bucket.
  // Ranks 1..10 live in (0,1], 11..20 in (1,2].
  EXPECT_GT(h.quantile(0.25), 0.0);
  EXPECT_LE(h.quantile(0.25), 1.0);
  EXPECT_GT(h.quantile(0.75), 1.0);
  EXPECT_LE(h.quantile(0.75), 2.0);
  EXPECT_LE(h.quantile(0.25), h.quantile(0.75));  // monotone in p.

  Histogram tail({1.0, 2.0});
  tail.observe(100.0);  // +Inf bucket only.
  EXPECT_EQ(tail.quantile(0.5), 2.0);  // clamps to the last finite bound.

  Histogram empty({1.0});
  EXPECT_EQ(empty.quantile(0.5), 0.0);
}

TEST(Histogram, ExponentialBucketLaddersAreStrictlyIncreasing) {
  for (const std::vector<double>& ladder :
       {exponential_buckets(0.5, 1.04, 580),
        default_latency_buckets_seconds(), default_summary_buckets()}) {
    ASSERT_FALSE(ladder.empty());
    for (std::size_t i = 1; i < ladder.size(); ++i) {
      ASSERT_LT(ladder[i - 1], ladder[i]) << "at index " << i;
    }
    EXPECT_NO_THROW(Histogram{ladder});
  }
  EXPECT_THROW(exponential_buckets(0.0, 2.0, 4), std::invalid_argument);
  EXPECT_THROW(exponential_buckets(1.0, 1.0, 4), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Prometheus exposition (golden: registration order is preserved, one
// HELP/TYPE header per family, cumulative buckets, label splicing).

TEST(Metrics, PrometheusExpositionGolden) {
  MetricsRegistry reg;
  Counter& c = reg.counter("demo_total", "A demo counter.");
  Gauge& g = reg.gauge("demo_gauge", "A demo gauge.");
  Histogram& h =
      reg.histogram("demo_seconds", "A demo histogram.", {0.5, 1.0});
  Counter& dense = reg.counter("route_total{route=\"dense\"}", "Routes.");
  Counter& sparse = reg.counter("route_total{route=\"sparse\"}", "Routes.");
  c.inc(3);
  g.set(2.5);
  h.observe(0.25);  // le=0.5.
  h.observe(0.75);  // le=1.
  h.observe(9.0);   // +Inf.
  dense.inc(2);
  sparse.inc(1);

  const std::string expected =
      "# HELP demo_total A demo counter.\n"
      "# TYPE demo_total counter\n"
      "demo_total 3\n"
      "# HELP demo_gauge A demo gauge.\n"
      "# TYPE demo_gauge gauge\n"
      "demo_gauge 2.5\n"
      "# HELP demo_seconds A demo histogram.\n"
      "# TYPE demo_seconds histogram\n"
      "demo_seconds_bucket{le=\"0.5\"} 1\n"
      "demo_seconds_bucket{le=\"1\"} 2\n"
      "demo_seconds_bucket{le=\"+Inf\"} 3\n"
      "demo_seconds_sum 10\n"
      "demo_seconds_count 3\n"
      "# HELP route_total Routes.\n"
      "# TYPE route_total counter\n"
      "route_total{route=\"dense\"} 2\n"
      "route_total{route=\"sparse\"} 1\n";
  EXPECT_EQ(reg.expose_prometheus(), expected);
}

TEST(Metrics, LabeledHistogramSplicesLeAfterExistingLabels) {
  MetricsRegistry reg;
  Histogram& h =
      reg.histogram("lat_seconds{kind=\"a\"}", "Labeled.", {1.0});
  h.observe(0.5);
  const std::string page = reg.expose_prometheus();
  EXPECT_NE(page.find("lat_seconds_bucket{kind=\"a\",le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(page.find("lat_seconds_bucket{kind=\"a\",le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(page.find("lat_seconds_sum{kind=\"a\"} 0.5"), std::string::npos);
  EXPECT_NE(page.find("lat_seconds_count{kind=\"a\"} 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Clocks.

TEST(Clock, FakeClockAdvancesOnlyOnDemand) {
  FakeClock clk(100);
  EXPECT_EQ(clk.now_ns(), 100u);
  EXPECT_EQ(clk.now_ns(), 100u);
  clk.advance_ns(50);
  EXPECT_EQ(clk.now_ns(), 150u);
  clk.set_ns(1000);
  EXPECT_EQ(clk.now_ns(), 1000u);
}

TEST(Clock, MonotonicClockNeverGoesBackwards) {
  MonotonicClock clk;
  std::uint64_t prev = clk.now_ns();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = clk.now_ns();
    ASSERT_GE(now, prev);
    prev = now;
  }
}

// ---------------------------------------------------------------------------
// Step tracer.

TEST(StepTracer, RingWrapsKeepingTheMostRecentSteps) {
  FakeClock clk;
  StepTracer tracer(4);
  EXPECT_EQ(tracer.capacity(), 4u);
  for (std::uint64_t s = 1; s <= 10; ++s) {
    StepTraceBuilder b(&clk, s);
    {
      StepTraceBuilder::Span span = b.span("admit");
      clk.advance_ns(500);
    }
    clk.advance_ns(100);
    tracer.commit(b.finish());
  }
  EXPECT_EQ(tracer.committed(), 10u);
  const std::vector<StepTrace> snap = tracer.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest-first and only the most recent capacity() steps survive.
  EXPECT_EQ(snap[0].step, 7u);
  EXPECT_EQ(snap[3].step, 10u);
  for (const StepTrace& st : snap) {
    ASSERT_EQ(st.spans.size(), 1u);
    EXPECT_STREQ(st.spans[0].name, "admit");
    EXPECT_EQ(st.spans[0].dur_ns, 500u);
    EXPECT_EQ(st.dur_ns, 600u);
  }
}

TEST(StepTracer, InactiveBuilderCommitsNothing) {
  StepTracer tracer(8);
  StepTraceBuilder inactive;  // no clock: the tracing-off path.
  EXPECT_FALSE(inactive.active());
  {
    StepTraceBuilder::Span span = inactive.span("admit");  // no-op.
  }
  tracer.commit(inactive.finish());
  EXPECT_EQ(tracer.committed(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(StepTracer, ExportsWellFormedChromeTraceJson) {
  FakeClock clk(2000);
  StepTracer tracer(8);
  StepTraceBuilder b(&clk, 3);
  {
    StepTraceBuilder::Span span = b.span("decode_batch");
    clk.advance_ns(1500);
  }
  tracer.commit(b.finish());

  const std::string json = tracer.export_chrome_json();
  // Structure: metadata thread_name event, one step envelope, one span.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"step\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"decode_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // ts/dur are microseconds: 2000 ns -> 2.000, 1500 ns -> 1.500.
  EXPECT_NE(json.find("\"ts\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"step\":3}"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check without a JSON
  // parser; the CI smoke job runs the real `python3 -m json.tool`).
  std::ptrdiff_t braces = 0, brackets = 0;
  for (const char ch : json) {
    braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// ---------------------------------------------------------------------------
// Scheduler integration: deterministic wall-clock telemetry via FakeClock.

serve::EngineConfig engine_cfg() {
  serve::EngineConfig c = baselines::vllm_config(model::tiny());
  c.dense_pages.page_size = 8;
  c.dense_pages.logical_page_size = 8;
  c.tiling = {8, 8};
  c.pool_pages = 512;
  return c;
}

serve::Request make_request(std::size_t prompt_len, std::size_t new_tokens) {
  serve::Request req;
  req.prompt.resize(prompt_len);
  for (std::size_t i = 0; i < prompt_len; ++i) {
    req.prompt[i] = static_cast<std::int32_t>((i * 13 + 5) % 251);
  }
  req.max_new_tokens = new_tokens;
  return req;
}

// Doc drift: every series family the scheduler and the HTTP server register
// on one shared registry (the lserve_serve wiring) is named in
// docs/OBSERVABILITY.md.
TEST(SchedulerObs, EveryRegisteredSeriesIsDocumented) {
  serve::Engine engine(engine_cfg());
  MetricsRegistry reg;
  serve::SchedulerConfig sc;
  sc.metrics = &reg;
  serve::Scheduler sched(engine, sc);
  net::ServerConfig server_cfg;
  server_cfg.metrics = &reg;
  const net::HttpServer server(sched, server_cfg);

  std::ifstream in(std::string(LSERVE_DOCS_DIR) + "/OBSERVABILITY.md");
  ASSERT_TRUE(in) << "cannot read " << LSERVE_DOCS_DIR << "/OBSERVABILITY.md";
  std::stringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();

  std::istringstream exposition(reg.expose_prometheus());
  std::size_t families = 0;
  for (std::string line; std::getline(exposition, line);) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const std::string name = line.substr(7, line.find(' ', 7) - 7);
    ++families;
    // As a code span, whole: `name` or `name{labels}`.
    EXPECT_TRUE(doc.find("`" + name + "`") != std::string::npos ||
                doc.find("`" + name + "{") != std::string::npos)
        << name << " is registered but missing from docs/OBSERVABILITY.md";
  }
  EXPECT_GE(families, 30u);  // scheduler + server families were exposed
}

TEST(SchedulerObs, DeterministicTtftTpotQueueWaitAndE2eViaFakeClock) {
  serve::Engine engine(engine_cfg());
  auto clk = std::make_shared<FakeClock>();
  MetricsRegistry reg;
  StepTracer tracer(64);
  serve::SchedulerConfig sc;
  sc.max_batch = 2;
  sc.metrics = &reg;
  sc.tracer = &tracer;
  sc.clock = clk;
  serve::Scheduler sched(engine, sc);

  clk->set_ns(1000);
  sched.submit(make_request(8, 4));  // submit stamp: t=1000.
  clk->set_ns(3000);
  // Step 1 at t=3000: admit + monolithic prefill emits the first token
  // (TTFT = queue wait = 2000 ns), and the same step's decode batch
  // already includes the now-DECODING sequence, so token 2 commits at the
  // same stamp (TPOT sample 0).
  sched.step();
  clk->set_ns(4000);
  sched.step();  // token 3: TPOT 1000 ns.
  clk->set_ns(6000);
  while (sched.step()) {
  }  // token 4 at t=6000 (TPOT 2000 ns); the request retires that step.

  const Histogram* qw = reg.find_histogram("lserve_request_queue_wait_seconds");
  const Histogram* ttft = reg.find_histogram("lserve_request_ttft_seconds");
  const Histogram* tpot = reg.find_histogram("lserve_request_tpot_seconds");
  const Histogram* e2e = reg.find_histogram("lserve_request_e2e_seconds");
  ASSERT_NE(qw, nullptr);
  ASSERT_NE(ttft, nullptr);
  ASSERT_NE(tpot, nullptr);
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(qw->count(), 1u);
  EXPECT_DOUBLE_EQ(qw->sum(), 2000.0 * 1e-9);  // 3000 - 1000.
  EXPECT_EQ(ttft->count(), 1u);
  EXPECT_DOUBLE_EQ(ttft->sum(), 2000.0 * 1e-9);  // same step as admission.
  EXPECT_EQ(tpot->count(), 3u);
  EXPECT_NEAR(tpot->sum(), (0.0 + 1000.0 + 2000.0) * 1e-9, 1e-15);
  EXPECT_EQ(e2e->count(), 1u);
  EXPECT_DOUBLE_EQ(e2e->sum(), 5000.0 * 1e-9);  // 6000 - 1000.

  // Lifecycle counters and per-step gauges mirror SchedulerStats.
  const serve::SchedulerStats& stats = sched.scheduler_stats();
  EXPECT_EQ(reg.find_counter("lserve_scheduler_steps_total")->value(),
            stats.steps);
  EXPECT_EQ(reg.find_counter("lserve_requests_submitted_total")->value(), 1u);
  EXPECT_EQ(reg.find_counter("lserve_requests_finished_total")->value(), 1u);
  EXPECT_EQ(reg.find_counter("lserve_prefill_chunks_total")->value(),
            stats.prefill_chunks);
  EXPECT_EQ(
      reg.find_counter("lserve_decode_route_steps_total{route=\"dense\"}")
              ->value() +
          reg.find_counter(
                 "lserve_decode_route_steps_total{route=\"sparse\"}")
              ->value(),
      engine.stats().decode_dense_steps + engine.stats().decode_sparse_steps);
  EXPECT_EQ(reg.find_gauge("lserve_sequences_running")->value(), 0.0);
  EXPECT_EQ(reg.find_gauge("lserve_requests_live")->value(), 0.0);
  EXPECT_EQ(reg.find_gauge("lserve_kv_pages_in_use")->value(),
            static_cast<double>(engine.total_pages_in_use()));
  EXPECT_GT(reg.find_gauge("lserve_kv_pages_capacity")->value(), 0.0);

  // The tracer saw every step, with the expected phase spans.
  EXPECT_EQ(tracer.committed(), stats.steps);
  const std::vector<StepTrace> snap = tracer.snapshot();
  ASSERT_FALSE(snap.empty());
  bool saw_admit = false, saw_prefill = false, saw_decode = false;
  for (const StepTrace& st : snap) {
    for (const TraceSpan& span : st.spans) {
      const std::string name = span.name;
      saw_admit = saw_admit || name == "admit";
      saw_prefill = saw_prefill || name == "prefill_chunk";
      saw_decode = saw_decode || name == "decode_batch";
    }
  }
  EXPECT_TRUE(saw_admit);
  EXPECT_TRUE(saw_prefill);
  EXPECT_TRUE(saw_decode);
}

// TTFT/queue-wait are recorded once per request; TPOT spans a preemption
// replay (the stall a streaming client actually observes).
TEST(SchedulerObs, PreemptionDoesNotDoubleCountTtft) {
  serve::Engine engine(engine_cfg());
  auto clk = std::make_shared<FakeClock>();
  MetricsRegistry reg;
  serve::SchedulerConfig sc;
  sc.max_batch = 2;
  sc.memory.page_budget = 24;  // tight: forces preemption with two sequences.
  sc.metrics = &reg;
  sc.clock = clk;
  serve::Scheduler sched(engine, sc);

  sched.submit(make_request(16, 12));
  sched.submit(make_request(16, 12));
  while (sched.step()) clk->advance_ns(1000);

  ASSERT_GE(sched.scheduler_stats().preemptions, 1u);
  EXPECT_EQ(sched.results().size(), 2u);
  // Exactly one TTFT and one queue-wait sample per request, preemptions
  // notwithstanding.
  EXPECT_EQ(reg.find_histogram("lserve_request_ttft_seconds")->count(), 2u);
  EXPECT_EQ(reg.find_histogram("lserve_request_queue_wait_seconds")->count(),
            2u);
  EXPECT_EQ(reg.find_counter("lserve_preemptions_total")->value(),
            sched.scheduler_stats().preemptions);
}

// ---------------------------------------------------------------------------
// Counters owned below the scheduler — kv::PrefixCacheStats, the route
// split in EngineStats, kv::TierStats — are exported by raising each
// registry series to its owner's total once per step. The workload moves
// all of them: prefix hits, copy-on-write divergence, eviction,
// preemption, both decode routes and tier demotions.

serve::EngineConfig export_cfg() {
  serve::EngineConfig cfg = baselines::lserve_config(model::tiny());
  cfg.dense_pages.page_size = 8;
  cfg.dense_pages.logical_page_size = 4;
  cfg.tiling = {8, 8};
  cfg.streaming = {/*sink_tokens=*/8, /*local_tokens=*/16};
  cfg.selector.token_budget = 48;
  cfg.pool_pages = 1024;
  cfg.enable_prefix_cache = true;
  cfg.memory.prefix_cache_pages = 24;  // tight tree budget: forces evictions.
  cfg.memory.hot_pages = 8;            // tight hot tier: forces demotions.
  // Contexts 33..37 decode dense below 36 tokens and sparse from 36 on.
  cfg.policy = std::make_shared<serve::CostModelGatedPolicy>("split", 36);
  return cfg;
}

TEST(SchedulerObs, OwnerCountersExportedEveryStep) {
  serve::Engine engine(export_cfg());
  MetricsRegistry reg;
  serve::SchedulerConfig sc;
  sc.max_batch = 2;
  sc.memory.page_budget = 24;  // forces preemption alongside the cache.
  sc.metrics = &reg;
  sc.clock = std::make_shared<FakeClock>();
  serve::Scheduler sched(engine, sc);
  const kv::PrefixCache& cache = *engine.prefix_cache();
  const auto counter = [&](const char* name) {
    return reg.find_counter(name)->value();
  };

  // Requests share only their first 5 tokens, then diverge. 5 is mid-page
  // (page size 8) and inside the sink window, so a later request attaching
  // the shared prefix gets a partial-page tail: the copy-on-write path.
  std::vector<std::int32_t> shared(5);
  for (std::size_t i = 0; i < shared.size(); ++i) {
    shared[i] = static_cast<std::int32_t>((3 + 7 * i) % 251);
  }
  for (int round = 0; round < 4; ++round) {
    for (int v = 0; v < 3; ++v) {
      serve::Request req;
      req.prompt = shared;
      for (int t = 0; t < 27; ++t) {
        req.prompt.push_back(
            static_cast<std::int32_t>(1 + round * 83 + v * 29 + t) % 251);
      }
      req.max_new_tokens = 6;
      sched.submit(req);
    }
    while (sched.step()) {
      const kv::PrefixCacheStats prefix = cache.stats();
      const serve::EngineStats& es = engine.stats();
      ASSERT_EQ(counter("lserve_prefix_hits_total"), prefix.hits);
      ASSERT_EQ(counter("lserve_prefix_tokens_reused_total"),
                prefix.tokens_reused);
      ASSERT_EQ(counter("lserve_decode_route_steps_total{route=\"dense\"}"),
                es.decode_dense_steps);
      ASSERT_EQ(
          counter("lserve_decode_route_steps_total{route=\"sparse\"}"),
          es.decode_sparse_steps);
    }
  }

  // The workload genuinely mixed every behaviour.
  const kv::PrefixCacheStats prefix = cache.stats();
  EXPECT_GT(prefix.hits, 0u);
  EXPECT_GT(prefix.cow_copies, 0u);
  EXPECT_GT(prefix.evictions, 0u);
  EXPECT_GT(sched.scheduler_stats().preemptions, 0u);
  EXPECT_GT(engine.stats().decode_dense_steps, 0u);
  EXPECT_GT(engine.stats().decode_sparse_steps, 0u);
  EXPECT_EQ(reg.find_gauge("lserve_prefix_cache_pages_held")->value(),
            static_cast<double>(prefix.pages_held));

  // The background prefetcher can move the tier totals between publishes:
  // wait until they hold still for 20 ms, then let one more step publish
  // them.
  kv::TierStats tier = engine.tier_stats();
  for (int quiet = 0, spins = 0; quiet < 20 && spins < 2000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const kv::TierStats now = engine.tier_stats();
    const bool same = now.demotions == tier.demotions &&
                      now.pin_promotions == tier.pin_promotions &&
                      now.prefetch_promotions == tier.prefetch_promotions &&
                      now.prefetch_requests == tier.prefetch_requests;
    quiet = same ? quiet + 1 : 0;
    tier = now;
  }
  sched.step();
  EXPECT_GT(tier.demotions, 0u);
  EXPECT_EQ(counter("lserve_tier_demotions_total"), tier.demotions);
  EXPECT_EQ(counter("lserve_tier_pin_promotions_total"), tier.pin_promotions);
  EXPECT_EQ(counter("lserve_tier_prefetch_promotions_total"),
            tier.prefetch_promotions);
  EXPECT_EQ(counter("lserve_tier_prefetch_requests_total"),
            tier.prefetch_requests);
}

}  // namespace
}  // namespace lserve::obs
