// Unit tests for the serving benchmark's own logic: the tail rule, seeded
// traffic generation, client-side SSE parsing, span self time, and one
// loopback phase against a real server.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "loadgen.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "serve/scheduler.hpp"
#include "spans.hpp"
#include "sse.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace servebench {
namespace {

// --- tail percentile -------------------------------------------------------

TEST(TailRule, HighestPercentileWithTenSamplesBeyondCappedAtP99) {
  EXPECT_EQ(tail_percentile(100000), 99);  // capped.
  EXPECT_EQ(tail_percentile(1000), 99);    // 10 beyond p99.
  EXPECT_EQ(tail_percentile(999), 98);     // p99 would leave 9.
  EXPECT_EQ(tail_percentile(500), 98);
  EXPECT_EQ(tail_percentile(200), 95);
  EXPECT_EQ(tail_percentile(100), 90);
  EXPECT_EQ(tail_percentile(40), 75);
  EXPECT_EQ(tail_percentile(20), 50);
  EXPECT_EQ(tail_percentile(5), 50);  // nothing above the median qualifies.
  for (std::size_t n = 20; n < 3000; n += 7) {
    const int p = tail_percentile(n);
    EXPECT_GE(samples_beyond(n, p), 10u) << n;
    if (p < 99) {
      EXPECT_LT(samples_beyond(n, p + 1), 10u) << n;
    }
  }
}

TEST(TailRule, TailIsTheMeanBeyondTheRulesPercentile) {
  std::vector<double> v;
  for (int i = 200; i >= 1; --i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 200u);
  EXPECT_EQ(s.tail_p, 95);
  EXPECT_DOUBLE_EQ(s.p50, 100.5);
  EXPECT_DOUBLE_EQ(s.tail, (191 + 200) / 2.0);  // the 10 largest.
  // Below 20 samples the tail is the mean of the upper half.
  const Summary few = summarize({4, 1, 3, 2});
  EXPECT_EQ(few.tail_p, 50);
  EXPECT_DOUBLE_EQ(few.tail, 3.5);
}

TEST(TailRule, TailMovesSmoothlyWithAMinorModesShare) {
  // 1000 gaps of 1 ms, of which k are 30 ms stalls: around k = 10 the p99
  // order statistic jumps from 1 to 30, the mean beyond it does not.
  double prev = 0.0;
  for (int k = 6; k <= 14; ++k) {
    std::vector<double> v(1000, 1.0);
    for (int i = 0; i < k; ++i) v[static_cast<std::size_t>(i)] = 30.0;
    const Summary s = summarize(v);
    EXPECT_EQ(s.tail_p, 99);
    EXPECT_DOUBLE_EQ(s.tail, (std::min(k, 10) * 30.0 + std::max(0, 10 - k)) / 10.0);
    if (k > 6) {
      EXPECT_LE(s.tail - prev, 3.0);
    }
    prev = s.tail;
  }
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(percentile({3, 1, 2}, 50), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(BucketQuantile, MatchesRegistryHistogramOnADelta) {
  lserve::obs::Histogram h(lserve::obs::default_latency_buckets_seconds());
  for (int i = 0; i < 50; ++i) h.observe(0.001 * i);
  const std::vector<std::uint64_t> before = h.bucket_counts();
  for (int i = 0; i < 300; ++i) h.observe(0.002 + 0.0001 * i);
  std::vector<std::uint64_t> delta = h.bucket_counts();
  for (std::size_t i = 0; i < delta.size(); ++i) delta[i] -= before[i];

  lserve::obs::Histogram only(lserve::obs::default_latency_buckets_seconds());
  for (int i = 0; i < 300; ++i) only.observe(0.002 + 0.0001 * i);
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_NEAR(bucket_quantile(h.upper_bounds(), delta, q), only.quantile(q),
                1e-12);
  }
}

// --- seeded traffic --------------------------------------------------------

WorkloadSpec chat_spec() {
  WorkloadSpec s;
  s.name = "chat";
  s.prefix_tokens = 64;
  s.prompt = {8, 32};
  s.followup = {4, 16};
  s.reply = {4, 12};
  s.turns = {2, 4};
  s.think_lo_s = 0.1;
  s.think_hi_s = 0.5;
  s.rate = 2.0;
  return s;
}

bool same_plan(const Plan& a, const Plan& b) {
  if (a.prefix != b.prefix || a.sessions.size() != b.sessions.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    const Session& x = a.sessions[i];
    const Session& y = b.sessions[i];
    if (x.arrival_s != y.arrival_s || x.turns.size() != y.turns.size()) {
      return false;
    }
    for (std::size_t k = 0; k < x.turns.size(); ++k) {
      if (x.turns[k].fresh != y.turns[k].fresh ||
          x.turns[k].max_new != y.turns[k].max_new ||
          x.turns[k].think_s != y.turns[k].think_s) {
        return false;
      }
    }
  }
  return true;
}

TEST(Workload, SameSeedSameScheduleAndPrompts) {
  const WorkloadSpec s = chat_spec();
  EXPECT_TRUE(same_plan(make_open_plan(s, 7, 30), make_open_plan(s, 7, 30)));
  EXPECT_TRUE(same_plan(make_closed_plan(s, 7, 30), make_closed_plan(s, 7, 30)));
  EXPECT_TRUE(same_plan(make_warmup_plan(s, 7), make_warmup_plan(s, 7)));
}

TEST(Workload, DifferentSeedsDifferentScheduleAndPrompts) {
  const WorkloadSpec s = chat_spec();
  const Plan a = make_open_plan(s, 7, 30);
  const Plan b = make_open_plan(s, 8, 30);
  EXPECT_NE(a.prefix, b.prefix);
  std::size_t arrivals_differ = 0, prompts_differ = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    arrivals_differ += a.sessions[i].arrival_s != b.sessions[i].arrival_s;
    prompts_differ += a.sessions[i].turns[0].fresh != b.sessions[i].turns[0].fresh;
  }
  EXPECT_GT(arrivals_differ, 20u);
  EXPECT_EQ(prompts_differ, 30u);
  EXPECT_FALSE(same_plan(make_closed_plan(s, 7, 30), make_closed_plan(s, 8, 30)));
  // The closed-loop set is not the open-loop set.
  EXPECT_FALSE(same_plan(make_open_plan(s, 7, 30), make_closed_plan(s, 7, 30)));
}

TEST(Workload, ShapesStayInRangeAndArrivalsAtTheOfferedRate) {
  const WorkloadSpec s = chat_spec();
  const Plan p = make_open_plan(s, 11, 200);
  EXPECT_EQ(p.prefix.size(), s.prefix_tokens);
  EXPECT_EQ(p.sessions.front().arrival_s, 0.0);
  for (std::size_t i = 0; i < p.sessions.size(); ++i) {
    const Session& x = p.sessions[i];
    if (i > 0) {
      const double gap = x.arrival_s - p.sessions[i - 1].arrival_s;
      EXPECT_GE(gap, 0.75 / s.rate);
      EXPECT_LE(gap, 1.25 / s.rate);
    }
    ASSERT_GE(x.turns.size(), s.turns.lo);
    ASSERT_LE(x.turns.size(), s.turns.hi);
    for (std::size_t k = 0; k < x.turns.size(); ++k) {
      const Span& fresh = k == 0 ? s.prompt : s.followup;
      EXPECT_GE(x.turns[k].fresh.size(), fresh.lo);
      EXPECT_LE(x.turns[k].fresh.size(), fresh.hi);
      EXPECT_GE(x.turns[k].max_new, s.reply.lo);
      EXPECT_LE(x.turns[k].max_new, s.reply.hi);
      for (const std::int32_t t : x.turns[k].fresh) {
        EXPECT_LT(static_cast<std::size_t>(t), s.vocab);
      }
    }
  }
  // Mean gap within 2% of 1 / rate (stratified draws).
  const double span = p.sessions.back().arrival_s;
  EXPECT_NEAR(span / 199.0, 1.0 / s.rate, 0.02 / s.rate);
}

TEST(Workload, StratifiedUnitHasOnePointPerStratum) {
  Rng rng(5);
  const std::vector<double> u = stratified_unit(rng, 64);
  std::vector<int> hits(64, 0);
  for (const double x : u) {
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    ++hits[static_cast<std::size_t>(x * 64)];
  }
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Workload, FollowUpPromptIsHistoryPlusReplyPlusFresh) {
  const WorkloadSpec s = chat_spec();
  const Plan p = make_open_plan(s, 3, 4);
  const std::vector<std::int32_t> first = first_prompt(p, p.sessions[0]);
  ASSERT_EQ(first.size(), s.prefix_tokens + p.sessions[0].turns[0].fresh.size());
  EXPECT_TRUE(std::equal(p.prefix.begin(), p.prefix.end(), first.begin()));
  const std::vector<std::int32_t> reply = {1, 2, 3};
  const auto& fresh = p.sessions[0].turns[1].fresh;
  const std::vector<std::int32_t> next = next_prompt(first, reply, fresh);
  ASSERT_EQ(next.size(), first.size() + reply.size() + fresh.size());
  EXPECT_TRUE(std::equal(first.begin(), first.end(), next.begin()));
  EXPECT_TRUE(std::equal(reply.begin(), reply.end(), next.begin() + first.size()));
  EXPECT_TRUE(std::equal(fresh.begin(), fresh.end(),
                         next.begin() + first.size() + reply.size()));
}

// --- SSE parsing -----------------------------------------------------------

std::string sse_stream() {
  return lserve::net::sse_response_head() +
         lserve::net::sse_event("token", "{\"index\":0,\"token\":17}") +
         lserve::net::sse_event("token", "{\"index\":1,\"token\":250}") +
         lserve::net::sse_event(
             "done",
             "{\"status\":\"FINISHED\",\"request_id\":9,\"tokens\":2,"
             "\"preemptions\":0}");
}

void expect_stream(const std::vector<SseEvent>& events) {
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].event, "token");
  const auto t0 = parse_token_event(events[0].data);
  const auto t1 = parse_token_event(events[1].data);
  ASSERT_TRUE(t0 && t1);
  EXPECT_EQ(t0->index, 0u);
  EXPECT_EQ(t0->token, 17);
  EXPECT_EQ(t1->index, 1u);
  EXPECT_EQ(t1->token, 250);
  EXPECT_EQ(events[2].event, "done");
  const auto done = parse_done_event(events[2].data);
  ASSERT_TRUE(done);
  EXPECT_EQ(done->status, "FINISHED");
  EXPECT_EQ(done->tokens, 2u);
}

TEST(Sse, EventsSplitAtEveryByteBoundary) {
  const std::string stream = sse_stream();
  for (std::size_t step = 1; step <= 7; ++step) {
    ResponseParser parser;
    std::vector<SseEvent> events;
    for (std::size_t i = 0; i < stream.size(); i += step) {
      parser.feed(std::string_view(stream).substr(i, step), events);
    }
    EXPECT_EQ(parser.status(), 200);
    expect_stream(events);
  }
}

TEST(Sse, EventsSplitAcrossTwoReadsAnywhere) {
  const std::string stream = sse_stream();
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    ResponseParser parser;
    std::vector<SseEvent> events;
    parser.feed(std::string_view(stream).substr(0, cut), events);
    parser.feed(std::string_view(stream).substr(cut), events);
    expect_stream(events);
  }
}

TEST(Sse, CrLfLineEndingsInsideEvents) {
  ResponseParser parser;
  std::vector<SseEvent> events;
  parser.feed("HTTP/1.1 200 OK\r\n\r\nevent: token\r\ndata: "
              "{\"index\":0,\"token\":3}\r\n\n",
              events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].event, "token");
  EXPECT_TRUE(parse_token_event(events[0].data));
}

TEST(Sse, StructuredErrorBodyOfANon200Response) {
  const std::string body =
      "{\"error\":{\"code\":\"overloaded\",\"message\":\"live request limit "
      "reached; retry later\"}}";
  const std::string raw = lserve::net::http_response(
      503, "Service Unavailable", "application/json", body);
  for (std::size_t cut = 0; cut <= raw.size(); cut += 5) {
    ResponseParser parser;
    std::vector<SseEvent> events;
    parser.feed(std::string_view(raw).substr(0, cut), events);
    parser.feed(std::string_view(raw).substr(cut), events);
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(parser.status(), 503);
    const auto err = parse_error_body(parser.body());
    ASSERT_TRUE(err);
    EXPECT_EQ(err->code, "overloaded");
    EXPECT_EQ(err->message, "live request limit reached; retry later");
  }
  EXPECT_FALSE(parse_error_body("{\"status\":\"ok\"}"));
}

TEST(Sse, MalformedHeadFails) {
  ResponseParser parser;
  std::vector<SseEvent> events;
  parser.feed("garbage\r\n\r\n", events);
  EXPECT_TRUE(parser.failed());
}

// --- span self time ----------------------------------------------------------

TEST(Spans, SelfTimeSubtractsTheUnionOfDirectChildren) {
  // phase [0,1000) > request [100,900) > children [100,300) [250,500)
  // (overlapping) and [800,950) (clipped at 900); a grandchild under the
  // first child does not count against the request.
  const std::vector<TraceSpan> spans = {
      {"phase", 1, 0, 0, 0, 1000},
      {"request", 2, 1, 7, 100, 900},
      {"wait", 3, 2, 7, 100, 300},
      {"first", 4, 2, 7, 250, 500},
      {"stream", 5, 2, 7, 800, 950},
      {"inner", 6, 3, 7, 120, 140},
  };
  const std::vector<std::uint64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 1000u - 800u);           // phase minus request.
  EXPECT_EQ(self[1], 800u - (400u + 100u));   // [100,500) + [800,900).
  EXPECT_EQ(self[2], 200u - 20u);             // wait minus inner.
  EXPECT_EQ(self[3], 250u);
  EXPECT_EQ(self[4], 150u);
  EXPECT_EQ(self[5], 20u);
}

TEST(Spans, ChromeTraceHoldsClientSpansAndSchedulerSteps) {
  lserve::obs::StepTrace step;
  step.step = 3;
  step.start_ns = 2000;
  step.dur_ns = 5000;
  step.spans.push_back({"decode_batch", 3000, 1000});
  const std::string json = chrome_trace_json(
      {{"request", 4, 1, 1, 1000, 9000}}, {step}, 1000);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"step\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"decode_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2.000"), std::string::npos);
}

// --- saturation throughput -----------------------------------------------------

TEST(Loadgen, BusyRateLeavesOutTheIdleTailOfAClosedLoop) {
  constexpr std::uint64_t kSec = 1'000'000'000;
  const auto request = [](std::uint64_t sent, std::uint64_t done) {
    RequestRecord r;
    r.sent_ns = sent;
    r.done_ns = done;
    return r;
  };
  // Two connections: one runs two 1 s requests back to back, the other one
  // 1 s request and then sits idle for the last second of the phase.
  PhaseResult p;
  p.start_ns = 0;
  p.end_ns = 2 * kSec;
  p.requests = {request(0, kSec), request(0, kSec), request(kSec, 2 * kSec)};
  EXPECT_DOUBLE_EQ(static_cast<double>(p.succeeded()) / p.wall_s(), 1.5);
  EXPECT_DOUBLE_EQ(p.busy_rate(2), 2.0);  // 3 requests over 1.5 busy s each.
  // A failed request takes connection time but finishes nothing.
  p.requests[2].error = "timeout";
  EXPECT_DOUBLE_EQ(p.busy_rate(2), 2.0 / 1.5);
}

// --- one loopback phase --------------------------------------------------------

TEST(Loadgen, ClosedLoopChatPhaseStreamsFullRepliesMatchingTheEngine) {
  using namespace lserve;
  serve::EngineConfig ec = baselines::lserve_config(model::tiny());
  ec.prefill_chunk_tokens = 128;
  serve::Engine engine(ec);
  serve::SchedulerConfig sc;
  sc.decode_threads = 2;
  serve::Scheduler sched(engine, sc);
  net::ServerConfig cfg;
  cfg.port = 0;
  net::HttpServer server(sched, cfg);
  LoadOptions opt;
  opt.port = server.start();
  opt.open_loop = false;
  opt.limit_s = 60.0;

  const Plan plan = make_closed_plan(chat_spec(), 21, 6);
  const PhaseResult r = run_phase("saturation", plan, opt);
  server.stop();

  std::size_t turns = 0;
  for (const Session& s : plan.sessions) turns += s.turns.size();
  ASSERT_EQ(r.requests.size(), turns);
  EXPECT_EQ(r.failed(), 0u);
  serve::Engine ref(ec);
  for (const RequestRecord& rec : r.requests) {
    ASSERT_TRUE(rec.ok()) << rec.error;
    EXPECT_EQ(rec.output.size(), rec.max_new);
    EXPECT_EQ(rec.token_ns.size(), rec.max_new);
    EXPECT_LE(rec.due_ns, rec.sent_ns);
    EXPECT_LE(rec.sent_ns, rec.first_ns);
    EXPECT_LE(rec.first_ns, rec.done_ns);
    const serve::SequenceId id = ref.create_sequence();
    EXPECT_EQ(ref.generate(id, rec.prompt, rec.max_new), rec.output);
    ref.release_sequence(id);
    if (rec.turn > 0) {
      // A follow-up carries the previous turn's prompt and streamed reply.
      const RequestRecord* prev = nullptr;
      for (const RequestRecord& o : r.requests) {
        if (o.session == rec.session && o.turn + 1 == rec.turn) prev = &o;
      }
      ASSERT_NE(prev, nullptr);
      ASSERT_GT(rec.prompt.size(), prev->prompt.size() + prev->output.size());
      EXPECT_TRUE(std::equal(prev->prompt.begin(), prev->prompt.end(),
                             rec.prompt.begin()));
      EXPECT_TRUE(std::equal(prev->output.begin(), prev->output.end(),
                             rec.prompt.begin() + prev->prompt.size()));
    }
  }
  EXPECT_EQ(engine.total_pages_in_use(), engine.prefix_cache_pages_held());
}

TEST(Loadgen, RefusedRequestsAreFailuresWithTheirErrorCode) {
  using namespace lserve;
  serve::Engine engine(baselines::lserve_config(model::tiny()));
  serve::Scheduler sched(engine, serve::SchedulerConfig{});
  net::ServerConfig cfg;
  cfg.port = 0;
  cfg.max_new_tokens_cap = 4;  // every request below asks for more.
  net::HttpServer server(sched, cfg);
  LoadOptions opt;
  opt.port = server.start();
  opt.open_loop = false;
  WorkloadSpec s = chat_spec();
  s.reply = {8, 8};
  s.turns = {2, 2};
  const PhaseResult r = run_phase("saturation", make_closed_plan(s, 1, 3), opt);
  server.stop();
  // The first turn of each session fails; its follow-up is never sent.
  ASSERT_EQ(r.requests.size(), 3u);
  EXPECT_EQ(r.failed(), 3u);
  for (const RequestRecord& rec : r.requests) {
    EXPECT_EQ(rec.http_status, 400);
    EXPECT_EQ(rec.error, "http 400 bad_request");
  }
}

}  // namespace
}  // namespace servebench
