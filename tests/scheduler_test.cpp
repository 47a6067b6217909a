// Tests for the continuous-batching scheduler (src/serve/scheduler). Whole
// drains — preemption replay against a serial run, bit identity across
// decode threads, cache, tiering and metrics, page conservation — are
// checked by drain_oracle_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "serve/scheduler.hpp"
#include "serve/thread_pool.hpp"

namespace lserve::serve {
namespace {

EngineConfig cfg() {
  EngineConfig c = baselines::vllm_config(model::tiny());
  c.dense_pages.page_size = 8;
  c.dense_pages.logical_page_size = 8;
  c.tiling = {8, 8};
  c.pool_pages = 512;
  return c;
}

Request make_request(std::size_t prompt_len, std::size_t new_tokens) {
  Request req;
  req.prompt.resize(prompt_len);
  for (std::size_t i = 0; i < prompt_len; ++i) {
    req.prompt[i] = static_cast<std::int32_t>((i * 13 + 5) % 251);
  }
  req.max_new_tokens = new_tokens;
  return req;
}

TEST(Scheduler, SingleRequestRunsToCompletion) {
  Engine engine(cfg());
  Scheduler sched(engine, 2);
  sched.submit(make_request(16, 5));
  const auto results = sched.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].output.size(), 5u);
  EXPECT_EQ(results[0].prompt_tokens, 16u);
  EXPECT_EQ(results[0].decode_steps, 4u);
}

TEST(Scheduler, AssignsUniqueRequestIds) {
  Engine engine(cfg());
  Scheduler sched(engine, 2);
  const auto id0 = sched.submit(make_request(8, 2));
  const auto id1 = sched.submit(make_request(8, 2));
  EXPECT_NE(id0, id1);
}

TEST(Scheduler, BatchLimitRespected) {
  Engine engine(cfg());
  Scheduler sched(engine, 2);
  for (int i = 0; i < 5; ++i) sched.submit(make_request(8, 3));
  sched.step();
  EXPECT_LE(sched.running(), 2u);
  EXPECT_EQ(sched.waiting(), 3u);
  sched.drain();
  EXPECT_EQ(sched.results().size(), 5u);
}

TEST(Scheduler, ContinuousAdmissionBackfillsSlots) {
  Engine engine(cfg());
  Scheduler sched(engine, 1);
  sched.submit(make_request(8, 2));   // finishes fast
  sched.submit(make_request(8, 6));   // admitted after the first retires
  std::size_t steps = 0;
  while (sched.step()) ++steps;
  EXPECT_EQ(sched.results().size(), 2u);
  // Short request completes before the long one starts decoding much.
  EXPECT_EQ(sched.results()[0].decode_steps, 1u);
  EXPECT_EQ(sched.results()[1].decode_steps, 5u);
}

TEST(Scheduler, EmptyQueueStepReturnsFalse) {
  Engine engine(cfg());
  Scheduler sched(engine, 2);
  EXPECT_FALSE(sched.step());
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesTheFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 17) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool stays usable after a failed region.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

// ---------------------------------------------------------------------------
// Request-id hygiene.

TEST(Scheduler, RejectsDuplicateInFlightRequestIds) {
  Engine engine(cfg());
  Scheduler sched(engine, 2);
  Request req = make_request(8, 2);
  req.request_id = 7;
  sched.submit(req);
  EXPECT_THROW(sched.submit(req), std::invalid_argument);
  sched.drain();
  // Once no longer in flight, the id may be reused.
  EXPECT_EQ(sched.submit(req), 7u);
  sched.drain();
  EXPECT_EQ(sched.results().size(), 2u);
}

TEST(Scheduler, RejectsEmptyPrompts) {
  Engine engine(cfg());
  Scheduler sched(engine, 2);
  EXPECT_THROW(sched.submit(Request{}), std::invalid_argument);
  EXPECT_EQ(sched.waiting(), 0u);
}

TEST(Scheduler, AutoIdsNeverReuseUserSuppliedIds) {
  Engine engine(cfg());
  Scheduler sched(engine, 4);
  Request user = make_request(8, 2);
  user.request_id = 5;
  EXPECT_EQ(sched.submit(user), 5u);
  // Auto-assignment must jump past the user-supplied id instead of
  // eventually colliding with it.
  const auto auto_id = sched.submit(make_request(8, 2));
  EXPECT_GT(auto_id, 5u);
  const auto results = sched.drain();
  EXPECT_EQ(results.size(), 2u);
}

// ---------------------------------------------------------------------------
// Chunked-prefill-aware batching.

const RequestResult& by_id(const std::vector<RequestResult>& results,
                           std::uint64_t id) {
  for (const RequestResult& r : results) {
    if (r.request_id == id) return r;
  }
  ADD_FAILURE() << "request " << id << " missing from results";
  return results.front();
}

TEST(Scheduler, OnePrefillChunkPerStepAlongsideDecodeBatch) {
  EngineConfig chunked = cfg();
  chunked.prefill_chunk_tokens = 8;
  Engine engine(chunked);
  Scheduler sched(engine, 4);
  const auto short_id = sched.submit(make_request(8, 10));
  const auto long_id = sched.submit(make_request(64, 4));

  std::size_t step = 0;
  bool more = true;
  while (more) {
    ++step;
    const std::size_t prefill_before = engine.stats().prefill_tokens;
    const std::size_t decode_before = engine.stats().decode_steps;
    more = sched.step();
    // The acceptance invariant: no step performs more than one prefill
    // chunk of work before its decode batch runs.
    EXPECT_LE(engine.stats().prefill_tokens - prefill_before,
              chunked.prefill_chunk_tokens);
    // While the long prompt's prefill is rationed out (steps 2..9), the
    // short request keeps decoding every single step.
    if (step >= 2 && step <= 9) {
      EXPECT_GE(engine.stats().decode_steps - decode_before, 1u);
    }
  }

  const auto& results = sched.results();
  ASSERT_EQ(results.size(), 2u);
  const RequestResult& s = by_id(results, short_id);
  const RequestResult& l = by_id(results, long_id);
  // Short request's TTFT is untouched by the long prompt behind it...
  EXPECT_EQ(s.first_token_step, 1u);
  // ...and its TPOT is one token per step, so it finishes at step 9
  // (1 prefill token + 9 decode steps) while the long prompt's 64-token
  // prefill is still being rationed at 8 tokens per iteration.
  EXPECT_EQ(s.finish_step, 9u);
  EXPECT_EQ(l.first_token_step, 9u);
  EXPECT_LT(s.finish_step, l.finish_step);

  // Chunked admission must not perturb the computation.
  Engine mono_engine(cfg());
  Scheduler mono(mono_engine, 4);
  const auto ms = mono.submit(make_request(8, 10));
  const auto ml = mono.submit(make_request(64, 4));
  const auto mono_results = mono.drain();
  EXPECT_EQ(s.output, by_id(mono_results, ms).output);
  EXPECT_EQ(l.output, by_id(mono_results, ml).output);
}

// ---------------------------------------------------------------------------
// KV-memory admission control and preemption.

TEST(Scheduler, AdmissionDeferredUntilMemoryFrees) {
  Engine engine(cfg());
  SchedulerConfig sc;
  sc.max_batch = 2;
  sc.memory.page_budget = 20;
  Scheduler sched(engine, sc);
  const auto id_a = sched.submit(make_request(16, 12));  // 16-page estimate
  sched.step();
  sched.step();
  // A occupies 12 pages by now; B's 16-page estimate no longer fits under
  // the 20-page budget, so B waits even though a batch slot is free.
  const auto id_b = sched.submit(make_request(16, 12));
  sched.step();
  EXPECT_EQ(sched.running(), 1u);
  EXPECT_EQ(sched.waiting(), 1u);
  EXPECT_GE(sched.scheduler_stats().deferred_admissions, 1u);

  const auto results = sched.drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(sched.scheduler_stats().preemptions, 0u);
  const RequestResult& a = by_id(results, id_a);
  const RequestResult& b = by_id(results, id_b);
  // B only started once A's pages were released.
  EXPECT_GT(b.first_token_step, a.finish_step);
}

TEST(Scheduler, PagesReclaimedAcrossSequentialRequests) {
  // Regression guard for the allocator free-list under release/requeue:
  // many sequential requests must recycle the same pages, never grow the
  // pool, and leave it fully free.
  Engine engine(cfg());
  const std::size_t initial_capacity = engine.dense_allocator().capacity();
  Scheduler sched(engine, 1);
  for (int i = 0; i < 10; ++i) sched.submit(make_request(24, 4));
  const auto results = sched.drain();
  ASSERT_EQ(results.size(), 10u);
  EXPECT_EQ(engine.dense_allocator().pages_in_use(), 0u);
  EXPECT_EQ(engine.dense_allocator().capacity(), initial_capacity);
  EXPECT_EQ(engine.dense_allocator().free_pages(), initial_capacity);
  // Peak occupancy never exceeded one request's worst case — later
  // requests reused the pages released by earlier ones.
  EXPECT_LE(engine.dense_allocator().peak_pages_in_use(),
            engine.estimate_request_pages(24 + 4).dense_pages);
}

// ---------------------------------------------------------------------------
// Streaming delivery, cancellation, and deadlines.

/// Recorder bound to a request's on_token: (token, index) pairs, in order.
struct TokenLog {
  std::vector<std::int32_t> tokens;
  std::vector<std::size_t> indices;
  void attach(Request& req) {
    req.on_token = [this](std::uint64_t, std::int32_t token,
                          std::size_t index) {
      tokens.push_back(token);
      indices.push_back(index);
    };
  }
};

TEST(Scheduler, CancelWaitingRequestNeverStarts) {
  Engine engine(cfg());
  Scheduler sched(engine, 1);  // max_batch 1: the second request waits.
  const auto id_a = sched.submit(make_request(16, 8));
  Request waiting = make_request(16, 8);
  std::vector<RequestResult> done;
  waiting.on_done = [&](const RequestResult& r) { done.push_back(r); };
  const auto id_b = sched.submit(waiting);
  sched.step();
  ASSERT_EQ(sched.running(), 1u);
  ASSERT_EQ(sched.waiting(), 1u);

  const std::size_t created = engine.stats().sequences_created;
  EXPECT_TRUE(sched.cancel(id_b));
  const auto results = sched.drain();

  ASSERT_EQ(results.size(), 2u);
  const RequestResult& b = by_id(results, id_b);
  EXPECT_EQ(b.status, RequestStatus::kCancelled);
  EXPECT_TRUE(b.output.empty());
  EXPECT_EQ(b.first_token_step, 0u);
  // The cancelled request never touched the engine.
  EXPECT_EQ(engine.stats().sequences_created, created);
  EXPECT_EQ(by_id(results, id_a).status, RequestStatus::kFinished);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(sched.scheduler_stats().cancelled, 1u);
  // Allocator occupancy back to baseline.
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
}

TEST(Scheduler, CancelPrefillingReclaimsAllPages) {
  EngineConfig chunked = cfg();
  chunked.prefill_chunk_tokens = 8;
  Engine engine(chunked);
  Scheduler sched(engine, 2);
  const auto id = sched.submit(make_request(64, 8));
  sched.step();
  sched.step();  // two 8-token chunks fed: mid-prefill, pages held.
  EXPECT_GT(engine.total_pages_in_use(), 0u);

  EXPECT_TRUE(sched.cancel(id));
  sched.step();
  ASSERT_EQ(sched.results().size(), 1u);
  EXPECT_EQ(sched.results()[0].status, RequestStatus::kCancelled);
  EXPECT_TRUE(sched.results()[0].output.empty());
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
  EXPECT_FALSE(sched.step());  // queue fully drained.
}

TEST(Scheduler, CancelDecodingYieldsPrefixAndReclaimsPages) {
  // Reference: the uncancelled output.
  Engine reference_engine(cfg());
  Scheduler reference(reference_engine, 1);
  const auto ref_id = reference.submit(make_request(12, 16));
  const auto full = by_id(reference.drain(), ref_id).output;

  Engine engine(cfg());
  Scheduler sched(engine, 1);
  Request req = make_request(12, 16);
  TokenLog log;
  log.attach(req);
  const auto id = sched.submit(req);
  // 5 steps: step 1 prefills AND decodes (the freshly prefilled sequence
  // joins that step's decode batch), steps 2-5 decode — 6 tokens held.
  for (int i = 0; i < 5; ++i) sched.step();
  EXPECT_GT(engine.total_pages_in_use(), 0u);

  EXPECT_TRUE(sched.cancel(id));
  sched.step();
  ASSERT_EQ(sched.results().size(), 1u);
  const RequestResult& r = sched.results()[0];
  EXPECT_EQ(r.status, RequestStatus::kCancelled);
  // The partial output is a strict prefix of the uncancelled run, and
  // on_token saw exactly that prefix.
  ASSERT_EQ(r.output.size(), 6u);
  ASSERT_LT(r.output.size(), full.size());
  EXPECT_TRUE(std::equal(r.output.begin(), r.output.end(), full.begin()));
  EXPECT_EQ(log.tokens, r.output);
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
  EXPECT_EQ(engine.dense_allocator().free_pages(),
            engine.dense_allocator().capacity());
}

TEST(Scheduler, CancelUnknownOrTerminalRequestReturnsFalse) {
  Engine engine(cfg());
  Scheduler sched(engine, 2);
  EXPECT_FALSE(sched.cancel(42));
  const auto id = sched.submit(make_request(8, 2));
  sched.drain();
  EXPECT_FALSE(sched.cancel(id));  // already terminal.
  EXPECT_THROW(sched.cancel(id, RequestStatus::kFinished),
               std::invalid_argument);
}

TEST(Scheduler, DeadlineDefaultAndPerRequestOverride) {
  Engine engine(cfg());
  SchedulerConfig sc;
  sc.max_batch = 2;
  sc.default_deadline_steps = 4;
  Scheduler sched(engine, sc);
  // A inherits the 4-step default and wants far more tokens than fit.
  const auto id_a = sched.submit(make_request(8, 64));
  // B overrides with a deadline comfortably past its own finish.
  Request fast = make_request(8, 3);
  fast.deadline_steps = 100;
  const auto id_b = sched.submit(fast);
  const auto results = sched.drain();

  ASSERT_EQ(results.size(), 2u);
  const RequestResult& a = by_id(results, id_a);
  const RequestResult& b = by_id(results, id_b);
  EXPECT_EQ(a.status, RequestStatus::kDeadlineExceeded);
  // Submitted at step 0, enforced at the start of step 5: it got steps
  // 1..4 of service (step 1 prefills and decodes, then 3 more decode
  // steps) — a 5-token partial output.
  EXPECT_EQ(a.output.size(), 5u);
  EXPECT_EQ(a.finish_step, 5u);
  EXPECT_EQ(b.status, RequestStatus::kFinished);
  EXPECT_EQ(b.output.size(), 3u);
  EXPECT_EQ(sched.scheduler_stats().deadline_exceeded, 1u);
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
}

TEST(Scheduler, DeadlineAppliesWhileWaiting) {
  // A request that never gets admitted before its deadline still times
  // out (the deadline clock starts at submission, not admission).
  Engine engine(cfg());
  Scheduler sched(engine, 1);
  const auto id_a = sched.submit(make_request(8, 32));
  Request starved = make_request(8, 4);
  starved.deadline_steps = 3;
  const auto id_b = sched.submit(starved);
  const auto results = sched.drain();

  const RequestResult& a = by_id(results, id_a);
  const RequestResult& b = by_id(results, id_b);
  EXPECT_EQ(a.status, RequestStatus::kFinished);
  EXPECT_EQ(b.status, RequestStatus::kDeadlineExceeded);
  EXPECT_TRUE(b.output.empty());
  // Submitted at step 0 with a 3-step deadline: enforced at the start of
  // step 4, the first boundary past it.
  EXPECT_EQ(b.finish_step, 4u);
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
}

TEST(Scheduler, CrossThreadSubmitAndCancelWhileServing) {
  // The serving-thread contract: submit() and cancel() race freely
  // against a scheduler thread looping run_until_idle()/wait_for_work()
  // (this is the suite the CI TSan job watches).
  Engine engine(cfg());
  Scheduler sched(engine, 4);
  std::thread server([&] {
    while (!sched.stop_requested()) {
      sched.run_until_idle();
      sched.wait_for_work(std::chrono::milliseconds(5));
    }
  });
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(sched.submit(make_request(8 + (i % 3) * 8, 6)));
    if (i % 4 == 3) sched.cancel(ids[i - 1]);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (sched.live_requests() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sched.request_stop();
  server.join();
  EXPECT_EQ(sched.live_requests(), 0u);
  EXPECT_EQ(sched.results().size(), 16u);
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
}

}  // namespace
}  // namespace lserve::serve
