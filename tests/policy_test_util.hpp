// Shared fixtures for the attention-policy conformance suite
// (tests/attention_policy_test.cpp), the differential drain harness
// (tests/drain_oracle_test.cpp).
//
// The gating geometry: the LServe preset scaled to the test substrate
// (tiny model, 8-token pages, 64-token selector budget) plus a CPU-proxy
// GpuSpec whose launch overhead is zero — on the real A100 numbers a
// 2 us launch is worth ~7 MB of bandwidth, which at tiny-model byte
// counts pushes the modeled crossover tens of thousands of tokens out.
// With the proxy spec the crossover lands a hair past the token budget,
// so short conformance workloads can sit entirely below it, entirely
// above it, or cross it mid-sequence.
#ifndef LSERVE_TESTS_POLICY_TEST_UTIL_HPP_
#define LSERVE_TESTS_POLICY_TEST_UTIL_HPP_

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "costmodel/gpu_spec.hpp"
#include "serve/scheduler.hpp"

namespace lserve::serve::policy_test {

/// A100 rooflines with the fixed launch cost removed and the page-gap
/// dead time shrunk to test-page scale: the spec whose crossover is
/// meaningful on tiny-model workloads.
inline cost::GpuSpec proxy_spec() {
  cost::GpuSpec spec = cost::a100();
  spec.name = "cpu-proxy";
  spec.launch_overhead_us = 0.0;
  spec.page_gap_bytes = 16.0;
  return spec;
}

/// LServe preset at test geometry (mirrors scheduler_test's sparse_cfg)
/// with a 64-token selector budget and 8-token prefill chunks, so gating,
/// chunked prefill and the prefix cache all exercise inside ~100-token
/// requests.
inline EngineConfig gated_cfg() {
  EngineConfig c = baselines::lserve_config(model::tiny());
  c.dense_pages.page_size = 8;
  c.dense_pages.logical_page_size = 4;
  c.streaming = {/*sink_tokens=*/4, /*local_tokens=*/8};
  c.tiling = {8, 8};
  c.pool_pages = 512;
  c.selector.token_budget = 64;
  c.prefill_chunk_tokens = 8;
  return c;
}

/// The gate under test: cost-model crossover of gated_cfg() on the proxy
/// spec at decode batch 1.
inline std::shared_ptr<const CostModelGatedPolicy> gated_policy() {
  return make_cost_model_gated_policy(proxy_spec(), gated_cfg(),
                                      /*batch=*/1);
}

/// Deterministic prompt shared with scheduler_test: prompts of different
/// lengths are prefixes of one another, which is exactly what makes the
/// prefix-cache-on scenarios hit.
inline Request make_request(std::size_t prompt_len, std::size_t new_tokens) {
  Request req;
  req.prompt.resize(prompt_len);
  for (std::size_t i = 0; i < prompt_len; ++i) {
    req.prompt[i] = static_cast<std::int32_t>((i * 13 + 5) % 251);
  }
  req.max_new_tokens = new_tokens;
  return req;
}

/// (prompt_len, max_new_tokens) pairs for one drain.
using Workload = std::vector<std::pair<std::size_t, std::size_t>>;

/// Every context length the below/above workloads decode at stays on one
/// side of the crossover (asserted by the harness before relying on it).
inline Workload below_crossover_workload() {
  return {{24, 8}, {12, 6}, {18, 4}, {8, 10}};
}
inline Workload above_crossover_workload() {
  return {{96, 8}, {104, 6}, {112, 4}};
}

struct DrainOutcome {
  std::vector<RequestResult> results;  ///< completion order.
  EngineStats stats;
  SchedulerStats sched_stats;
  kv::PrefixCacheStats prefix;  ///< all zero when the cache is off.
};

/// Every RequestResult field.
inline auto result_fields(const RequestResult& r) {
  return std::tie(r.request_id, r.status, r.output, r.prompt_tokens,
                  r.decode_steps, r.preemptions, r.submit_step,
                  r.first_token_step, r.finish_step);
}

/// The seven SchedulerStats fields, the engine's work counters (route
/// split, visits, selector work, sequence lifecycle) and the prefix-cache
/// hit, reuse and copy-on-write counters, in that order.
inline std::vector<std::size_t> schedule_counters(const DrainOutcome& d) {
  const SchedulerStats& s = d.sched_stats;
  const EngineStats& e = d.stats;
  return {s.steps, s.admitted, s.preemptions, s.deferred_admissions,
          s.prefill_chunks, s.cancelled, s.deadline_exceeded,
          e.prefill_tokens, e.decode_steps, e.decode_dense_steps,
          e.decode_sparse_steps, e.pages_visited, e.tokens_visited,
          e.selector_runs, e.selector_reuses, e.sequences_created,
          e.sequences_released, d.prefix.hits, d.prefix.tokens_reused,
          d.prefix.cow_copies};
}

/// Two drains took the same schedule: every result, in completion order,
/// and every counter above.
inline void expect_same_outcome(const DrainOutcome& a,
                                const DrainOutcome& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(result_fields(a.results[i]), result_fields(b.results[i]))
        << "completion " << i;
  }
  EXPECT_EQ(schedule_counters(a), schedule_counters(b));
}

/// Submits `load` against a fresh engine + scheduler carrying `policy`
/// and drains. `page_budget` > 0 turns on admission control/preemption;
/// `prefix_cache` shares KV across the (prefix-overlapping) prompts.
inline DrainOutcome run_drain(std::shared_ptr<const AttentionPolicy> policy,
                              std::size_t decode_threads,
                              const Workload& load,
                              std::size_t page_budget = 0,
                              bool prefix_cache = false) {
  EngineConfig ec = gated_cfg();
  ec.enable_prefix_cache = prefix_cache;
  if (prefix_cache) ec.memory.prefix_cache_pages = 256;
  Engine engine(ec);
  SchedulerConfig sc;
  sc.max_batch = 4;
  sc.decode_threads = decode_threads;
  sc.memory.page_budget = page_budget;
  sc.policy = std::move(policy);
  Scheduler sched(engine, sc);
  for (const auto& [prompt_len, new_tokens] : load) {
    sched.submit(make_request(prompt_len, new_tokens));
  }
  DrainOutcome out;
  out.results = sched.drain();
  out.stats = engine.stats();
  out.sched_stats = sched.scheduler_stats();
  if (engine.prefix_cache() != nullptr) {
    out.prefix = engine.prefix_cache()->stats();
  }
  return out;
}

}  // namespace lserve::serve::policy_test

#endif  // LSERVE_TESTS_POLICY_TEST_UTIL_HPP_
