// Differential drain harness. One runner drains a row — engine config,
// policy, workload, scripted cancels and deadlines — and checks:
//   1. outputs: each finished output equals Engine::generate alone on an
//      untiered, uncached engine with the same config and policy, and a
//      cancelled or timed-out one is a prefix of it — so preemption replay
//      must be exact under every sparsity policy;
//   2. stream: each on_token log equals its output, index by index, and
//      on_done fired once with it;
//   3. schedule (untiered rows): drains at 2/8 threads, metrics on or off,
//      equal the 1-thread metrics-off drain in every result and counter
//      (policy_test::expect_same_outcome). Tiered rows check outputs only:
//      admission reads hot occupancy, which the prefetcher can move;
//   4. conservation: only the prefix cache holds pages after the drain, a
//      full reclaim returns them, and every sequence was released.
// Named rows carry fixed workloads with checks that their mechanism fired;
// drawn rows sample the configuration axes from fixed seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "numeric/rng.hpp"
#include "policy_test_util.hpp"
#include "serve/scheduler.hpp"

namespace lserve::serve {
namespace {

using policy_test::gated_cfg;
using policy_test::gated_policy;
using policy_test::make_request;

/// A drain's results and counters, plus per-request logs by submission
/// index.
struct Drain : policy_test::DrainOutcome {
  std::vector<std::uint64_t> ids;
  std::vector<std::vector<std::int32_t>> streamed;  ///< on_token.
  std::vector<std::vector<RequestResult>> done;     ///< on_done.
  kv::TierStats tier;

  /// The result of the i-th submitted request.
  const RequestResult& result(std::size_t i) const {
    for (const RequestResult& r : results) {
      if (r.request_id == ids[i]) return r;
    }
    ADD_FAILURE() << "request " << i << " has no result";
    return results.front();
  }
};

/// cancel(request) right after scheduler step `after_step` completes.
struct Cancel {
  std::size_t after_step = 0;
  std::size_t request = 0;  ///< submission index.
};

struct Variant {
  std::size_t threads = 1;
  bool metrics = false;
};

/// Every other thread count and metrics setting; the reference is the
/// 1-thread metrics-off drain.
const std::vector<Variant> kAllVariants = {
    {2, false}, {8, false}, {1, true}, {8, true}};

struct Row {
  std::string name;
  EngineConfig engine;
  std::shared_ptr<const AttentionPolicy> policy;  ///< via SchedulerConfig.
  std::vector<kv::HeadKind> head_kinds;  ///< empty = the engine's own.
  std::vector<Request> requests;
  std::size_t max_batch = 4;
  std::size_t page_budget = 0;
  std::vector<Cancel> cancels;  ///< ascending after_step.
  std::vector<Variant> variants = kAllVariants;
  /// The row's own checks that its mechanism fired, run on every drain.
  std::function<void(const Drain&)> fired;
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

Row make_row(std::string name, EngineConfig engine,
             std::shared_ptr<const AttentionPolicy> policy = nullptr) {
  Row row;
  row.name = std::move(name);
  row.engine = std::move(engine);
  row.policy = std::move(policy);
  return row;
}

Drain run_drain(const Row& row, Variant variant) {
  Engine engine(row.engine);
  if (!row.head_kinds.empty()) engine.set_head_kinds(row.head_kinds);
  obs::MetricsRegistry registry;
  obs::StepTracer tracer(32);
  SchedulerConfig sc;
  sc.max_batch = row.max_batch;
  sc.decode_threads = variant.threads;
  sc.memory.page_budget = row.page_budget;
  sc.policy = row.policy;
  if (variant.metrics) {
    sc.metrics = &registry;
    sc.tracer = &tracer;
    sc.clock = std::make_shared<obs::FakeClock>(17);
  }
  Scheduler sched(engine, sc);
  Drain d;
  d.streamed.resize(row.requests.size());
  d.done.resize(row.requests.size());
  for (std::size_t i = 0; i < row.requests.size(); ++i) {
    Request req = row.requests[i];
    std::vector<std::int32_t>* log = &d.streamed[i];
    req.on_token = [log](std::uint64_t, std::int32_t token,
                         std::size_t index) {
      EXPECT_EQ(index, log->size()) << "stream skipped or repeated a token";
      log->push_back(token);
    };
    std::vector<RequestResult>* done = &d.done[i];
    req.on_done = [log, done](const RequestResult& r) {
      EXPECT_EQ(*log, r.output) << "on_done fired before the last token";
      done->push_back(r);
    };
    d.ids.push_back(sched.submit(std::move(req)));
  }
  // Cancellations land at fixed step indices, so every variant sees them
  // at the same point of the schedule.
  bool more = true;
  std::size_t step = 0;
  for (const Cancel& c : row.cancels) {
    for (; more && step < c.after_step; ++step) more = sched.step();
    sched.cancel(d.ids[c.request]);
  }
  d.results = sched.drain();
  d.sched_stats = sched.scheduler_stats();
  d.stats = engine.stats();
  if (engine.prefix_cache() != nullptr) {
    d.prefix = engine.prefix_cache()->stats();
  }
  d.tier = engine.tier_stats();

  EXPECT_EQ(engine.total_pages_in_use(), engine.prefix_cache_pages_held());
  engine.reclaim_prefix_pages(~std::size_t{0});
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
  EXPECT_EQ(engine.prefix_cache_pages_held(), 0u);
  EXPECT_EQ(d.stats.sequences_created, d.stats.sequences_released);
  EXPECT_EQ(engine.audit_report(), "");
  return d;
}

/// The serial oracle: each request alone, one after another, prefilled and
/// decoded by Engine::generate on an untiered, uncached engine.
std::vector<std::vector<std::int32_t>> serial_outputs(const Row& row) {
  EngineConfig ec = row.engine;
  ec.enable_prefix_cache = false;
  ec.memory = {};
  if (row.policy != nullptr) ec.policy = row.policy;
  Engine engine(ec);
  if (!row.head_kinds.empty()) engine.set_head_kinds(row.head_kinds);
  std::vector<std::vector<std::int32_t>> out;
  for (const Request& req : row.requests) {
    const SequenceId id = engine.create_sequence();
    out.push_back(engine.generate(id, req.prompt, req.max_new_tokens));
    engine.release_sequence(id);
  }
  return out;
}

void check_drain(const Row& row,
                 const std::vector<std::vector<std::int32_t>>& oracle,
                 const Drain& d) {
  ASSERT_EQ(d.results.size(), row.requests.size());
  for (std::size_t i = 0; i < row.requests.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const RequestResult& r = d.result(i);
    const std::vector<std::int32_t>& want = oracle[i];
    const bool may_stop_early =
        row.requests[i].deadline_steps != 0 ||
        std::any_of(row.cancels.begin(), row.cancels.end(),
                    [i](const Cancel& c) { return c.request == i; });
    if (!may_stop_early) {
      EXPECT_EQ(r.status, RequestStatus::kFinished);
    }
    if (r.status == RequestStatus::kFinished) {
      EXPECT_EQ(r.output, want);
    } else {
      ASSERT_LE(r.output.size(), want.size());
      EXPECT_TRUE(std::equal(r.output.begin(), r.output.end(), want.begin()))
          << "a partial output is not a prefix of the serial run";
    }
    EXPECT_EQ(d.streamed[i], r.output);
    ASSERT_EQ(d.done[i].size(), 1u);
    EXPECT_EQ(d.done[i][0].status, r.status);
    EXPECT_EQ(d.done[i][0].output, r.output);
  }
  if (row.fired) row.fired(d);
}

void check_row(const Row& row) {
  const std::vector<std::vector<std::int32_t>> oracle = serial_outputs(row);
  const Drain reference = run_drain(row, {1, false});
  check_drain(row, oracle, reference);
  for (const Variant& v : row.variants) {
    SCOPED_TRACE(std::to_string(v.threads) + " threads, metrics " +
                 (v.metrics ? "on" : "off"));
    const Drain drain = run_drain(row, v);
    check_drain(row, oracle, drain);
    if (!row.engine.memory.tiered()) {
      policy_test::expect_same_outcome(reference, drain);
    }
  }
}

// ---------------------------------------------------------------------------
// Configurations and workloads.

/// The LServe preset at test geometry: dynamic selection, streaming heads
/// and selector reuse all active inside short prompts.
EngineConfig sparse_cfg() {
  EngineConfig c = baselines::lserve_config(model::tiny());
  c.dense_pages.page_size = 8;
  c.dense_pages.logical_page_size = 4;
  c.streaming = {/*sink_tokens=*/4, /*local_tokens=*/8};
  c.tiling = {8, 8};
  c.pool_pages = 512;
  return c;
}

/// All-dense vLLM preset at test geometry.
EngineConfig vllm_cfg() {
  EngineConfig c = baselines::vllm_config(model::tiny());
  c.dense_pages.page_size = 8;
  c.dense_pages.logical_page_size = 8;
  c.tiling = {8, 8};
  c.pool_pages = 512;
  return c;
}

std::vector<Request> load(
    const std::vector<std::pair<std::size_t, std::size_t>>& shape) {
  std::vector<Request> out;
  for (const auto& [prompt_len, new_tokens] : shape) {
    out.push_back(make_request(prompt_len, new_tokens));
  }
  return out;
}

/// A mixed six-request load on the LServe preset: unpressured, then under a
/// 30-page budget where deferral and preemption fire, then with cancels
/// and a deadline on top.
void add_lifecycle_rows(std::vector<Row>& rows) {
  const std::vector<std::pair<std::size_t, std::size_t>> shape = {
      {12, 6}, {40, 3}, {8, 9}, {24, 5}, {16, 2}, {33, 7}};
  Row parallel = make_row("parallel_step", sparse_cfg());
  parallel.requests = load(shape);
  rows.push_back(parallel);

  Row pressured = make_row("pressured_lifecycle", sparse_cfg());
  pressured.engine.prefill_chunk_tokens = 8;
  pressured.requests = load(shape);
  pressured.page_budget = 30;
  pressured.fired = [](const Drain& d) {
    EXPECT_GT(d.sched_stats.preemptions, 0u);
    EXPECT_GT(d.sched_stats.deferred_admissions, 0u);
  };
  rows.push_back(pressured);

  Row mixed = pressured;
  mixed.name = "mixed_cancel_deadline_preemption";
  mixed.requests =
      load({{12, 6}, {40, 30}, {8, 9}, {24, 5}, {16, 40}, {33, 7}});
  mixed.requests[4].deadline_steps = 9;  // dies mid-decode.
  mixed.cancels = {{10, 1}, {14, 3}};    // mid-decode, then still waiting.
  mixed.fired = [](const Drain& d) {  // the other three finish.
    EXPECT_EQ(d.sched_stats.cancelled, 2u);
    EXPECT_EQ(d.sched_stats.deadline_exceeded, 1u);
    EXPECT_GT(d.sched_stats.preemptions, 0u);
    EXPECT_EQ(d.result(1).status, RequestStatus::kCancelled);
    EXPECT_FALSE(d.result(1).output.empty());
    EXPECT_EQ(d.result(4).status, RequestStatus::kDeadlineExceeded);
  };
  rows.push_back(mixed);

  // Telemetry must never feed back into scheduling: a pressured all-dense
  // drain whose variants turn metrics, tracing and a clock on.
  Row metrics = make_row("metrics_pressured", vllm_cfg());
  for (std::size_t i = 0; i < 10; ++i) {
    metrics.requests.push_back(make_request(8 + 3 * i, 4 + i % 3));
  }
  metrics.page_budget = 48;
  metrics.variants.push_back({2, true});
  metrics.fired = [](const Drain& d) {
    EXPECT_GT(d.sched_stats.deferred_admissions, 0u);
  };
  rows.push_back(metrics);
}

/// The LServe preset with the prefix cache on, on alternating dense and
/// streaming heads.
Row prefix_cache_row(std::string name, bool cache) {
  Row row = make_row(std::move(name), baselines::lserve_config(model::tiny()));
  EngineConfig& c = row.engine;
  c.dense_pages.page_size = 8;
  c.dense_pages.logical_page_size = 4;
  c.tiling = {8, 8};
  c.streaming = {/*sink_tokens=*/8, /*local_tokens=*/16};
  c.selector.token_budget = 48;
  c.reuse_interval = 4;
  c.pool_pages = 1024;
  c.enable_prefix_cache = cache;
  for (std::size_t h = 0; h < c.model.layers * c.model.kv_heads; ++h) {
    row.head_kinds.push_back(h % 2 ? kv::HeadKind::kStreaming
                                   : kv::HeadKind::kDense);
  }
  return row;
}

std::vector<std::int32_t> prompt_ids(std::size_t n, std::int32_t base) {
  std::vector<std::int32_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::int32_t>((base + 7 * i) % 251);
  }
  return out;
}

/// Six requests, three continuations of one shared system prompt, each
/// submitted twice: later admissions attach what earlier retirements
/// inserted (the uncached oracle makes this cache on ≡ cache off). Then
/// three diverging streams under a 28-page budget with one cancelled:
/// preemption and cancel release sequence references while the tree keeps
/// its own.
void add_prefix_cache_rows(std::vector<Row>& rows) {
  for (const bool cache : {false, true}) {
    Row row = prefix_cache_row(cache ? "prefix_cache_on" : "prefix_cache_off",
                               cache);
    for (int i = 0; i < 6; ++i) {
      Request req;
      req.prompt = prompt_ids(24, 3);
      const std::vector<std::int32_t> user = prompt_ids(9, 31 * (i % 3) + 2);
      req.prompt.insert(req.prompt.end(), user.begin(), user.end());
      req.max_new_tokens = 5;
      row.requests.push_back(req);
    }
    if (cache) {
      row.fired = [](const Drain& d) { EXPECT_GT(d.prefix.hits, 0u); };
    }
    rows.push_back(row);
  }
  Row refs = prefix_cache_row("prefix_cache_refcounts", true);
  for (int i = 0; i < 3; ++i) {
    Request req;
    req.prompt = prompt_ids(16, 3);
    req.prompt[3] += i;
    req.max_new_tokens = i == 1 ? 20 : 12;
    refs.requests.push_back(req);
  }
  refs.max_batch = 2;
  refs.page_budget = 28;
  refs.cancels = {{6, 2}};
  refs.fired = [](const Drain& d) {
    EXPECT_GE(d.sched_stats.preemptions, 1u);
    EXPECT_EQ(d.sched_stats.cancelled, 1u);
  };
  rows.push_back(refs);
}

/// Tiering on and off under a page budget that preempts: the budget
/// charges only hot pages, so it must sit low enough to bind with 24 hot.
void add_tier_rows(std::vector<Row>& rows) {
  for (const std::size_t hot : {std::size_t{0}, std::size_t{24}}) {
    Row row = make_row(hot == 0 ? "tier_off" : "tier_on", gated_cfg());
    row.engine.memory.hot_pages = hot;
    row.requests = load({{40, 8}, {64, 6}, {24, 10}, {96, 4}, {56, 8}});
    row.page_budget = 32;
    row.fired = [hot](const Drain& d) {
      EXPECT_GT(d.sched_stats.preemptions, 0u);
      if (hot > 0) {
        EXPECT_GT(d.tier.demotions, 0u);
      }
    };
    rows.push_back(row);
  }
}

/// The attention-policy conformance workloads (attention_policy_test checks
/// gated ≡ always-dense / always-sparse on them at one thread), each under
/// the gate and under the static policy it must equal.
void add_policy_rows(std::vector<Row>& rows) {
  const auto gate = gated_policy();
  const std::size_t cross = gate->crossover();
  struct Conformance {
    std::string name;
    policy_test::Workload load;
    std::size_t page_budget;
    bool prefix_cache;
    bool below;  ///< every step below the crossover (else at or past it).
  };
  const std::vector<Conformance> cases = {
      {"below", policy_test::below_crossover_workload(), 0, false, true},
      {"above", policy_test::above_crossover_workload(), 0, false, false},
      {"preempt_below",
       {{12, 6}, {40, 3}, {8, 9}, {24, 5}, {16, 2}, {33, 7}}, 30, false, true},
      {"preempt_above", policy_test::above_crossover_workload(), 48, false,
       false},
      {"shared_below",
       {{24, 8}, {12, 6}, {18, 4}, {8, 10}, {24, 6}, {20, 5}, {16, 3}, {22, 4}},
       0, true, true},
      {"shared_above", {{96, 8}, {104, 6}, {112, 4}, {100, 6}, {96, 5}}, 0,
       true, false},
  };
  for (const Conformance& c : cases) {
    const std::shared_ptr<const AttentionPolicy> fixed =
        c.below ? always_dense_policy() : always_sparse_policy();
    for (const auto& policy :
         {std::shared_ptr<const AttentionPolicy>(gate), fixed}) {
      Row row = make_row(
          "policy_" + c.name + "_" +
              (policy == gate ? "gated" : c.below ? "dense" : "sparse"),
          gated_cfg(), policy);
      row.engine.enable_prefix_cache = c.prefix_cache;
      if (c.prefix_cache) row.engine.memory.prefix_cache_pages = 256;
      row.requests = load(c.load);
      row.page_budget = c.page_budget;
      row.fired = [c](const Drain& d) {
        EXPECT_EQ(d.sched_stats.preemptions > 0, c.page_budget > 0);
        EXPECT_EQ(d.prefix.hits > 0, c.prefix_cache);
      };
      rows.push_back(row);
    }
  }
  // A route that flips mid-decode and at the prefill→decode handoff: the
  // per-step route counts are a pure function of prompt length and
  // crossover.
  Row flip = make_row("policy_mid_flip", gated_cfg(), gate);
  flip.requests = load({{cross - 6, 12}, {cross - 14, 10}, {cross + 2, 6}});
  std::size_t dense = 0;
  std::size_t total = 0;
  for (const Request& req : flip.requests) {
    for (std::size_t i = 1; i < req.max_new_tokens; ++i) {
      ++total;
      if (req.prompt.size() + i < cross) ++dense;
    }
  }
  flip.fired = [dense, total](const Drain& d) {
    EXPECT_EQ(d.stats.decode_steps, total);
    EXPECT_EQ(d.stats.decode_dense_steps, dense);
    EXPECT_EQ(d.stats.decode_sparse_steps, total - dense);
  };
  rows.push_back(flip);
}

/// Request A (16-token prompt, 12 new) and B (16 + 20, a distinct stream)
/// at max batch 2: their combined decode growth breaches the budget, so B,
/// the newest, is preempted mid-decode and replayed after A retires.
Row preempted_b_row(std::string name, EngineConfig engine,
                    std::size_t page_budget) {
  Row row = make_row(std::move(name), std::move(engine));
  row.requests = load({{16, 12}, {16, 20}});
  row.requests[1].prompt[3] += 1;
  row.max_batch = 2;
  row.page_budget = page_budget;
  row.fired = [](const Drain& d) {
    EXPECT_EQ(d.result(0).preemptions, 0u);
    EXPECT_GE(d.result(1).preemptions, 1u);
    EXPECT_GE(d.sched_stats.deferred_admissions, 1u);
    EXPECT_EQ(d.result(1).output.size(), 20u);
  };
  return row;
}

void add_replay_rows(std::vector<Row>& rows) {
  rows.push_back(preempted_b_row("replay_vllm_28", vllm_cfg(), 28));
  for (const std::size_t budget : {24, 26, 28, 30, 32}) {
    rows.push_back(preempted_b_row("replay_lserve_" + std::to_string(budget),
                                   gated_cfg(), budget));
  }
  // Page selection off: the streaming window alone must replay exactly.
  EngineConfig windowed = gated_cfg();
  windowed.dynamic_decode = false;
  for (const std::size_t budget : {28, 30}) {
    rows.push_back(preempted_b_row(
        "replay_no_selection_" + std::to_string(budget), windowed, budget));
  }
  // A token budget below the context: B's generated tokens were decoded
  // over pruned tables, which a re-prefill of them would not reproduce.
  EngineConfig pruned = gated_cfg();
  pruned.streaming.local_tokens = 512;
  pruned.selector.token_budget = 16;
  for (const std::size_t budget : {28, 30}) {
    rows.push_back(preempted_b_row(
        "replay_token_budget_16_" + std::to_string(budget), pruned, budget));
  }
}

/// Random request mixes: nine random-token prompts on the all-dense preset,
/// and six pressured, gated drains whose prompts straddle the crossover
/// (two of them end prefill one and two tokens short of it) with the
/// prefix cache on every other trial — both routes must be taken.
void add_fuzz_rows(std::vector<Row>& rows) {
  {
    Row row = make_row("fuzz_request_mix", vllm_cfg());
    row.engine.pool_pages = 1024;
    row.max_batch = 3;
    num::Rng rng(77);
    for (int i = 0; i < 9; ++i) {
      Request req;
      req.prompt.resize(4 + rng.next_below(40));
      for (std::int32_t& t : req.prompt) {
        t = static_cast<std::int32_t>(rng.next_below(251));
      }
      req.max_new_tokens = 1 + rng.next_below(6);
      row.requests.push_back(req);
    }
    rows.push_back(row);
  }
  const auto gate = gated_policy();
  const std::size_t cross = gate->crossover();
  num::Rng rng(2025);
  for (int trial = 0; trial < 6; ++trial) {
    Row row = make_row("fuzz_gated_flips_" + std::to_string(trial),
                       gated_cfg(), gate);
    const bool cache = (trial % 2) == 1;
    row.engine.enable_prefix_cache = cache;
    if (cache) row.engine.memory.prefix_cache_pages = 64;
    row.max_batch = 3;
    const std::size_t threads = 1 + rng.next_below(4);
    row.variants = {{threads, threads == 1}};
    row.page_budget = 40 + rng.next_below(24);
    row.requests.push_back(make_request(cross - 1, 1 + rng.next_below(6)));
    row.requests.push_back(make_request(cross - 2, 2 + rng.next_below(6)));
    const std::size_t extra = 5 + rng.next_below(4);
    for (std::size_t i = 0; i < extra; ++i) {
      row.requests.push_back(make_request(cross - 20 + rng.next_below(40),
                                          1 + rng.next_below(12)));
    }
    row.fired = [](const Drain& d) {
      EXPECT_GT(d.stats.decode_dense_steps, 0u);
      EXPECT_GT(d.stats.decode_sparse_steps, 0u);
    };
    rows.push_back(row);
  }
}

std::vector<Row> named_rows() {
  std::vector<Row> rows;
  add_lifecycle_rows(rows);
  add_prefix_cache_rows(rows);
  add_tier_rows(rows);
  add_policy_rows(rows);
  add_replay_rows(rows);
  add_fuzz_rows(rows);
  return rows;
}

/// One row per seed, drawn over the axes: chunk size, reuse interval, a
/// token budget below or above the context, prefix cache, tiering, batch,
/// page budget, policy, shared-prefix or diverging prompts, deadlines and
/// a cancel; checked at one other thread count and metrics setting.
Row drawn_row(std::uint64_t seed) {
  num::Rng rng(seed);
  Row row = make_row("drawn_" + std::to_string(seed), gated_cfg());
  EngineConfig& c = row.engine;
  c.prefill_chunk_tokens = 1 + rng.next_below(8);
  c.reuse_interval = 1 + rng.next_below(8);
  c.selector.token_budget = rng.next_below(2) == 0 ? 16 : 64;
  if (rng.next_below(2) == 0) {
    c.enable_prefix_cache = true;
    c.memory.prefix_cache_pages = 256;
  }
  if (rng.next_below(2) == 0) c.memory.hot_pages = 24;
  row.max_batch = 1 + rng.next_below(6);
  row.page_budget = rng.next_below(4) == 0 ? 0 : 24 + rng.next_below(41);
  const std::shared_ptr<const AttentionPolicy> policies[] = {
      nullptr, gated_policy(), always_dense_policy()};
  row.policy = policies[rng.next_below(3)];
  const std::size_t n = 2 + rng.next_below(5);
  for (std::size_t i = 0; i < n; ++i) {
    Request req = make_request(8 + rng.next_below(57), 1 + rng.next_below(32));
    if (rng.next_below(3) == 0) {
      req.prompt[rng.next_below(req.prompt.size())] += 1;  // diverge.
    }
    if (rng.next_below(4) == 0) req.deadline_steps = 5 + rng.next_below(40);
    row.requests.push_back(std::move(req));
  }
  if (rng.next_below(4) == 0) {
    row.cancels.push_back({3 + rng.next_below(30), rng.next_below(n)});
  }
  row.variants = {{rng.next_below(2) == 0 ? 2u : 8u, rng.next_below(2) == 0}};
  return row;
}

std::vector<Row> drawn_rows() {
  std::vector<Row> rows;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    rows.push_back(drawn_row(seed));
  }
  return rows;
}

class DrainOracle : public ::testing::TestWithParam<Row> {};

TEST_P(DrainOracle, MatchesSerialRunAndOneThreadSchedule) {
  check_row(GetParam());
}

std::string row_name(const ::testing::TestParamInfo<Row>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Named, DrainOracle,
                         ::testing::ValuesIn(named_rows()), row_name);
INSTANTIATE_TEST_SUITE_P(Drawn, DrainOracle,
                         ::testing::ValuesIn(drawn_rows()), row_name);

}  // namespace
}  // namespace lserve::serve
