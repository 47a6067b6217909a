// Policy-conformance harness for the attention-policy layer
// (src/serve/attention_policy.hpp).
//
// The contract under test: gated decode must be bit-identical to whichever
// ungated policy the gate selects. Since the route is a pure function of
// the context length, a workload whose every decode step sits below the
// crossover must reproduce an always-dense run exactly, and one whose
// every step sits at or past it must reproduce an always-sparse run
// exactly — outputs, engine counters and scheduler telemetry alike —
// under preemption replay and with the prefix cache on or off. These run
// at one decode thread; drain_oracle_test carries the same workloads, under
// each policy, across thread counts. Mid-sequence flips are pinned against
// a manual set_attention_policy() swap at the crossover step.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "costmodel/pipeline_cost.hpp"
#include "policy_test_util.hpp"
#include "serve/attention_policy.hpp"

namespace lserve::serve {
namespace {

using policy_test::DrainOutcome;
using policy_test::Workload;
using policy_test::above_crossover_workload;
using policy_test::below_crossover_workload;
using policy_test::expect_same_outcome;
using policy_test::gated_cfg;
using policy_test::gated_policy;
using policy_test::make_request;
using policy_test::run_drain;

// ---------------------------------------------------------------------------
// Policy objects in isolation.

TEST(AttentionPolicy, StaticPolicyPinsRouteAndName) {
  const StaticAttentionPolicy dense("d", AttentionRoute::kDense);
  const StaticAttentionPolicy sparse("s", AttentionRoute::kSparse);
  for (const std::size_t ctx : {std::size_t{1}, std::size_t{1} << 20}) {
    EXPECT_EQ(dense.route(ctx), AttentionRoute::kDense);
    EXPECT_EQ(sparse.route(ctx), AttentionRoute::kSparse);
  }
  EXPECT_EQ(dense.name(), "d");
  EXPECT_EQ(always_dense_policy()->route(5), AttentionRoute::kDense);
  EXPECT_EQ(always_sparse_policy()->route(5), AttentionRoute::kSparse);
  EXPECT_EQ(always_dense_policy()->name(), "always-dense");
  EXPECT_EQ(always_sparse_policy()->name(), "always-sparse");
  EXPECT_STREQ(to_string(AttentionRoute::kDense), "dense");
  EXPECT_STREQ(to_string(AttentionRoute::kSparse), "sparse");
}

TEST(AttentionPolicy, GatedPolicyFlipsExactlyAtCrossover) {
  const CostModelGatedPolicy gate("g", 100);
  EXPECT_EQ(gate.route(99), AttentionRoute::kDense);
  EXPECT_EQ(gate.route(100), AttentionRoute::kSparse);
  EXPECT_EQ(gate.route(101), AttentionRoute::kSparse);
  EXPECT_EQ(gate.crossover(), 100u);
  // No crossover (sparse never wins) pins the route to dense everywhere.
  const CostModelGatedPolicy never("n", cost::kNoCrossover);
  EXPECT_EQ(never.route(std::size_t{1} << 40), AttentionRoute::kDense);
}

// The window every conformance workload below is built around: the
// crossover must land past the 64-token selector budget (sparse cannot win
// while the budget covers the context) and before the shortest
// above-crossover context (97). A cost-model change that moves it out of
// this window fails here, loudly, instead of silently weakening the
// workload-based equivalences.
TEST(GatedConformance, CrossoverLandsInTestWindow) {
  const auto gate = gated_policy();
  ASSERT_NE(gate, nullptr);
  EXPECT_GT(gate->crossover(), gated_cfg().selector.token_budget);
  EXPECT_LE(gate->crossover(), 96u);
  // Memoized: the same query returns the same gate.
  EXPECT_EQ(gated_policy()->crossover(), gate->crossover());
}

// ---------------------------------------------------------------------------
// Whole-drain bit-identity.

TEST(GatedConformance, BelowCrossoverEqualsAlwaysDense) {
  const DrainOutcome gated =
      run_drain(gated_policy(), 1, below_crossover_workload());
  const DrainOutcome dense =
      run_drain(always_dense_policy(), 1, below_crossover_workload());
  expect_same_outcome(gated, dense);
  // Every step routed dense: the gate genuinely took the dense path.
  EXPECT_EQ(gated.stats.decode_sparse_steps, 0u);
  EXPECT_EQ(gated.stats.decode_dense_steps, gated.stats.decode_steps);
  EXPECT_GT(gated.stats.decode_steps, 0u);
}

TEST(GatedConformance, AboveCrossoverEqualsAlwaysSparse) {
  const DrainOutcome gated =
      run_drain(gated_policy(), 1, above_crossover_workload());
  const DrainOutcome sparse =
      run_drain(always_sparse_policy(), 1, above_crossover_workload());
  expect_same_outcome(gated, sparse);
  EXPECT_EQ(gated.stats.decode_dense_steps, 0u);
  EXPECT_EQ(gated.stats.decode_sparse_steps, gated.stats.decode_steps);
  // The contexts are past the selector budget, so sparse really pruned.
  EXPECT_GT(gated.stats.selector_runs, 0u);
}

TEST(GatedConformance, PreemptionReplayBelowCrossover) {
  // Six mixed requests against a 30-page budget force deferrals and
  // preemption; replay re-decodes at the same context lengths, so gating
  // replays too.
  const Workload load = {{12, 6}, {40, 3}, {8, 9}, {24, 5}, {16, 2}, {33, 7}};
  const DrainOutcome gated =
      run_drain(gated_policy(), 1, load, /*page_budget=*/30);
  const DrainOutcome dense =
      run_drain(always_dense_policy(), 1, load, /*page_budget=*/30);
  expect_same_outcome(gated, dense);
  EXPECT_GT(gated.sched_stats.preemptions, 0u);
  EXPECT_EQ(gated.stats.decode_sparse_steps, 0u);
}

TEST(GatedConformance, PreemptionReplayAboveCrossover) {
  const DrainOutcome gated = run_drain(gated_policy(), 1,
                                       above_crossover_workload(),
                                       /*page_budget=*/48);
  const DrainOutcome sparse = run_drain(always_sparse_policy(), 1,
                                        above_crossover_workload(),
                                        /*page_budget=*/48);
  expect_same_outcome(gated, sparse);
  EXPECT_GT(gated.sched_stats.preemptions, 0u);
  EXPECT_EQ(gated.stats.decode_dense_steps, 0u);
}

TEST(GatedConformance, PrefixCacheOnStaysBitIdentical) {
  // More requests than batch slots, with overlapping prompts: requests
  // admitted after an earlier finish attach its cached prefix. The attach
  // changes how a context was built, never its length, so the gate must
  // not notice. (Cache on ≡ cache off is drain_oracle_test's output check.)
  const Workload below_shared = {{24, 8}, {12, 6}, {18, 4}, {8, 10},
                                 {24, 6}, {20, 5}, {16, 3}, {22, 4}};
  const Workload above_shared = {
      {96, 8}, {104, 6}, {112, 4}, {100, 6}, {96, 5}};
  const DrainOutcome gated =
      run_drain(gated_policy(), 1, below_shared,
                /*page_budget=*/0, /*prefix_cache=*/true);
  const DrainOutcome dense =
      run_drain(always_dense_policy(), 1, below_shared,
                /*page_budget=*/0, /*prefix_cache=*/true);
  expect_same_outcome(gated, dense);
  EXPECT_GT(gated.prefix.hits, 0u);

  const DrainOutcome gated_hi =
      run_drain(gated_policy(), 1, above_shared,
                /*page_budget=*/0, /*prefix_cache=*/true);
  const DrainOutcome sparse_hi =
      run_drain(always_sparse_policy(), 1, above_shared,
                /*page_budget=*/0, /*prefix_cache=*/true);
  expect_same_outcome(gated_hi, sparse_hi);
  EXPECT_GT(gated_hi.prefix.hits, 0u);
}

TEST(GatedConformance, NullPolicyEqualsAlwaysSparse) {
  // No policy attached = run as configured = the kSparse route: the
  // pre-policy engine, preserved bit for bit (and counted as sparse).
  const DrainOutcome none =
      run_drain(nullptr, 2, above_crossover_workload());
  const DrainOutcome sparse =
      run_drain(always_sparse_policy(), 2, above_crossover_workload());
  expect_same_outcome(none, sparse);
}

// ---------------------------------------------------------------------------
// Mid-sequence flips.

TEST(GatedConformance, MidFlipEqualsManualPolicySwap) {
  const auto gate = gated_policy();
  const std::size_t cross = gate->crossover();
  ASSERT_GT(cross, 64u);
  ASSERT_LE(cross, 96u);
  // Start 8 tokens below the crossover and decode 16: the route flips
  // dense→sparse mid-sequence, at context == cross exactly.
  const std::size_t prompt_len = cross - 8;
  const std::size_t decodes = 16;
  const std::vector<std::int32_t> prompt = make_request(prompt_len, 1).prompt;

  const auto run_with =
      [&](std::shared_ptr<const AttentionPolicy> initial,
          bool swap_at_crossover) {
        EngineConfig ec = gated_cfg();
        ec.policy = std::move(initial);
        Engine engine(ec);
        const SequenceId id = engine.create_sequence();
        std::vector<std::int32_t> out{engine.prefill(id, prompt)};
        for (std::size_t i = 1; i <= decodes; ++i) {
          // Context of this decode step (position after its KV append).
          if (swap_at_crossover && prompt_len + i >= cross) {
            engine.set_attention_policy(always_sparse_policy());
          }
          out.push_back(engine.decode(id, out.back()));
        }
        EngineStats stats = engine.stats();
        engine.release_sequence(id);
        return std::make_pair(out, stats);
      };

  const auto [gated_out, gated_stats] = run_with(gate, false);
  // Manual reference: always-dense until the crossover step, then swapped
  // to always-sparse by hand. The gate must be exactly this swap.
  const auto [manual_out, manual_stats] =
      run_with(always_dense_policy(), true);
  EXPECT_EQ(gated_out, manual_out);

  // Decision accounting: dense for contexts prompt_len+1 .. cross-1,
  // sparse from cross onward.
  EXPECT_EQ(gated_stats.decode_dense_steps, cross - prompt_len - 1);
  EXPECT_EQ(gated_stats.decode_sparse_steps,
            decodes - (cross - prompt_len - 1));
  EXPECT_EQ(gated_stats.decode_dense_steps + gated_stats.decode_sparse_steps,
            gated_stats.decode_steps);

  // And the pre-flip prefix matches an uninterrupted always-dense run
  // (the flip cannot rewrite history).
  const auto [dense_out, dense_stats] =
      run_with(always_dense_policy(), false);
  (void)dense_stats;
  for (std::size_t i = 0; i < cross - prompt_len; ++i) {
    EXPECT_EQ(gated_out[i], dense_out[i]) << "token " << i;
  }
}

}  // namespace
}  // namespace lserve::serve
