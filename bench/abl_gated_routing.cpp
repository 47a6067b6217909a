// Ablation: cost-model-gated decode routing against the two static routes
// it chooses between — median TPOT vs context length.
//
// The gate routes a decode step dense below the cost model's crossover and
// through the configured sparse pipeline past it. At every context length
// the gated median must stay within 5% of the faster static route; the
// bench exits 1 otherwise.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "common.hpp"
#include "costmodel/gpu_spec.hpp"
#include "serve/attention_policy.hpp"
#include "serve/engine.hpp"

using namespace lserve;

namespace {

using bench::LatencySummary;

/// A100 rooflines with the fixed launch cost removed and the page-gap dead
/// time shrunk to test-page scale (the CPU substrate has no kernel
/// launches), so the modeled crossover lands inside the measured context
/// range instead of tens of thousands of tokens out. Mirrors the
/// conformance harness (tests/policy_test_util.hpp).
cost::GpuSpec gated_proxy_spec() {
  cost::GpuSpec spec = cost::a100();
  spec.name = "cpu-proxy";
  spec.launch_overhead_us = 0.0;
  spec.page_gap_bytes = 16.0;
  return spec;
}

/// LServe preset at bench geometry: 8-token pages and a 64-token selector
/// budget, so selection, gating and full-context reads all differ inside
/// a few hundred tokens of context.
serve::EngineConfig gated_ec() {
  serve::EngineConfig ec = baselines::lserve_config(model::tiny());
  ec.dense_pages.page_size = 8;
  ec.dense_pages.logical_page_size = 4;
  ec.streaming = {/*sink_tokens=*/4, /*local_tokens=*/8};
  ec.tiling = {8, 8};
  ec.pool_pages = 1024;
  ec.selector.token_budget = 64;
  return ec;
}

/// One policy's engine mid-measurement: a live sequence at the scenario
/// context plus its collected per-step latencies.
struct DecodeLane {
  std::unique_ptr<serve::Engine> engine;
  serve::SequenceId id = 0;
  std::int32_t tok = 0;
  std::vector<double> samples;
};

DecodeLane make_lane(std::shared_ptr<const serve::AttentionPolicy> policy,
                     std::size_t ctx, std::size_t rep) {
  serve::EngineConfig ec = gated_ec();
  ec.policy = std::move(policy);
  DecodeLane lane;
  lane.engine = std::make_unique<serve::Engine>(ec);
  lane.id = lane.engine->create_sequence();
  std::vector<std::int32_t> prompt(ctx);
  for (std::size_t i = 0; i < ctx; ++i) {
    prompt[i] = static_cast<std::int32_t>((i * 131 + rep * 31 + 7) % 1021);
  }
  lane.tok = lane.engine->prefill(lane.id, prompt);
  return lane;
}

/// Advances every lane by `steps` decode steps, one step per lane at a
/// time with the lane order rotating each round, so scheduling jitter on
/// a shared core lands on all policies equally. The first few rounds per
/// sequence are warmup and not recorded.
void sample_decode_us(std::vector<DecodeLane>& lanes, std::size_t steps) {
  constexpr std::size_t kWarmup = 4;
  for (std::size_t s = 0; s < steps + kWarmup; ++s) {
    for (std::size_t off = 0; off < lanes.size(); ++off) {
      DecodeLane& lane = lanes[(s + off) % lanes.size()];
      const auto t0 = std::chrono::steady_clock::now();
      lane.tok = lane.engine->decode(lane.id, lane.tok);
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (s >= kWarmup) lane.samples.push_back(us);
    }
  }
}

}  // namespace

int main() {
  const serve::EngineConfig ec = gated_ec();
  const auto gate =
      baselines::gated_policy(ec, gated_proxy_spec(), /*batch=*/1);
  bench::section(
      "Ablation: gated decode routing (model=tiny, NP8/NL4, budget 64): "
      "median TPOT vs context length, crossover = " +
      std::to_string(gate->crossover()) + " tokens");
  bench::row("context",
             {"dense us", "sparse us", "gated us", "gated/min", "route"}, 10,
             11);
  constexpr std::size_t kSteps = 24;
  constexpr std::size_t kReps = 8;
  bool within = true;
  for (const std::size_t ctx :
       {std::size_t{16}, std::size_t{32}, std::size_t{48}, std::size_t{96},
        std::size_t{128}, std::size_t{192}, std::size_t{256}}) {
    std::vector<double> dense_s, sparse_s, gated_s;
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      std::vector<DecodeLane> lanes;
      lanes.push_back(make_lane(serve::always_dense_policy(), ctx, rep));
      lanes.push_back(make_lane(serve::always_sparse_policy(), ctx, rep));
      lanes.push_back(make_lane(gate, ctx, rep));
      sample_decode_us(lanes, kSteps);
      dense_s.insert(dense_s.end(), lanes[0].samples.begin(),
                     lanes[0].samples.end());
      sparse_s.insert(sparse_s.end(), lanes[1].samples.begin(),
                      lanes[1].samples.end());
      gated_s.insert(gated_s.end(), lanes[2].samples.begin(),
                     lanes[2].samples.end());
    }
    const double dense = LatencySummary::from(dense_s).p50;
    const double sparse = LatencySummary::from(sparse_s).p50;
    const double gated = LatencySummary::from(gated_s).p50;
    const double best = std::min(dense, sparse);
    within = within && gated <= best * 1.05;
    bench::row(std::to_string(ctx),
               {bench::fmt(dense, 1), bench::fmt(sparse, 1),
                bench::fmt(gated, 1), bench::fmt(gated / best, 3),
                serve::to_string(gate->route(ctx + 1))},
               10, 11);
  }
  std::printf(
      "\nThe gate picks the dense route below the modeled crossover and the\n"
      "configured sparse pipeline past it; 'gated/min' compares the gated\n"
      "median against the better static route at each length (target: <=\n"
      "1.05 everywhere). %s\n",
      within ? "PASS: gated <= min(dense, sparse) + 5% at every length."
             : "WARN: gated exceeded min + 5% at some length.");
  return within ? 0 : 1;
}
