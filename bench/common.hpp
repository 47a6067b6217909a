// Shared helpers for the benchmark harness: wall-clock timing, table
// printing, and the serving-policy lineup used across figures.
//
// Classic include guard (not #pragma once) so the header also syntax-checks
// standalone as a main file.
#ifndef LSERVE_BENCH_COMMON_HPP_
#define LSERVE_BENCH_COMMON_HPP_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "costmodel/pipeline_cost.hpp"
#include "numeric/rng.hpp"
#include "obs/metrics.hpp"

namespace lserve::bench {

// ---------------------------------------------------------------------------
// Shared-prefix chat workload
//
// Deterministic multi-turn conversations for prefix-cache experiments: every
// user shares one system prompt, and each turn's prompt is the full history
// (previous prompt + the engine's actual reply) plus fresh user tokens. The
// same seed reproduces the same token streams in every process. Used by
// examples/multi_turn_chat.
// ---------------------------------------------------------------------------

struct ChatWorkloadConfig {
  std::size_t users = 4;             ///< concurrent conversations
  std::size_t turns_per_user = 3;    ///< chat rounds per conversation
  std::size_t system_prompt_tokens = 128;  ///< shared across ALL users
  std::size_t turn_prompt_tokens = 32;     ///< fresh user tokens per turn
  std::size_t reply_tokens = 8;      ///< max_new_tokens per turn
  std::uint64_t seed = 0x5EED;
  std::int32_t vocab = 32000;
};

/// The system prompt every conversation opens with (stream 0 of `seed`).
inline std::vector<std::int32_t> chat_system_prompt(
    const ChatWorkloadConfig& cfg) {
  num::Rng rng(num::split_seed(cfg.seed, 0));
  std::vector<std::int32_t> out(cfg.system_prompt_tokens);
  for (auto& t : out) {
    t = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(cfg.vocab)));
  }
  return out;
}

/// Fresh user tokens for (user, turn) — an independent stream per pair so
/// conversations diverge after the shared system prompt.
inline std::vector<std::int32_t> chat_turn_tokens(const ChatWorkloadConfig& cfg,
                                                  std::size_t user,
                                                  std::size_t turn) {
  num::Rng rng(num::split_seed(cfg.seed, 1 + user * cfg.turns_per_user + turn));
  std::vector<std::int32_t> out(cfg.turn_prompt_tokens);
  for (auto& t : out) {
    t = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(cfg.vocab)));
  }
  return out;
}

/// First-turn prompt for `user`: shared system prompt + their opening tokens.
inline std::vector<std::int32_t> chat_first_prompt(const ChatWorkloadConfig& cfg,
                                                   std::size_t user) {
  std::vector<std::int32_t> prompt = chat_system_prompt(cfg);
  const std::vector<std::int32_t> turn = chat_turn_tokens(cfg, user, 0);
  prompt.insert(prompt.end(), turn.begin(), turn.end());
  return prompt;
}

/// Next-turn prompt: the full history (previous prompt + the reply the
/// engine actually produced) followed by the user's fresh tokens. The
/// history half is exactly what the prefix cache can serve from KV.
inline std::vector<std::int32_t> chat_next_prompt(
    const ChatWorkloadConfig& cfg, std::size_t user, std::size_t turn,
    std::span<const std::int32_t> prev_prompt,
    std::span<const std::int32_t> reply) {
  std::vector<std::int32_t> prompt(prev_prompt.begin(), prev_prompt.end());
  prompt.insert(prompt.end(), reply.begin(), reply.end());
  const std::vector<std::int32_t> turn_toks =
      chat_turn_tokens(cfg, user, turn);
  prompt.insert(prompt.end(), turn_toks.begin(), turn_toks.end());
  return prompt;
}

/// Median wall time of each of `fns`, in microseconds, over `rounds`
/// rounds that each call every fn once in turn: a host whose speed drifts
/// during the run then slows every fn alike, so their ratios stay put.
inline std::vector<double> time_interleaved_us(
    const std::vector<std::function<void()>>& fns, int rounds = 15) {
  std::vector<std::vector<double>> samples(fns.size());
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < fns.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      fns[i]();
      const auto t1 = std::chrono::steady_clock::now();
      samples[i].push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& s : samples) {
    std::sort(s.begin(), s.end());
    medians.push_back(s[s.size() / 2]);
  }
  return medians;
}

/// Median wall time of `fn` over `reps` runs, in microseconds.
inline double time_us(const std::function<void()>& fn, int reps = 5) {
  return time_interleaved_us({fn}, reps)[0];
}

/// Prints a separator + section header.
inline void section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Prints a row of labeled cells: label then fixed-width columns.
inline void row(const std::string& label,
                const std::vector<std::string>& cells,
                int label_width = 22, int cell_width = 11) {
  std::printf("%-*s", label_width, label.c_str());
  for (const auto& c : cells) std::printf("%*s", cell_width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

/// Human-readable context length ("64K" etc.).
inline std::string klen(std::size_t n) {
  if (n % 1024 == 0) return std::to_string(n / 1024) + "K";
  return std::to_string(n);
}

/// Latency distribution snapshot in the samples' own unit, computed
/// through the serving stack's histogram type (obs::Histogram on the
/// default_summary_buckets ladder) rather than ad-hoc sorted-vector math —
/// the percentile a bench prints is the estimate an operator would read
/// off the equivalent /metrics buckets with histogram_quantile(), within
/// the ladder's ~2% bucket width.
struct LatencySummary {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  std::size_t count = 0;

  static LatencySummary from(const std::vector<double>& samples) {
    obs::Histogram h(obs::default_summary_buckets());
    for (const double x : samples) h.observe(x);
    return from(h);
  }

  /// Snapshot of a live histogram (e.g. one the bench registered and a
  /// /metrics scrape also exports).
  static LatencySummary from(const obs::Histogram& h) {
    LatencySummary s;
    s.count = h.count();
    if (s.count == 0) return s;
    s.p50 = h.quantile(0.5);
    s.p95 = h.quantile(0.95);
    s.p99 = h.quantile(0.99);
    s.mean = h.mean();  // exact: tracked as sum/count, not from buckets.
    return s;
  }
};

/// Per-decode-step host-side serving overhead (Python dispatch, sampling,
/// scheduling) common to every PyTorch-based system in the comparison.
/// Calibrated from the artifact's Table 7: LServe's published 64K latency
/// (11.49 ms) minus its modeled kernel time. Added identically to every
/// system in end-to-end decode comparisons (Fig 10, Tables 5/7); kernel-
/// level figures (14/15/16) exclude it, as the paper's do.
inline constexpr double kHostOverheadUs = 9000.0;

/// The paper's system lineup with our cost-model policies.
struct System {
  std::string name;
  cost::ServingPolicy policy;
};

inline std::vector<System> decode_lineup() {
  return {{"vLLM", cost::vllm_policy()},
          {"QServe", cost::qserve_policy()},
          {"MInference", cost::minference_policy()},  // dense decode
          {"DuoAttention", cost::duo_attention_policy()},
          {"LServe", cost::lserve_policy()}};
}

/// KV-cache device bytes for OOM detection in Fig 10/Table 5.
inline double kv_bytes(const model::ModelConfig& m,
                       const cost::ServingPolicy& p, std::size_t seq,
                       std::size_t batch) {
  const double streaming =
      p.streaming_fraction *
      static_cast<double>(
          cost::streaming_head_kv_tokens(p, seq));
  const double dense = (1.0 - p.streaming_fraction) * static_cast<double>(seq);
  const double tokens_per_head = streaming + dense;
  return static_cast<double>(batch) * m.layers * m.kv_heads *
         tokens_per_head * m.head_dim * 2.0 *
         num::bytes_per_element(p.kv_dtype);
}

}  // namespace lserve::bench

#endif  // LSERVE_BENCH_COMMON_HPP_
