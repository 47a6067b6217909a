// End-to-end pipeline cost model: composes the per-kernel rooflines into
// per-decode-step latency and prefill TTFT for a full serving
// configuration. Regenerates the paper-scale efficiency experiments
// (Figs 2/10/11/14/15/16, Tables 1/5/7) without a GPU; DESIGN.md §2
// documents this substitution.
#pragma once

#include <cstddef>

#include "costmodel/gpu_spec.hpp"
#include "model/model_config.hpp"
#include "numeric/quant.hpp"

namespace lserve::cost {

/// Serving-policy description, mirroring serve::EngineConfig at the level
/// of detail the cost model needs.
struct ServingPolicy {
  num::KvDtype kv_dtype = num::KvDtype::kFp16;
  std::size_t page_size = 32;          ///< NP.
  std::size_t logical_page_size = 32;  ///< NL.
  double streaming_fraction = 0.0;     ///< fraction of kv heads streaming.
  std::size_t sink_tokens = 64;
  std::size_t local_tokens = 256;
  bool dynamic_decode = false;         ///< page pruning on dense heads.
  std::size_t token_budget = 4096;
  std::size_t reuse_interval = 1;      ///< selector reuse chunk C.
  bool skip_selector_when_covered = true;  ///< no selection if S <= budget.
  bool dynamic_prefill = false;        ///< MInference-style prefill mask.
  double prefill_kept_fraction = 1.0;  ///< kept tile fraction on dense heads.
  int weight_bits = 16;                ///< 4 for QServe/LServe W4.
};

/// Named policy presets matching baselines/baseline_engines.hpp.
ServingPolicy lserve_policy();
ServingPolicy vllm_policy();
ServingPolicy qserve_policy();
ServingPolicy duo_attention_policy();
ServingPolicy quest_policy();
ServingPolicy minference_policy();

/// Per-stage latency decomposition, microseconds.
struct StageBreakdown {
  double attention_us = 0.0;
  double gemm_us = 0.0;
  double selector_us = 0.0;
  double other_us = 0.0;

  double total_us() const noexcept {
    return attention_us + gemm_us + selector_us + other_us;
  }
};

/// Latency of ONE decode step for the whole model at context length
/// `seq_len` and batch size `batch`.
StageBreakdown decode_step_cost(const GpuSpec& spec,
                                const model::ModelConfig& m,
                                const ServingPolicy& p, std::size_t seq_len,
                                std::size_t batch);

/// Latency of prefilling `n_tokens` (TTFT) for the whole model.
StageBreakdown prefill_cost(const GpuSpec& spec, const model::ModelConfig& m,
                            const ServingPolicy& p, std::size_t n_tokens,
                            std::size_t batch);

/// Decode attention of a SINGLE layer (Fig 15's unit), microseconds,
/// including amortized selector cost.
double decode_attention_layer_us(const GpuSpec& spec,
                                 const model::ModelConfig& m,
                                 const ServingPolicy& p, std::size_t seq_len,
                                 std::size_t batch);

/// KV tokens actually read per dense head at context `seq_len`.
std::size_t dense_head_kv_tokens(const ServingPolicy& p,
                                 std::size_t seq_len) noexcept;

/// KV tokens read per streaming head (sink + local, page-rounded).
std::size_t streaming_head_kv_tokens(const ServingPolicy& p,
                                     std::size_t seq_len) noexcept;

/// `p` with decode-stage page pruning disabled: dense heads read the full
/// context and no selector runs. The streaming-head split is untouched —
/// it is a storage policy (evicted pages are gone), not a per-step choice,
/// so this is exactly the "dense route" a runtime gate can flip to.
ServingPolicy dense_decode_variant(const ServingPolicy& p) noexcept;

/// Sentinel for crossover_tokens(): sparse decode never strictly beats
/// dense within the search bound (e.g. p.dynamic_decode is false).
inline constexpr std::size_t kNoCrossover = static_cast<std::size_t>(-1);

/// Smallest context length (tokens) at which one decode step under `p`
/// (dynamic page selection active) is strictly cheaper than under
/// dense_decode_variant(p). Below the token budget selection reads the
/// same tokens as dense, so the crossover always lands past the budget,
/// where the selector's amortized scoring pass costs less than the extra
/// full-context KV reads it prunes. Results are memoized per
/// (spec, model, policy, batch) — the per-step gate's repeated queries
/// are table lookups (thread-safe).
std::size_t crossover_tokens(const GpuSpec& spec, const model::ModelConfig& m,
                             const ServingPolicy& p, std::size_t batch);

}  // namespace lserve::cost
