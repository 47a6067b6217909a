// Pluggable decode-stage attention policies (ROADMAP item 1).
//
// The engine's hybrid pipeline has exactly one per-step degree of freedom:
// whether the dense (retrieval) heads run with dynamic page selection or
// read the full context. Streaming heads are a *storage* policy — their
// evicted pages cannot come back — so a runtime gate can only flip the
// retrieval-head route. AttentionPolicy encapsulates that decision:
// StaticAttentionPolicy pins it, and CostModelGatedPolicy consults
// src/costmodel's crossover query so short contexts decode dense and long
// contexts run the configured hybrid pipeline — the paper's
// cost-model-driven gating.
//
// The invariant the conformance harness (tests/attention_policy_test.cpp)
// locks down: route() depends ONLY on the context length, never on thread
// id, scheduling order, or wall-clock — so gated decode is bit-identical
// to whichever ungated policy it selects, across 1/2/8 decode threads,
// preemption replay (the replayed sequence revisits the same context
// lengths), and prefix-cache attach (which changes how a context was
// built, not how long it is).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace lserve::cost {
struct GpuSpec;
struct ServingPolicy;
}  // namespace lserve::cost

namespace lserve::serve {

struct EngineConfig;

/// Which decode-attention variant a step runs on the dense heads.
enum class AttentionRoute : std::uint8_t {
  kDense = 0,   ///< no pruning: dense heads read the full context.
  kSparse = 1,  ///< as configured: dynamic page selection (when enabled).
};

const char* to_string(AttentionRoute route) noexcept;

/// Per-step routing decision for one sequence's decode attention.
class AttentionPolicy {
 public:
  virtual ~AttentionPolicy() = default;

  virtual const std::string& name() const noexcept = 0;

  /// Route for a decode step whose attention spans `context_tokens` cached
  /// tokens (the sequence position *after* the step's KV append). Must be
  /// a pure function of `context_tokens` — the bit-identity contract
  /// across threads and preemption replay depends on it.
  virtual AttentionRoute route(std::size_t context_tokens) const noexcept = 0;
};

/// Fixed-route policy: what every baseline preset is. kSparse means "run
/// exactly what the EngineConfig asks for" (today's behavior, and a no-op
/// for presets without dynamic decode); kDense forces pruning off.
class StaticAttentionPolicy final : public AttentionPolicy {
 public:
  StaticAttentionPolicy(std::string name, AttentionRoute route)
      : name_(std::move(name)), route_(route) {}

  const std::string& name() const noexcept override { return name_; }
  AttentionRoute route(std::size_t) const noexcept override { return route_; }

 private:
  std::string name_;
  AttentionRoute route_;
};

/// Cost-model gate: dense below the modeled crossover length, the
/// configured hybrid pipeline at or past it. The crossover is resolved
/// once (cost::crossover_tokens memoizes per spec/model/policy/batch), so
/// route() on the decode path is a single comparison.
class CostModelGatedPolicy final : public AttentionPolicy {
 public:
  /// `crossover`: first context length at which sparse decode is strictly
  /// cheaper than dense (cost::kNoCrossover pins the route to dense).
  CostModelGatedPolicy(std::string name, std::size_t crossover)
      : name_(std::move(name)), crossover_(crossover) {}

  const std::string& name() const noexcept override { return name_; }
  AttentionRoute route(std::size_t context_tokens) const noexcept override {
    return context_tokens >= crossover_ ? AttentionRoute::kSparse
                                        : AttentionRoute::kDense;
  }

  std::size_t crossover() const noexcept { return crossover_; }

 private:
  std::string name_;
  std::size_t crossover_;
};

/// "Run as configured" — the default route when no policy is attached.
std::shared_ptr<const AttentionPolicy> always_sparse_policy();
/// Force full-context reads on the dense heads regardless of config.
std::shared_ptr<const AttentionPolicy> always_dense_policy();

/// Maps an EngineConfig onto the cost model's policy description (the
/// fields decode_step_cost needs; weight quantization is not modeled by
/// the CPU substrate and cancels out of the sparse-vs-dense delta).
cost::ServingPolicy cost_policy_from(const EngineConfig& cfg);

/// Builds the gate for `cfg` served on `spec` at decode batch size
/// `batch`: queries cost::crossover_tokens over cost_policy_from(cfg).
std::shared_ptr<const CostModelGatedPolicy> make_cost_model_gated_policy(
    const cost::GpuSpec& spec, const EngineConfig& cfg, std::size_t batch);

}  // namespace lserve::serve
