// Sequence state: one in-flight request's KV caches, position counters and
// per-sequence page-selection cache.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "kv/two_way_cache.hpp"
#include "sparse/reusable_selector.hpp"

namespace lserve::serve {

using SequenceId = std::size_t;
inline constexpr SequenceId kInvalidSequence = static_cast<SequenceId>(-1);

/// Lifecycle of a served request/sequence. The scheduler drives requests
/// through WAITING → PREFILLING → DECODING → FINISHED, with PREEMPTED as
/// the memory-pressure back edge (pages released, request re-queued to
/// prefill its prompt and re-decode its tokens, so PREEMPTED → WAITING)
/// and CANCELLED as the early terminal exit (cancel() or a deadline: pages
/// released like preemption, request not re-queued).
enum class SequencePhase : std::uint8_t {
  kWaiting = 0,     ///< queued/created; no tokens fed yet.
  kPrefilling = 1,  ///< mid incremental prefill (begin_prefill() called).
  kDecoding = 2,    ///< prefill complete; generating one token per step.
  kFinished = 3,    ///< hit max_new_tokens (or EOS in a real deployment).
  kPreempted = 4,   ///< released under memory pressure; awaiting re-admission.
  kCancelled = 5,   ///< cancelled or past deadline; pages released, terminal.
};

/// Per-sequence serving state. Owned by the engine; requests reference it
/// by SequenceId.
struct Sequence {
  Sequence(std::size_t layers, std::size_t kv_heads,
           std::vector<kv::HeadKind> kinds, kv::StreamingConfig streaming,
           std::size_t reuse_interval)
      : cache(layers, kv_heads, std::move(kinds), streaming),
        selector(layers * kv_heads, reuse_interval) {}

  kv::TwoWayKvCache cache;
  sparse::ReusableSelector selector;
  SequencePhase phase = SequencePhase::kWaiting;
  std::size_t position = 0;      ///< next absolute token position.
  std::size_t decode_step = 0;   ///< decode steps taken (reuse chunking).
  std::size_t prefill_remaining = 0;  ///< prompt tokens still owed mid-prefill.
  std::int32_t last_token = -1;  ///< most recent generated token id.
  std::vector<std::int32_t> generated;
};

}  // namespace lserve::serve
