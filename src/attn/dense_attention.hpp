// Reference attention.
//
// These are the trusted oracles every sparse kernel is tested against. The
// prefill variants are naive O(N^2) row-softmax implementations: causal
// dense and the token-granular Λ (streaming) mask, which offline head
// calibration also runs. The decode variant walks a full paged KV history.
#pragma once

#include <cstddef>

#include "kv/kv_cache.hpp"
#include "kv/page_allocator.hpp"
#include "numeric/tensor.hpp"

namespace lserve::attn {

/// Causal dense prefill for one head.
/// q, k, v are [n_tokens x head_dim]; out is [n_tokens x head_dim].
/// `scale` is typically 1/sqrt(head_dim).
void dense_prefill_reference(num::ConstMatView q, num::ConstMatView k,
                             num::ConstMatView v, float scale,
                             num::MatView out);

/// Token-granular Λ reference for one head: row i attends to keys j <= i
/// with (j < sink_tokens) or (j + local_tokens > i).
void streaming_prefill_reference(num::ConstMatView q, num::ConstMatView k,
                                 num::ConstMatView v, std::size_t sink_tokens,
                                 std::size_t local_tokens, float scale,
                                 num::MatView out);

/// Dense decode for one head over the full paged history: the current
/// query attends to all `head.tokens()` cached tokens.
/// `out` receives head_dim floats; if `lse_out` is non-null it receives the
/// log-sum-exp of the scores (used by accuracy metrics).
void dense_paged_decode(const kv::PageAllocator& alloc,
                        const kv::HeadCache& head, const float* q,
                        std::size_t head_dim, float scale, float* out,
                        float* lse_out = nullptr);

}  // namespace lserve::attn
