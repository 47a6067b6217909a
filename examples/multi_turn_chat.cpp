// Multi-turn chat serving: continuous batching plus cross-request KV reuse.
//
// Several users share one engine through the FCFS scheduler. Every
// conversation opens with the same system prompt, and each follow-up turn
// replays the whole history — the shape of traffic the radix prefix cache
// (kv/prefix_cache.hpp) exists for. The workload comes from the shared
// bench generator (bench/common.hpp); the cache is ON and the per-turn
// accounting shows follow-up prefills shrink to the fresh suffix.
//
// Run:  ./examples/multi_turn_chat
#include <cstdio>
#include <functional>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "common.hpp"
#include "serve/scheduler.hpp"

using namespace lserve;

int main() {
  serve::EngineConfig cfg = baselines::lserve_config(model::small());
  cfg.pool_pages = 2048;
  cfg.enable_prefix_cache = true;
  serve::Engine engine(cfg);

  // Offline head classification (DuoAttention-style gates measured on
  // synthetic calibration streams; see DESIGN.md).
  engine.calibrate_head_kinds();
  std::size_t streaming_heads = 0;
  for (auto kind : engine.head_kinds()) {
    streaming_heads += (kind == kv::HeadKind::kStreaming);
  }
  std::printf("calibrated %zu/%zu kv heads as streaming heads\n\n",
              streaming_heads, engine.head_kinds().size());

  serve::Scheduler scheduler(engine, /*max_batch=*/4);

  bench::ChatWorkloadConfig wl;
  wl.users = 3;
  wl.turns_per_user = 3;
  wl.system_prompt_tokens = 128;
  wl.turn_prompt_tokens = 24;
  wl.reply_tokens = 6;

  // Chain each user's turns through on_done: the next prompt is the full
  // history including the engine's actual reply, so follow-up turns hit
  // the prefix cache at (almost) their entire prompt.
  std::vector<std::vector<std::int32_t>> prompts(wl.users);
  std::function<void(std::size_t, std::size_t)> launch =
      [&](std::size_t user, std::size_t turn) {
        serve::Request req;
        req.prompt = prompts[user];
        req.max_new_tokens = wl.reply_tokens;
        req.on_done = [&, user, turn](const serve::RequestResult& r) {
          std::printf("user %zu turn %zu: prompt=%4zu tok, reply=", user,
                      turn, r.prompt_tokens);
          for (auto t : r.output) std::printf("%d ", t);
          std::printf("\n");
          if (turn + 1 < wl.turns_per_user) {
            prompts[user] = bench::chat_next_prompt(wl, user, turn + 1,
                                                    prompts[user], r.output);
            launch(user, turn + 1);
          }
        };
        scheduler.submit(std::move(req));
      };
  for (std::size_t u = 0; u < wl.users; ++u) {
    prompts[u] = bench::chat_first_prompt(wl, u);
    launch(u, 0);
  }

  std::size_t iterations = 0;
  while (scheduler.step()) ++iterations;

  const kv::PrefixCacheStats pc = engine.prefix_cache()->stats();
  std::printf(
      "\ncompleted %zu requests in %zu scheduler iterations\n"
      "prefix cache: %zu hits, %zu prompt tokens served from KV, "
      "%zu COW copies, %zu evictions\n"
      "pages: dense in use=%zu streaming in use=%zu "
      "(cache holds %zu for the next turn)\n",
      scheduler.results().size(), iterations, pc.hits, pc.tokens_reused,
      pc.cow_copies, pc.evictions, engine.dense_allocator().pages_in_use(),
      engine.stream_allocator().pages_in_use(), pc.pages_held);
  return 0;
}
