#include "serve/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace lserve::serve {
namespace {

/// Replay oracle: re-decoding a preempted request's restored output must
/// reproduce it token for token. LSERVE_AUDIT builds abort on a mismatch,
/// like the decode walk's newest-block audit; other builds trust the replay.
void audit_replayed_token(std::uint64_t request_id, std::size_t index,
                          std::int32_t recorded, std::int32_t token) {
  if (!kv::kAuditEnabled || token == recorded) return;
  std::fprintf(stderr,
               "[lserve audit] request %llu: replay produced token %d at "
               "index %zu where the original run produced %d\n",
               static_cast<unsigned long long>(request_id), token, index,
               recorded);
  std::abort();
}

}  // namespace

const char* to_string(RequestStatus status) noexcept {
  switch (status) {
    case RequestStatus::kFinished:
      return "FINISHED";
    case RequestStatus::kCancelled:
      return "CANCELLED";
    case RequestStatus::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
  }
  return "UNKNOWN";
}

Scheduler::Scheduler(Engine& engine, SchedulerConfig cfg)
    : engine_(engine), cfg_(std::move(cfg)) {
  if (cfg_.max_batch == 0) cfg_.max_batch = 1;
  if (cfg_.decode_threads != 1) {
    pool_ = std::make_unique<ThreadPool>(cfg_.decode_threads);
  }
  // The scheduler carries the policy handle to the engine; route choices
  // themselves happen inside Engine::decode_batch, per step per sequence.
  if (cfg_.policy != nullptr) {
    engine_.set_attention_policy(cfg_.policy);
  }
  metrics_ = cfg_.metrics;
  tracer_ = cfg_.tracer;
  if (metrics_ != nullptr || tracer_ != nullptr) {
    clock_ = cfg_.clock != nullptr
                 ? cfg_.clock
                 : std::make_shared<const obs::MonotonicClock>();
  }
  if (metrics_ != nullptr) {
    register_metrics();
    publish_step_metrics();  // gauges are valid before the first step.
  }
#if LSERVE_AUDIT_ENABLED
  // Pages the prefix cache holds are intentional steady-state occupancy,
  // not a leak; the quiescence check discounts them on both sides.
  audit_baseline_pages_ =
      engine_.total_pages_in_use() - engine_.prefix_cache_pages_held();
#endif
}

void Scheduler::register_metrics() {
  obs::MetricsRegistry& r = *metrics_;
  const std::vector<double> lat = obs::default_latency_buckets_seconds();
  m_.queue_wait = &r.histogram(
      "lserve_request_queue_wait_seconds",
      "Wall time from submit() to first admission into the batch.", lat);
  m_.ttft = &r.histogram(
      "lserve_request_ttft_seconds",
      "Wall time from submit() to the first generated token.", lat);
  m_.tpot = &r.histogram(
      "lserve_request_tpot_seconds",
      "Wall time between consecutive generated tokens of one request "
      "(includes preemption stalls, as a streaming client observes them).",
      lat);
  m_.e2e = &r.histogram(
      "lserve_request_e2e_seconds",
      "Wall time from submit() to the terminal result (any status).", lat);
  m_.submitted = &r.counter("lserve_requests_submitted_total",
                            "Requests accepted by submit().");
  m_.finished = &r.counter("lserve_requests_finished_total",
                           "Requests that produced max_new_tokens.");
  m_.cancelled = &r.counter("lserve_requests_cancelled_total",
                            "Requests terminated by cancel().");
  m_.deadline_exceeded =
      &r.counter("lserve_requests_deadline_exceeded_total",
                 "Requests terminated by a step-count deadline.");
  m_.steps = &r.counter("lserve_scheduler_steps_total",
                        "Scheduler iterations (Scheduler::step calls).");
  m_.preemptions =
      &r.counter("lserve_preemptions_total",
                 "Sequences released under memory pressure and re-queued.");
  m_.deferrals = &r.counter(
      "lserve_admission_deferrals_total",
      "Steps on which the front request did not fit the page budget.");
  m_.prefill_chunks = &r.counter("lserve_prefill_chunks_total",
                                 "Prefill chunks scheduled (at most one "
                                 "per step).");
  m_.prefix_hits = &r.counter(
      "lserve_prefix_hits_total",
      "Admissions that attached a cached prefix from the radix cache.");
  m_.prefix_tokens =
      &r.counter("lserve_prefix_tokens_reused_total",
                 "Prompt tokens skipped at admission via the prefix cache.");
  m_.route_dense = &r.counter(
      "lserve_decode_route_steps_total{route=\"dense\"}",
      "Per-sequence decode steps routed dense vs. sparse by the attention "
      "policy.");
  m_.route_sparse = &r.counter(
      "lserve_decode_route_steps_total{route=\"sparse\"}",
      "Per-sequence decode steps routed dense vs. sparse by the attention "
      "policy.");
  m_.seq_running = &r.gauge("lserve_sequences_running",
                            "Sequences admitted to the batch (prefilling "
                            "or decoding).");
  m_.seq_waiting = &r.gauge("lserve_sequences_waiting",
                            "Requests queued behind admission control.");
  m_.requests_live = &r.gauge(
      "lserve_requests_live",
      "Requests submitted but not yet terminal (includes inbox).");
  m_.pages_in_use = &r.gauge("lserve_kv_pages_in_use",
                             "KV pages allocated across both engine pools.");
  m_.pages_free = &r.gauge("lserve_kv_pages_free",
                           "KV pages on the free lists of both engine "
                           "pools (the pools still grow on demand).");
  m_.pages_capacity = &r.gauge("lserve_kv_pages_capacity",
                               "KV page slots created across both engine "
                               "pools.");
  m_.prefix_pages = &r.gauge("lserve_prefix_cache_pages_held",
                             "KV pages pinned by the radix prefix cache.");
  m_.pages_hot = &r.gauge(
      "lserve_kv_pages_hot",
      "KV pages resident in the hot (RAM) tier across both pools.");
  m_.pages_cold = &r.gauge(
      "lserve_kv_pages_cold",
      "KV pages demoted to the cold spill tier (dense pool).");
  m_.cold_bytes = &r.gauge("lserve_kv_cold_bytes",
                           "Bytes occupied in the cold spill store.");
  m_.tier_demotions =
      &r.counter("lserve_tier_demotions_total",
                 "Pages serialized out of the hot pool into the cold tier.");
  m_.tier_pin_promotions = &r.counter(
      "lserve_tier_pin_promotions_total",
      "Cold pages promoted synchronously on a pin miss (prefetch missed).");
  m_.tier_prefetch_promotions = &r.counter(
      "lserve_tier_prefetch_promotions_total",
      "Cold pages promoted by the prefetcher before any pin needed them.");
  m_.tier_prefetch_requests =
      &r.counter("lserve_tier_prefetch_requests_total",
                 "Cold pages enqueued for asynchronous promotion.");
}

void Scheduler::publish_step_metrics() {
  if (metrics_ == nullptr) return;
  m_.seq_running->set(static_cast<double>(running_.size()));
  m_.seq_waiting->set(static_cast<double>(waiting_.size()));
  m_.requests_live->set(static_cast<double>(live_requests()));
  const kv::PageAllocator::Occupancy occ = engine_.pool_occupancy();
  m_.pages_in_use->set(static_cast<double>(occ.in_use));
  m_.pages_free->set(static_cast<double>(occ.free));
  m_.pages_capacity->set(static_cast<double>(occ.capacity));
  m_.pages_hot->set(static_cast<double>(occ.hot_in_use));
  m_.pages_cold->set(static_cast<double>(occ.cold_in_use));
  // Counters whose owner sits below the scheduler are raised to the
  // owner's cumulative total. Exact because each registry serves one
  // scheduler (one engine), and owners only ever count up.
  const auto raise_to = [](obs::Counter* c, std::uint64_t total) {
    assert(total >= c->value());
    c->inc(total - c->value());
  };
  const kv::PrefixCacheStats prefix = engine_.prefix_cache() == nullptr
                                          ? kv::PrefixCacheStats{}
                                          : engine_.prefix_cache()->stats();
  raise_to(m_.prefix_hits, prefix.hits);
  raise_to(m_.prefix_tokens, prefix.tokens_reused);
  m_.prefix_pages->set(static_cast<double>(prefix.pages_held));
  const EngineStats& es = engine_.stats();
  raise_to(m_.route_dense, es.decode_dense_steps);
  raise_to(m_.route_sparse, es.decode_sparse_steps);
  const kv::TierStats tier = engine_.tier_stats();
  m_.cold_bytes->set(static_cast<double>(tier.cold_bytes_in_use));
  raise_to(m_.tier_demotions, tier.demotions);
  raise_to(m_.tier_pin_promotions, tier.pin_promotions);
  raise_to(m_.tier_prefetch_promotions, tier.prefetch_promotions);
  raise_to(m_.tier_prefetch_requests, tier.prefetch_requests);
}

Scheduler::Scheduler(Engine& engine, std::size_t max_batch,
                     std::size_t decode_threads)
    : Scheduler(engine,
                SchedulerConfig{max_batch, decode_threads,
                                /*memory=*/{},
                                /*default_deadline_steps=*/0,
                                /*policy=*/nullptr,
                                /*metrics=*/nullptr,
                                /*tracer=*/nullptr,
                                /*clock=*/nullptr}) {}

std::uint64_t Scheduler::submit(Request req) {
  if (req.prompt.empty()) {
    throw std::invalid_argument("Scheduler::submit: empty prompt");
  }
  std::uint64_t id = 0;
  {
    MutexLock lock(mu_);
    if (req.request_id == 0) {
      req.request_id = next_id_++;
    } else {
      if (live_ids_.count(req.request_id) != 0) {
        throw std::invalid_argument(
            "Scheduler::submit: request_id collides with an in-flight "
            "request");
      }
      // Never auto-assign an id at or below a user-supplied one.
      next_id_ = std::max(next_id_, req.request_id + 1);
    }
    id = req.request_id;
    live_ids_.insert(id);
    Pending pend;
    pend.req = std::move(req);
    // Wall-clock submit stamp for queue-wait/TTFT/e2e. now_ns() and the
    // counter bump are both safe off the scheduler thread (atomic reads/
    // adds); mu_ stays a leaf lock either way.
    if (metrics_ != nullptr) pend.submit_ns = now_ns();
    submit_inbox_.push_back(std::move(pend));
  }
  if (metrics_ != nullptr) m_.submitted->inc();
  work_cv_.notify_all();
  return id;
}

bool Scheduler::cancel(std::uint64_t request_id, RequestStatus status) {
  if (status == RequestStatus::kFinished) {
    throw std::invalid_argument(
        "Scheduler::cancel: kFinished is not a cancellation status");
  }
  {
    MutexLock lock(mu_);
    if (live_ids_.count(request_id) == 0) return false;
    cancel_inbox_.emplace_back(request_id, status);
  }
  work_cv_.notify_all();
  return true;
}

void Scheduler::request_stop() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
}

bool Scheduler::stop_requested() const {
  MutexLock lock(mu_);
  return stop_;
}

std::size_t Scheduler::live_requests() const {
  MutexLock lock(mu_);
  return live_ids_.size();
}

bool Scheduler::wait_for_work(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mu_);
  // Explicit condition loop (not a predicate overload) so the analyzer
  // sees every guarded read under the lock; see thread_annotations.hpp.
  while (!stop_ && submit_inbox_.empty() && cancel_inbox_.empty()) {
    if (work_cv_.wait_until(mu_, deadline) == std::cv_status::timeout) {
      break;
    }
  }
  return !stop_ && (!submit_inbox_.empty() || !cancel_inbox_.empty());
}

void Scheduler::drain_inboxes(
    std::vector<std::pair<std::uint64_t, RequestStatus>>& cancels) {
  MutexLock lock(mu_);
  while (!submit_inbox_.empty()) {
    Pending pend = std::move(submit_inbox_.front());
    submit_inbox_.pop_front();
    // "Steps completed when submitted": the request was handed over
    // before the current step began, so it is one behind the counter the
    // caller of step() just incremented. Single-threaded callers get the
    // exact pre-inbox semantics; cross-thread callers get a stamp that
    // never races the step counter.
    pend.submit_step = stats_.steps - 1;
    waiting_.push_back(std::move(pend));
  }
  cancels.swap(cancel_inbox_);
}

std::size_t Scheduler::effective_deadline(
    const Pending& pend) const noexcept {
  return pend.req.deadline_steps != 0 ? pend.req.deadline_steps
                                      : cfg_.default_deadline_steps;
}

void Scheduler::finish(Pending pend, std::vector<std::int32_t> output,
                       RequestStatus status) {
  // Tokens restored by a preemption replay can still be undelivered here
  // (preemption runs before the step's delivery pass); stream them now so
  // the terminal result never reports a token on_token did not see.
  if (pend.req.on_token) {
    for (std::size_t i = pend.delivered; i < output.size(); ++i) {
      pend.req.on_token(pend.req.request_id, output[i], i);
    }
  }
  RequestResult result;
  result.request_id = pend.req.request_id;
  result.status = status;
  result.prompt_tokens = pend.req.prompt.size();
  result.decode_steps = output.empty() ? 0 : output.size() - 1;
  result.preemptions = pend.preemptions;
  result.submit_step = pend.submit_step;
  result.first_token_step = pend.first_token_step;
  result.finish_step = stats_.steps;
  result.output = std::move(output);
  switch (status) {
    case RequestStatus::kFinished:
      break;
    case RequestStatus::kCancelled:
      ++stats_.cancelled;
      break;
    case RequestStatus::kDeadlineExceeded:
      ++stats_.deadline_exceeded;
      break;
  }
  if (metrics_ != nullptr) {
    m_.e2e->observe(static_cast<double>(now_ns() - pend.submit_ns) * 1e-9);
    switch (status) {
      case RequestStatus::kFinished:
        m_.finished->inc();
        break;
      case RequestStatus::kCancelled:
        m_.cancelled->inc();
        break;
      case RequestStatus::kDeadlineExceeded:
        m_.deadline_exceeded->inc();
        break;
    }
  }
  const std::uint64_t id = pend.req.request_id;
  results_.push_back(std::move(result));
  if (pend.req.on_done) {
    // No lock held: the callback may call submit()/cancel() freely.
    pend.req.on_done(results_.back());
  }
  // The id stays live until after on_done returns, so a caller that
  // watches live_requests() reach zero (e.g. HttpServer::stop) knows
  // every terminal callback has already run. A collision re-submit of
  // the same id is therefore still rejected from inside its own on_done.
  MutexLock lock(mu_);
  live_ids_.erase(id);
}

void Scheduler::insert_prefix(const Running& run) {
  // Only the PREFILLED extent is attachable prefix: prompt tokens up to
  // the sequence position (all of them once prefill completed, a prefix
  // when preempted/cancelled mid-prefill). Tokens appended during decode
  // are deliberately excluded — the sparse decode path writes numerically
  // different K/V than a prefill of the same token would (different
  // sparsity policy feeds different hidden states at deeper layers), so
  // caching them would break bit-exactness against a cold prefill. A
  // finished turn's reply becomes cacheable on the NEXT turn, when it is
  // part of that request's prefilled prompt.
  const std::vector<std::int32_t>& prompt = run.pend.req.prompt;
  const std::size_t prefilled =
      std::min(engine_.sequence(run.seq).position, prompt.size());
  if (prefilled == 0) return;
  obs::StepTraceBuilder::Span span = step_trace_.span("prefix_insert");
  engine_.insert_prefix(
      run.seq, std::span<const std::int32_t>(prompt.data(), prefilled));
}

void Scheduler::terminate_running(std::size_t slot, RequestStatus status) {
  Running run = std::move(running_[slot]);
  running_[slot] = std::move(running_.back());
  running_.pop_back();
  // Pages are reclaimed exactly like preemption, but the request is
  // terminal instead of re-queued. Its KV is still valid prefix state —
  // insert it into the prefix cache before the release frees it.
  insert_prefix(run);
  engine_.sequence(run.seq).phase = SequencePhase::kCancelled;
  engine_.release_sequence(run.seq);
  finish(std::move(run.pend), std::move(run.output), status);
}

void Scheduler::apply_cancellations(
    const std::vector<std::pair<std::uint64_t, RequestStatus>>& cancels) {
  for (const auto& [id, status] : cancels) {
    bool handled = false;
    for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
      if (it->req.request_id != id) continue;
      Pending pend = std::move(*it);
      waiting_.erase(it);
      std::vector<std::int32_t> output = std::move(pend.resumed);
      finish(std::move(pend), std::move(output), status);
      handled = true;
      break;
    }
    if (handled) continue;
    for (std::size_t i = 0; i < running_.size(); ++i) {
      if (running_[i].pend.req.request_id != id) continue;
      terminate_running(i, status);
      break;
    }
    // Not found: the request went terminal between cancel() and this step
    // boundary — nothing to do.
  }
}

void Scheduler::enforce_deadlines() {
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    const std::size_t d = effective_deadline(*it);
    if (d != 0 && stats_.steps - it->submit_step > d) {
      Pending pend = std::move(*it);
      it = waiting_.erase(it);
      std::vector<std::int32_t> output = std::move(pend.resumed);
      finish(std::move(pend), std::move(output),
             RequestStatus::kDeadlineExceeded);
    } else {
      ++it;
    }
  }
  for (std::size_t i = 0; i < running_.size();) {
    const std::size_t d = effective_deadline(running_[i].pend);
    if (d != 0 && stats_.steps - running_[i].pend.submit_step > d) {
      terminate_running(i, RequestStatus::kDeadlineExceeded);
    } else {
      ++i;
    }
  }
}

void Scheduler::deliver_tokens(Running& run) {
  if (!run.pend.req.on_token) {
    run.pend.delivered = run.output.size();
    return;
  }
  while (run.pend.delivered < run.output.size()) {
    const std::size_t index = run.pend.delivered;
    run.pend.req.on_token(run.pend.req.request_id, run.output[index], index);
    ++run.pend.delivered;
  }
}

void Scheduler::admit() {
  while (running_.size() < cfg_.max_batch && !waiting_.empty()) {
    // KV-memory admission control: the front request's worst-case
    // footprint (prompt + max_new_tokens, across both pools) must fit on
    // top of current occupancy. FCFS — no skipping past a deferred
    // request. When nothing is running the front request is admitted
    // unconditionally (the budget is soft; the pool grows on demand), so
    // an over-budget request runs solo instead of deadlocking the queue.
    const Pending& front = waiting_.front();
    if (cfg_.memory.page_budget > 0 && !running_.empty()) {
      // A prefix-cache hit's footprint counts only the uncached suffix:
      // the shared pages are already in pool occupancy, so the budget
      // admits more concurrent sequences under the same ceiling.
      const std::size_t cached = engine_.prefix_match_tokens(front.req.prompt);
      const std::size_t need =
          engine_
              .estimate_request_pages(
                  front.req.prompt.size() + front.req.max_new_tokens, cached)
              .total();
      // Reserve one step of worst-case decode growth for the sequences
      // already running — the same term preempt_for_memory() enforces —
      // so a freshly admitted request is not immediately preempted back
      // out (admit/preempt thrash that would discard its prefill work).
      const std::size_t decoding = static_cast<std::size_t>(
          std::count_if(running_.begin(), running_.end(),
                        [](const Running& run) { return run.decoding(); }));
      const std::size_t headroom = decoding * engine_.decode_step_page_bound();
      // Under tiering the budget charges hot-resident pages only: cold
      // pages occupy spill-file bytes, not pool RAM, so demoted history
      // does not block fresh admissions. Untiered, hot == total.
      if (engine_.hot_pages_in_use() + headroom + need >
          cfg_.memory.page_budget) {
        // Before deferring, try to make room out of the prefix cache:
        // evicting unreferenced cache entries is strictly cheaper than
        // stalling admission.
        const std::size_t deficit = engine_.hot_pages_in_use() + headroom +
                                    need - cfg_.memory.page_budget;
        engine_.reclaim_prefix_pages(deficit);
        if (engine_.hot_pages_in_use() + headroom + need >
            cfg_.memory.page_budget) {
          ++stats_.deferred_admissions;
          if (metrics_ != nullptr) m_.deferrals->inc();
          break;
        }
      }
    }
    Running run;
    run.pend = std::move(waiting_.front());
    waiting_.pop_front();
    if (metrics_ != nullptr && !run.pend.queue_wait_recorded) {
      // First admission only: a preempted request's re-admission is not a
      // queue wait the client can see (its stall lands in TPOT instead).
      m_.queue_wait->observe(
          static_cast<double>(now_ns() - run.pend.submit_ns) * 1e-9);
      run.pend.queue_wait_recorded = true;
    }
    // A preempted request carries its output back in; the decode batch
    // re-decodes it after the prompt prefill (see `Running::decoded`).
    run.output = std::move(run.pend.resumed);
    run.seq = engine_.create_sequence();
    // Attach the cached prefix (no-op without a prefix cache): prefill
    // resumes at the first uncached token, which is what turns a shared
    // prefix into a TTFT win.
    {
      obs::StepTraceBuilder::Span span = step_trace_.span("prefix_attach");
      run.prefill_pos = engine_.attach_prefix(run.seq, run.pend.req.prompt);
    }
    engine_.begin_prefill(run.seq, run.pend.req.prompt.size());
    run.phase = SequencePhase::kPrefilling;
    run.admit_order = admit_counter_++;
    ++stats_.admitted;
    running_.push_back(std::move(run));
  }
}

void Scheduler::advance_prefill() {
  // At most one prefill chunk per iteration, for the oldest-admitted
  // prefilling sequence, so prefill work is rationed against the decode
  // batch instead of monopolizing the step.
  Running* target = nullptr;
  for (Running& run : running_) {
    if (run.phase != SequencePhase::kPrefilling) continue;
    if (target == nullptr || run.admit_order < target->admit_order) {
      target = &run;
    }
  }
  if (target == nullptr) return;

  obs::StepTraceBuilder::Span span = step_trace_.span("prefill_chunk");
  const std::vector<std::int32_t>& prompt = target->pend.req.prompt;
  const std::size_t chunk = engine_.config().prefill_chunk_tokens;
  const std::size_t remaining = prompt.size() - target->prefill_pos;
  const std::size_t count = chunk == 0 ? remaining : std::min(chunk, remaining);
  const std::span<const std::int32_t> ids(prompt.data() + target->prefill_pos,
                                          count);
  const std::size_t left =
      engine_.prefill_chunk(target->seq, ids, pool_.get());
  target->prefill_pos += count;
  ++stats_.prefill_chunks;
  if (metrics_ != nullptr) m_.prefill_chunks->inc();
  if (left > 0) return;

  const std::int32_t first = engine_.finish_prefill(target->seq);
  target->phase = SequencePhase::kDecoding;
  if (!target->output.empty()) {
    // A replay: the prompt's readout re-derives the restored output[0].
    audit_replayed_token(target->pend.req.request_id, 0, target->output[0],
                         first);
    return;
  }
  target->output.push_back(first);
  target->pend.first_token_step = stats_.steps;
  if (metrics_ != nullptr && !target->pend.ttft_recorded) {
    const std::uint64_t now = now_ns();
    m_.ttft->observe(static_cast<double>(now - target->pend.submit_ns) * 1e-9);
    target->pend.ttft_recorded = true;
    target->pend.last_token_ns = now;
  }
}

void Scheduler::preempt(std::size_t slot) {
  Running run = std::move(running_[slot]);
  running_[slot] = std::move(running_.back());
  running_.pop_back();
  // Insert before release: the re-admission's "recompute" prefill then
  // attaches this very KV back and recomputes almost nothing. (The cache
  // may in turn evict these entries if memory stays tight — attach is an
  // opportunity, not a reservation.)
  insert_prefix(run);
  engine_.sequence(run.seq).phase = SequencePhase::kPreempted;
  engine_.release_sequence(run.seq);

  Pending pend = std::move(run.pend);
  ++pend.preemptions;
  ++stats_.preemptions;
  if (metrics_ != nullptr) m_.preemptions->inc();
  // Recompute preemption: the output so far (restored tokens not yet
  // re-decoded included) comes back in at re-admission.
  pend.resumed = std::move(run.output);
  // Front of the queue: the preempted request re-admits first once memory
  // frees (FCFS among multiple preemptions — newest victims are pushed
  // first and end up behind earlier-admitted ones).
  waiting_.push_front(std::move(pend));
}

void Scheduler::preempt_for_memory() {
  if (cfg_.memory.page_budget == 0) return;
  const std::size_t bound = engine_.decode_step_page_bound();
  while (running_.size() > 1) {
    const std::size_t decoding = static_cast<std::size_t>(
        std::count_if(running_.begin(), running_.end(),
                      [](const Running& run) { return run.decoding(); }));
    if (decoding == 0) return;
    // Worst case, every decoding sequence crosses a page boundary on every
    // head this step; preempt until that fits under the budget (or only
    // one sequence is left — the oldest is never preempted, which
    // guarantees forward progress and a completing drain()).
    if (engine_.hot_pages_in_use() + decoding * bound <=
        cfg_.memory.page_budget) {
      return;
    }
    // Prefix-cache entries nobody references are the cheapest memory to
    // reclaim — evict them before sacrificing a running sequence's work.
    const std::size_t excess =
        engine_.hot_pages_in_use() + decoding * bound -
        cfg_.memory.page_budget;
    if (engine_.reclaim_prefix_pages(excess) > 0 &&
        engine_.hot_pages_in_use() + decoding * bound <=
            cfg_.memory.page_budget) {
      return;
    }
    std::size_t victim = 0;
    for (std::size_t i = 1; i < running_.size(); ++i) {
      if (running_[i].admit_order > running_[victim].admit_order) victim = i;
    }
    preempt(victim);
  }
}

bool Scheduler::step() {
  if (poisoned_) {
    throw std::logic_error(
        "Scheduler: a decode batch threw; sequences are mid-step and the "
        "engine cannot keep serving");
  }
  ++stats_.steps;
  // Telemetry envelope around the real step body: a fresh trace builder
  // (inactive when tracing is off), the step counter, gauge publication
  // after the body, and the trace commit. Nothing in here feeds back into
  // step_impl()'s decisions — metrics-on and metrics-off drains are
  // bit-identical.
  step_trace_ = obs::StepTraceBuilder(
      tracer_ == nullptr ? nullptr : clock_.get(), stats_.steps);
  if (metrics_ != nullptr) m_.steps->inc();
  const bool more = step_impl();
  publish_step_metrics();
  if (tracer_ != nullptr) tracer_->commit(step_trace_.finish());
  return more;
}

bool Scheduler::step_impl() {
  // Step boundary: splice cross-thread submissions in, then apply
  // cancellations and deadlines before any new engine work is scheduled
  // (a cancelled request never costs another decode step).
  {
    obs::StepTraceBuilder::Span span = step_trace_.span("admit");
    std::vector<std::pair<std::uint64_t, RequestStatus>> cancels;
    drain_inboxes(cancels);
    apply_cancellations(cancels);
    enforce_deadlines();
    admit();
  }
  if (running_.empty()) {
    assert(waiting_.empty() && "admit() always admits when nothing runs");
    // An on_done fired by the cancellation/deadline handling above may
    // have submitted new work; it sits in the inbox until the next step.
    MutexLock lock(mu_);
    return !submit_inbox_.empty() || !cancel_inbox_.empty();
  }
  advance_prefill();
  {
    obs::StepTraceBuilder::Span span = step_trace_.span("preempt");
    preempt_for_memory();
  }

  // Gather this iteration's decode batch: every decoding sequence still
  // under budget, including one whose prefill completed this very step.
  // (Note prefill is rationed at one sequence per iteration even with
  // monolithic chunks, so simultaneously admitted requests start decoding
  // on consecutive steps, not all at once.) A replaying sequence is fed
  // its recorded token, like the step that first produced it.
  std::vector<std::size_t> slots;
  std::vector<SequenceId> seqs;
  std::vector<std::int32_t> inputs;
  slots.reserve(running_.size());
  seqs.reserve(running_.size());
  inputs.reserve(running_.size());
  for (std::size_t i = 0; i < running_.size(); ++i) {
    const Running& run = running_[i];
    if (!run.decoding()) continue;
    slots.push_back(i);
    seqs.push_back(run.seq);
    inputs.push_back(run.output[run.decoded]);
  }
  std::vector<std::int32_t> next;
  {
    obs::StepTraceBuilder::Span span = step_trace_.span("decode_batch");
    try {
      next = engine_.decode_batch(std::span<const SequenceId>(seqs),
                                  std::span<const std::int32_t>(inputs),
                                  pool_.get());
    } catch (...) {
      poisoned_ = true;
      throw;
    }
  }
  // One commit stamp for the whole batch: every sequence's token landed at
  // the same join point, and one clock read per step keeps the TPOT cost
  // independent of batch size.
  const std::uint64_t commit_ns =
      (metrics_ != nullptr && !slots.empty()) ? now_ns() : 0;
  for (std::size_t j = 0; j < slots.size(); ++j) {
    Running& run = running_[slots[j]];
    const std::size_t index = ++run.decoded;
    if (index < run.output.size()) {
      audit_replayed_token(run.pend.req.request_id, index, run.output[index],
                           next[j]);
      continue;
    }
    run.output.push_back(next[j]);
    if (metrics_ != nullptr) {
      if (run.pend.last_token_ns != 0) {
        m_.tpot->observe(
            static_cast<double>(commit_ns - run.pend.last_token_ns) * 1e-9);
      }
      run.pend.last_token_ns = commit_ns;
    }
  }

  // Stream every token committed this step (the decode batch above plus a
  // first token produced by advance_prefill) before retirement, so a
  // request's final on_token precedes its on_done.
  {
    obs::StepTraceBuilder::Span span = step_trace_.span("deliver");
    for (Running& run : running_) deliver_tokens(run);
  }

  // Retire finished sequences (swap-erase keeps iteration simple).
  obs::StepTraceBuilder::Span retire_span = step_trace_.span("retire");
  for (std::size_t i = 0; i < running_.size();) {
    Running& run = running_[i];
    if (run.phase == SequencePhase::kDecoding && !run.decoding()) {
      // The finished conversation turn is tomorrow's shared prefix: insert
      // before release so the cache inherits the pages instead of the pool.
      insert_prefix(run);
      engine_.sequence(run.seq).phase = SequencePhase::kFinished;
      engine_.release_sequence(run.seq);
      Running done = std::move(run);
      running_[i] = std::move(running_.back());
      running_.pop_back();
      finish(std::move(done.pend), std::move(done.output),
             RequestStatus::kFinished);
    } else {
      ++i;
    }
  }
  if (!running_.empty() || !waiting_.empty()) return true;
  // An on_done callback may have submitted (or cancelled) during this
  // step; that work sits in the inboxes, not waiting_ — without this
  // check drain()/run_until_idle() would return with it stranded.
  MutexLock lock(mu_);
  return !submit_inbox_.empty() || !cancel_inbox_.empty();
}

std::vector<RequestResult> Scheduler::drain() {
  while (step()) {
  }
#if LSERVE_AUDIT_ENABLED
  // Quiescence check the static layers cannot express: every page
  // admitted since construction must be back in the pool. On a leak the
  // auditor names the owning sequence, allocation site and thread.
  if (engine_.total_pages_in_use() - engine_.prefix_cache_pages_held() !=
      audit_baseline_pages_) {
    const std::string report = engine_.audit_report();
    std::fprintf(stderr,
                 "[lserve page audit] scheduler drained but %zu pages are "
                 "still in use (%zu held by the prefix cache, baseline %zu); "
                 "live pages:\n%s",
                 engine_.total_pages_in_use(),
                 engine_.prefix_cache_pages_held(), audit_baseline_pages_,
                 report.c_str());
    std::abort();
  }
#endif
  return results_;
}

void Scheduler::run_until_idle() {
  while (step()) {
  }
}

}  // namespace lserve::serve
