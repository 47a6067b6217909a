// Request-lifecycle scheduler: chunked-prefill-aware continuous batching
// with KV-memory admission control, preemption, streaming token delivery,
// cancellation, and deadlines.
//
// Requests move through the lifecycle WAITING → PREFILLING → DECODING →
// FINISHED, with PREEMPTED → WAITING as the memory-pressure back edge and
// CANCELLED / DEADLINE_EXCEEDED as early terminal exits reachable from any
// live phase. Scheduling is iteration-level (Orca/vLLM style), but prefill
// chunks are first-class iteration work: each step() packs at most one
// prefill chunk (cfg.prefill_chunk_tokens of the engine, whole prompt when
// 0) of the oldest admitting sequence next to the running decode batch, so
// the TTFT of a long prompt no longer stalls the TPOT of every running
// sequence — the head-of-line blocking the paper's chunked prefill (§3)
// exists to avoid.
//
// Memory: a configurable page budget (across both engine pools) gates
// admission — a request whose worst-case prompt + max_new_tokens footprint
// does not fit on top of current occupancy stays WAITING — and triggers
// preemption instead of poisoning when the pool nears exhaustion
// mid-decode: the most recently admitted sequence is released (pages
// reclaimed) and its request re-queued at the front (recompute
// preemption). On re-admission it prefills only its prompt, then
// re-decodes its generated tokens through the ordinary decode batch with
// the recorded token as each step's input, producing nothing new until it
// catches up. The rebuilt KV is what the original decode steps wrote —
// same streaming window, same selected and reused page tables — so the
// replay is output-exact under every sparsity policy. The budget is soft
// in two places that guarantee drain() always completes: a request whose
// footprint alone exceeds the budget still runs solo (the pool grows on
// demand), and the last running sequence is never preempted.
//
// Prefix cache (when the engine enables it): admission peeks the cache so
// a hit's footprint counts only the uncached suffix, every admitted
// request attaches the cached prefix and prefills just the remainder, and
// every release point (finish / preempt / cancel) inserts the sequence's
// KV into the cache before its pages return to the pool — so a preempted
// request's prompt prefill is itself usually a cache hit. Under budget
// pressure the scheduler evicts unreferenced cache entries before it
// resorts to deferring admission or preempting a running sequence.
//
// Streaming & cancellation (the serving front-end surface): each request
// may carry an on_token callback, invoked as each decode step commits (a
// preempted-and-replayed request never re-delivers: on_token always sees a
// strictly growing prefix of the final output), and an on_done callback
// invoked exactly once with the terminal RequestResult. cancel() is safe
// in WAITING, PREFILLING and DECODING: pages are reclaimed exactly like
// preemption, but the request is not re-queued. Deadlines (a
// SchedulerConfig default plus a per-Request override, measured in
// scheduler steps since submission) are enforced at step boundaries and
// terminate with DEADLINE_EXCEEDED.
//
// Threading contract (machine-checked: the cross-thread surface is
// GUARDED_BY(mu_) and builds clean under clang -Wthread-safety; see
// docs/CONCURRENCY.md): submit(), cancel(), live_requests(),
// request_stop() and wait_for_work() are thread-safe and may be called
// from any thread (e.g. a network event loop) while a dedicated scheduler
// thread loops step()/run_until_idle(). Submissions and cancellations
// land in inboxes and take effect at the next step boundary, keeping the
// step itself lock-free. step()/drain()/run_until_idle()/results() must
// only be called from one thread at a time (the scheduler thread);
// callbacks fire on that thread with no internal lock held — mu_ is a
// leaf lock, so an on_token/on_done body may freely call submit()/
// cancel() or take its own locks without inverting any order.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/step_tracer.hpp"
#include "serve/engine.hpp"
#include "serve/thread_annotations.hpp"
#include "serve/thread_pool.hpp"

namespace lserve::serve {

/// How a request left the scheduler.
enum class RequestStatus : std::uint8_t {
  kFinished = 0,          ///< produced max_new_tokens.
  kCancelled = 1,         ///< cancel() — e.g. client disconnect.
  kDeadlineExceeded = 2,  ///< deadline hit at a step boundary.
};

const char* to_string(RequestStatus status) noexcept;

/// A terminated request's output and accounting. The step indices are the
/// scheduler's iteration counter (SchedulerStats::steps) at the respective
/// event; benches map them to wall-clock timestamps for TTFT/TPOT without
/// the scheduler itself touching a clock.
struct RequestResult {
  std::uint64_t request_id = 0;
  RequestStatus status = RequestStatus::kFinished;
  /// Full output for kFinished; the tokens produced (and streamed) before
  /// termination otherwise — always a prefix of the uninterrupted output.
  std::vector<std::int32_t> output;
  std::size_t prompt_tokens = 0;
  std::size_t decode_steps = 0;
  std::size_t preemptions = 0;       ///< times this request was preempted.
  std::size_t submit_step = 0;       ///< steps completed when submitted.
  std::size_t first_token_step = 0;  ///< step that produced output[0].
  std::size_t finish_step = 0;       ///< step that terminated the request.
};

/// One inference request.
struct Request {
  std::vector<std::int32_t> prompt;
  std::size_t max_new_tokens = 16;
  std::uint64_t request_id = 0;
  /// Scheduler steps after submission before the request is terminated
  /// with kDeadlineExceeded (0 = SchedulerConfig::default_deadline_steps;
  /// both 0 = no deadline). Steps are the scheduler's native clock; a
  /// wall-clock front-end maps its timeouts to cancel() instead.
  std::size_t deadline_steps = 0;
  /// Streamed token delivery, invoked on the scheduler thread as each
  /// token commits: (request_id, token, index) with index counting from 0.
  /// Tokens restored after a preemption replay are not re-delivered.
  std::function<void(std::uint64_t, std::int32_t, std::size_t)> on_token;
  /// Terminal notification, invoked exactly once on the scheduler thread
  /// after the result (any status) is recorded.
  std::function<void(const RequestResult&)> on_done;
};

/// Scheduler policy knobs.
struct SchedulerConfig {
  std::size_t max_batch = 8;
  /// Parallelism of each step()'s decode batch and prefill chunk: 1 =
  /// serial, >1 = shared ThreadPool, 0 = hardware concurrency. Outputs,
  /// stats, scheduling decisions (admission/preemption use post-join page
  /// counts) and completion order are bit-identical at any thread count.
  /// Allocator-level telemetry (PageAllocator::peak_pages_in_use, physical
  /// page-id assignment) is the exception: it depends on allocation
  /// interleaving within a batch.
  std::size_t decode_threads = 1;
  /// Consolidated memory knobs (kv/memory_config.hpp). The scheduler
  /// consumes memory.page_budget: the combined (dense + streaming) page
  /// budget for admission control and preemption; 0 = unbounded. Soft —
  /// see the header comment. When the engine runs tiered
  /// (EngineConfig::memory.hot_pages > 0) the budget charges only
  /// hot-resident pages — cold pages live in the spill file, not RAM —
  /// so the same budget admits more concurrent long-context sequences.
  kv::MemoryConfig memory;
  /// Default Request::deadline_steps for requests that don't override it
  /// (0 = no default deadline).
  std::size_t default_deadline_steps = 0;
  /// Decode routing policy installed on the engine at construction
  /// (serve/attention_policy.hpp): per step and per sequence the engine
  /// asks it whether dense heads read the full context or run the
  /// configured dynamic selection. Null = leave the engine's current
  /// policy alone (run-as-configured unless one was set directly).
  std::shared_ptr<const AttentionPolicy> policy;

  /// Observability sinks (all optional, all non-owning — the caller keeps
  /// them alive for the scheduler's lifetime; serve_main owns them in the
  /// server binary). Telemetry NEVER feeds back into scheduling: drains
  /// with metrics/tracing on are bit-identical to drains with them off at
  /// any decode thread count (pinned by tests/obs_test.cpp).
  ///
  /// Wall-clock request telemetry (queue-wait, TTFT, TPOT, end-to-end
  /// histograms; sequence/page/prefix gauges; lifecycle and route
  /// counters) is recorded into `metrics`; per-step phase spans go into
  /// `tracer` (exported as Chrome trace JSON via GET /debug/trace).
  obs::MetricsRegistry* metrics = nullptr;
  obs::StepTracer* tracer = nullptr;
  /// Time source for the telemetry stamps. Null = steady-clock default;
  /// tests inject obs::FakeClock for deterministic TTFT/TPOT. Unused (and
  /// never read) when both sinks are null — the scheduler's control flow
  /// stays clockless either way.
  std::shared_ptr<const obs::Clock> clock;
};

/// Cumulative scheduler telemetry.
struct SchedulerStats {
  std::size_t steps = 0;
  std::size_t admitted = 0;     ///< admissions, including re-admissions.
  std::size_t preemptions = 0;  ///< sequences released under memory pressure.
  std::size_t deferred_admissions = 0;  ///< step-counted admission stalls.
  std::size_t prefill_chunks = 0;       ///< chunks scheduled (≤ 1 per step).
  std::size_t cancelled = 0;            ///< requests ended by cancel().
  std::size_t deadline_exceeded = 0;    ///< requests ended by deadline.
};

/// FCFS continuous-batching scheduler over one Engine.
class Scheduler {
 public:
  Scheduler(Engine& engine, SchedulerConfig cfg);

  /// Convenience: SchedulerConfig{max_batch, decode_threads}, no budget.
  Scheduler(Engine& engine, std::size_t max_batch,
            std::size_t decode_threads = 1);

  /// Enqueues a request; returns its id (assigned if 0). A user-supplied
  /// id that collides with an in-flight (waiting or running) request is
  /// rejected with std::invalid_argument; auto-assignment never reuses a
  /// user-supplied id. Thread-safe; the request is picked up at the next
  /// step boundary.
  std::uint64_t submit(Request req) EXCLUDES(mu_);

  /// Requests termination of an in-flight request with the given status
  /// (kCancelled by default; a wall-clock front-end passes
  /// kDeadlineExceeded for its own timeouts). Safe in any live phase:
  /// WAITING requests never start, PREFILLING/DECODING sequences have
  /// their pages reclaimed exactly like preemption but are not re-queued.
  /// Thread-safe; takes effect at the next step boundary. Returns false
  /// if the id is not in flight (unknown or already terminal).
  bool cancel(std::uint64_t request_id,
              RequestStatus status = RequestStatus::kCancelled)
      EXCLUDES(mu_);

  /// One iteration: apply queued submissions/cancellations and deadlines,
  /// admit under the page budget, advance at most one prefill chunk,
  /// preempt if the pool nears the budget, then decode the batch, stream
  /// committed tokens, and retire terminal sequences. Returns true while
  /// work remains.
  ///
  /// Pool exhaustion against the page budget is handled by preemption and
  /// never poisons the scheduler. Only an engine-level failure (a decode
  /// batch throwing, e.g. allocation failure at the allocator's hard cap)
  /// still leaves sequences mid-step and unpoisonable-by-retry; after that
  /// every later step()/drain() throws std::logic_error.
  bool step();

  /// Runs to completion and returns all results in completion order.
  std::vector<RequestResult> drain();

  /// step() until no work remains. The serving-thread idiom:
  ///
  ///   while (!sched.stop_requested()) {
  ///     sched.run_until_idle();
  ///     sched.wait_for_work(std::chrono::milliseconds(100));
  ///   }
  void run_until_idle();

  /// Blocks until a submission/cancellation arrives, request_stop() is
  /// called, or `timeout` elapses. Returns true iff woken by work (not by
  /// stop or timeout). Thread-safe.
  bool wait_for_work(std::chrono::milliseconds timeout) EXCLUDES(mu_);

  /// Wakes wait_for_work() and makes stop_requested() true. Thread-safe.
  void request_stop() EXCLUDES(mu_);
  bool stop_requested() const EXCLUDES(mu_);

  /// Requests submitted but not yet terminal (thread-safe).
  std::size_t live_requests() const EXCLUDES(mu_);

  std::size_t running() const noexcept { return running_.size(); }
  std::size_t waiting() const noexcept { return waiting_.size(); }
  /// Step parallelism (1 when no pool is attached).
  std::size_t decode_threads() const noexcept {
    return pool_ == nullptr ? 1 : pool_->size();
  }
  const SchedulerConfig& config() const noexcept { return cfg_; }
  const SchedulerStats& scheduler_stats() const noexcept { return stats_; }
  const std::vector<RequestResult>& results() const noexcept {
    return results_;
  }

 private:
  /// A queued request plus any progress preserved across preemption.
  struct Pending {
    Request req;
    /// Tokens generated before a preemption (empty for a fresh request);
    /// re-admission re-decodes them after the prompt prefill.
    std::vector<std::int32_t> resumed;
    std::size_t preemptions = 0;
    std::size_t submit_step = 0;
    std::size_t first_token_step = 0;
    std::size_t delivered = 0;  ///< tokens already handed to on_token.
    /// Wall-clock telemetry stamps (obs layer only — scheduling decisions
    /// never read them; all stay 0 when metrics are off). TTFT/queue-wait
    /// are recorded once per request and survive preemption; last_token_ns
    /// deliberately spans a preemption replay, so the TPOT histogram sees
    /// the inter-token stall a streaming client actually observes.
    std::uint64_t submit_ns = 0;
    std::uint64_t last_token_ns = 0;  ///< commit stamp of the latest token.
    bool queue_wait_recorded = false;
    bool ttft_recorded = false;
  };

  /// An admitted request bound to an engine sequence.
  struct Running {
    Pending pend;
    SequenceId seq = kInvalidSequence;
    SequencePhase phase = SequencePhase::kPrefilling;
    std::vector<std::int32_t> output;
    /// Decode steps taken since admission: the next step's input is
    /// output[decoded]. Below output.size() - 1 the sequence is replaying
    /// tokens restored from a preemption and appends nothing.
    std::size_t decoded = 0;
    std::size_t prefill_pos = 0;  ///< prompt tokens already forwarded.
    std::uint64_t admit_order = 0;
    /// Still owes a decode step: one more token, or a replayed one.
    bool decoding() const noexcept {
      return phase == SequencePhase::kDecoding &&
             decoded + 1 < pend.req.max_new_tokens;
    }
  };

  void admit();
  void advance_prefill();
  void preempt_for_memory();
  void preempt(std::size_t slot);
  /// Shares `run`'s prefilled prompt KV into the engine's prefix cache.
  /// Called at every release point — finish, preemption, cancel/deadline —
  /// before the sequence's pages go back to the pool. No-op when the
  /// engine has no prefix cache.
  void insert_prefix(const Running& run);
  /// Moves queued submissions/cancellations into waiting_/this step's
  /// cancel list (the only place scheduler state meets the inbox lock).
  void drain_inboxes(std::vector<std::pair<std::uint64_t, RequestStatus>>&
                         cancels) EXCLUDES(mu_);
  void apply_cancellations(
      const std::vector<std::pair<std::uint64_t, RequestStatus>>& cancels);
  void enforce_deadlines();
  std::size_t effective_deadline(const Pending& pend) const noexcept;
  /// Streams undelivered tokens of one running sequence to on_token.
  void deliver_tokens(Running& run);
  /// Records the terminal result of a request and fires on_done. The
  /// engine sequence (if any) must already be released by the caller.
  void finish(Pending pend, std::vector<std::int32_t> output,
              RequestStatus status) EXCLUDES(mu_);
  /// Terminates running_[slot]: releases its sequence (pages reclaimed
  /// like preemption, not re-queued) and records the terminal result.
  void terminate_running(std::size_t slot, RequestStatus status);
  /// The body of step(); step() itself is the telemetry envelope (trace
  /// builder + per-step gauge/counter publication) around it.
  bool step_impl();
  /// Registers every scheduler-owned metric family (idempotent per
  /// registry: register-or-get). Called once at construction.
  void register_metrics();
  /// Wall-clock read for telemetry stamps; 0 when no sink wants time.
  std::uint64_t now_ns() const noexcept {
    return clock_ == nullptr ? 0 : clock_->now_ns();
  }
  /// Publishes the per-step gauges (sequences, pages, prefix cache) and
  /// raises the prefix, route and tier counters to their owners' totals
  /// (kv::PrefixCacheStats, EngineStats, kv::TierStats).
  void publish_step_metrics();

  Engine& engine_;
  SchedulerConfig cfg_;
  std::unique_ptr<ThreadPool> pool_;  ///< null => serial step.
  std::deque<Pending> waiting_;
  std::vector<Running> running_;
  std::vector<RequestResult> results_;
  SchedulerStats stats_;
  std::uint64_t admit_counter_ = 0;  ///< preemption priority (newest first).
  bool poisoned_ = false;  ///< a decode batch threw; engine unusable.

  /// Observability (scheduler-thread only, except the atomic counter
  /// bumped from submit()). Handles are resolved once at construction;
  /// null sinks compile the whole layer down to a handful of null checks.
  obs::MetricsRegistry* metrics_ = nullptr;  ///< == cfg_.metrics.
  obs::StepTracer* tracer_ = nullptr;        ///< == cfg_.tracer.
  std::shared_ptr<const obs::Clock> clock_;  ///< null iff both sinks null.
  /// Phase-span builder for the step in flight; reset (inactive when
  /// tracing is off) at the top of every step().
  obs::StepTraceBuilder step_trace_;
  struct MetricHandles {
    obs::Histogram* queue_wait = nullptr;
    obs::Histogram* ttft = nullptr;
    obs::Histogram* tpot = nullptr;
    obs::Histogram* e2e = nullptr;
    obs::Counter* submitted = nullptr;
    obs::Counter* finished = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* steps = nullptr;
    obs::Counter* preemptions = nullptr;
    obs::Counter* deferrals = nullptr;
    obs::Counter* prefill_chunks = nullptr;
    obs::Counter* prefix_hits = nullptr;
    obs::Counter* prefix_tokens = nullptr;
    obs::Counter* route_dense = nullptr;
    obs::Counter* route_sparse = nullptr;
    obs::Gauge* seq_running = nullptr;
    obs::Gauge* seq_waiting = nullptr;
    obs::Gauge* requests_live = nullptr;
    obs::Gauge* pages_in_use = nullptr;
    obs::Gauge* pages_free = nullptr;
    obs::Gauge* pages_capacity = nullptr;
    obs::Gauge* prefix_pages = nullptr;
    /// Two-tier KV store (all flat when the engine is untiered).
    obs::Gauge* pages_hot = nullptr;
    obs::Gauge* pages_cold = nullptr;
    obs::Gauge* cold_bytes = nullptr;
    obs::Counter* tier_demotions = nullptr;
    obs::Counter* tier_pin_promotions = nullptr;
    obs::Counter* tier_prefetch_promotions = nullptr;
    obs::Counter* tier_prefetch_requests = nullptr;
  } m_;
#if LSERVE_AUDIT_ENABLED
  /// Engine pool occupancy at construction; drain() aborts with the
  /// auditor's who-leaked-what report if it does not return to this.
  std::size_t audit_baseline_pages_ = 0;
#endif

  /// Cross-thread surface: submissions/cancellations land here under mu_
  /// and are spliced into scheduler state at the next step boundary.
  /// mu_ is a leaf lock: nothing else is acquired while it is held.
  mutable Mutex mu_;
  CondVar work_cv_;
  std::deque<Pending> submit_inbox_ GUARDED_BY(mu_);
  std::vector<std::pair<std::uint64_t, RequestStatus>> cancel_inbox_
      GUARDED_BY(mu_);
  /// Submitted, not terminal.
  std::unordered_set<std::uint64_t> live_ids_ GUARDED_BY(mu_);
  std::uint64_t next_id_ GUARDED_BY(mu_) = 1;
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace lserve::serve
