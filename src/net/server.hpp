// HTTP serving front-end: bridges socket lifecycle to scheduler lifecycle.
//
// Two threads per server:
//   - the event-loop thread runs a non-blocking poll(2) reactor over the
//     listener and every client connection (accept, parse, write SSE
//     frames);
//   - the scheduler thread drives the engine: it loops
//     Scheduler::run_until_idle() and sleeps in wait_for_work() between
//     bursts, so the event loop never blocks on a decode step.
//
// The bridge, per request:
//   - POST /v1/generate submits a Request whose on_token/on_done callbacks
//     (scheduler thread) post events onto the loop thread, which frames
//     them as Server-Sent Events: one `token` event per generated token
//     and one terminal `done` event carrying the RequestStatus
//     (FINISHED / CANCELLED / DEADLINE_EXCEEDED).
//   - Client disconnect mid-stream triggers Scheduler::cancel() — the
//     sequence's pages are reclaimed like preemption, but the request is
//     not re-queued.
//   - Backpressure defers admission: above ServerConfig::max_live the
//     server answers 503 instead of queueing unboundedly, and the
//     scheduler's own page-budget admission control keeps accepted
//     requests WAITING until their KV footprint fits.
//
// Endpoints:
//   POST /v1/generate   body: {"prompt":[ints]} or {"prompt_len":N}
//                       plus optional "max_new_tokens", "deadline_steps",
//                       "seed"  → text/event-stream
//   GET  /healthz       → application/json liveness + queue depth +
//                         page-pool occupancy (from the metrics registry)
//   GET  /metrics       → Prometheus text exposition (when wired)
//   GET  /debug/trace   → Chrome trace-event JSON of recent steps (when
//                         wired)
//
// The observability endpoints run entirely on the loop thread:
// expose_prometheus() reads lock-free atomics and export_chrome_json()
// holds only the tracer's ring mutex for the snapshot splice, so a scrape
// never blocks the scheduler thread mid-step.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/event_loop.hpp"
#include "net/http.hpp"
#include "obs/metrics.hpp"
#include "obs/step_tracer.hpp"
#include "serve/scheduler.hpp"

namespace lserve::net {

struct ServerConfig {
  /// Port to bind on 127.0.0.1 (0 = ephemeral; start() returns the bound
  /// port — the loopback tests/benches use this).
  std::uint16_t port = 8080;
  /// 503 when this many requests are already live in the scheduler
  /// (0 = unbounded). The first line of backpressure, ahead of the
  /// scheduler's page-budget admission control.
  std::size_t max_live = 0;
  std::size_t default_max_new_tokens = 16;
  std::size_t max_prompt_tokens = 64 * 1024;
  std::size_t max_new_tokens_cap = 4096;
  HttpParser::Limits http_limits;
  /// Observability sinks (optional, non-owning; normally the same objects
  /// wired into the SchedulerConfig so one registry serves the whole
  /// stack). Null disables GET /metrics / GET /debug/trace (404) and the
  /// net-layer counters.
  obs::MetricsRegistry* metrics = nullptr;
  obs::StepTracer* tracer = nullptr;
};

/// One HTTP/1.1 + SSE server over one Scheduler. start() spawns the two
/// threads; stop() cancels every live stream, waits for the scheduler to
/// reclaim their pages, and joins.
class HttpServer {
 public:
  HttpServer(serve::Scheduler& sched, ServerConfig cfg);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:cfg.port, starts the loop + scheduler threads, and
  /// returns the bound port. Throws std::runtime_error on bind failure.
  std::uint16_t start();
  /// Idempotent: cancels live streams, drains the scheduler, stops and
  /// joins both threads, closes every socket.
  void stop();

  std::uint16_t port() const noexcept { return port_; }
  serve::Scheduler& scheduler() noexcept { return sched_; }

 private:
  struct Connection {
    int fd = -1;
    HttpParser parser;
    std::string outbuf;
    bool streaming = false;       ///< SSE response in progress.
    std::uint64_t request_id = 0;
    bool close_after_flush = false;
  };

  // Loop-thread handlers.
  void on_accept();
  void on_connection_event(int fd, std::uint32_t events);
  void route(Connection& conn);
  void handle_generate(Connection& conn);
  void handle_healthz(Connection& conn);
  void handle_metrics(Connection& conn);
  void handle_trace(Connection& conn);
  void respond(Connection& conn, int status, std::string_view reason,
               std::string_view body);
  void flush(Connection& conn);
  void close_connection(int fd, bool cancel_stream);
  // Scheduler-thread → loop-thread event delivery.
  void post_token(std::uint64_t request_id, std::int32_t token,
                  std::size_t index);
  void post_done(const serve::RequestResult& result);

  // Thread ownership (the server itself holds no lock; every field below
  // is single-writer — machine-checkable pieces live in EventLoop and
  // Scheduler, whose cross-thread surfaces are GUARDED_BY-annotated):
  //   - loop-thread state: conns_, streams_ (and all Connection objects);
  //   - control-thread state (start()/stop() caller): listen_fd_, port_,
  //     the two std::thread handles, started_;
  //   - cross-thread: the two atomics, plus everything reached through
  //     sched_ (inbox-locked) and loop_ (task-queue-locked).
  serve::Scheduler& sched_;
  ServerConfig cfg_;
  EventLoop loop_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  // The server owns the process's two serving threads; raw std::thread
  // use outside thread_pool/event_loop is restricted to this file by
  // scripts/check_contract.py.
  std::thread loop_thread_;
  std::thread sched_thread_;
  bool started_ = false;
  std::atomic<bool> sched_dead_{false};  ///< engine poisoned; answer 500.
  std::atomic<std::size_t> active_streams_{0};

  // Loop-thread-owned (no locks: only loop-thread code touches them).
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::unordered_map<std::uint64_t, int> streams_;  ///< request id → fd.

  // Net-layer event counters, resolved once at construction (null when
  // cfg_.metrics is null). Counter::inc is atomic, but these are only
  // bumped from the loop thread anyway.
  obs::Counter* accepts_ = nullptr;
  obs::Counter* sheds_ = nullptr;
  obs::Counter* sse_stalls_ = nullptr;
  obs::Counter* disconnect_cancels_ = nullptr;
};

}  // namespace lserve::net
