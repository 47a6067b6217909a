// Fixed-size worker pool for batch-parallel decode and prefill chunks.
//
// One pool is shared by a Scheduler across steps: the decode batch runs one
// sequence per index, the prefill chunk its row blocks and attention tasks.
// Each parallel_for() is a fork/join region over [0, n) with dynamic
// (atomic-counter) work stealing.
// The calling thread participates, so a pool of size T uses T threads total
// (T-1 workers + caller) and a pool of size <= 1 degenerates to an inline
// loop with zero synchronization — the serial path stays the serial path.
//
// Determinism contract: parallel_for only changes WHICH thread runs fn(i),
// never how often or with what argument. Callers that keep fn(i) free of
// cross-index writes (per-sequence state, per-call stats merged after the
// join) therefore get bit-identical results at any pool size.
//
// Lock discipline (machine-checked under clang -Wthread-safety): every
// shared field is GUARDED_BY(mu_); fn itself always runs with mu_
// released. mu_ is a leaf lock — no other lock is ever acquired while it
// is held (docs/CONCURRENCY.md has the full hierarchy).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "serve/thread_annotations.hpp"

namespace lserve::serve {

/// Reusable fork/join thread pool.
class ThreadPool {
 public:
  /// `threads` is the total parallelism (including the calling thread).
  /// 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + caller).
  std::size_t size() const noexcept { return workers_.size() + 1; }

  /// Runs fn(i) once for every i in [0, n), possibly concurrently, and
  /// blocks until all calls return. The first exception thrown by any
  /// fn(i) is rethrown on the calling thread after the join.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn)
      EXCLUDES(mu_);

 private:
  void worker_loop() EXCLUDES(mu_);
  void run_indices() EXCLUDES(mu_);

  /// Written only at construction, joined at destruction; never touched
  /// by the workers themselves.
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_cv_;  ///< workers wait for a new job.
  CondVar done_cv_;  ///< caller waits for the join.
  const std::function<void(std::size_t)>* job_fn_ GUARDED_BY(mu_) = nullptr;
  std::size_t job_n_ GUARDED_BY(mu_) = 0;
  std::size_t next_index_ GUARDED_BY(mu_) = 0;  ///< next unclaimed i.
  std::size_t active_workers_ GUARDED_BY(mu_) = 0;  ///< workers mid-run.
  std::size_t worker_slots_ GUARDED_BY(mu_) = 0;  ///< unclaimed slots.
  std::uint64_t job_epoch_ GUARDED_BY(mu_) = 0;  ///< per parallel_for call.
  std::exception_ptr first_error_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace lserve::serve
