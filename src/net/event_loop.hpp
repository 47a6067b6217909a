// Single-threaded poll(2) event loop — the reactor under the HTTP serving
// front-end.
//
// One thread calls run(); it multiplexes every registered fd (listener,
// client sockets) plus an internal self-pipe that makes post() and stop()
// safe from any thread (the classic wakeup-pipe pattern, cf. the 80s/90s
// event servers). Handlers run on the loop thread, so per-connection state
// needs no locks; cross-thread producers (the scheduler thread's token
// callbacks) hand work over via post().
//
// poll(2) rather than epoll keeps the loop portable across the POSIX
// targets the repo builds on; at the tens-of-connections scale of the
// loopback benches the rebuild-the-pollfd-array cost is noise.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "serve/thread_annotations.hpp"

namespace lserve::net {

/// Event bits delivered to an fd handler (also its interest mask).
inline constexpr std::uint32_t kReadable = 1u << 0;
inline constexpr std::uint32_t kWritable = 1u << 1;
/// Error/hangup — always delivered regardless of interest.
inline constexpr std::uint32_t kError = 1u << 2;

/// Puts `fd` into O_NONBLOCK mode; throws std::runtime_error on failure.
/// Shared by the loop (wakeup pipe) and the server (listener, clients).
void set_nonblocking(int fd);

class EventLoop {
 public:
  using IoHandler = std::function<void(std::uint32_t events)>;
  using Task = std::function<void()>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` with an interest mask (kReadable|kWritable). The
  /// handler runs on the loop thread. Loop-thread only.
  void add(int fd, std::uint32_t interest, IoHandler handler);
  /// Replaces the interest mask of a registered fd. Loop-thread only.
  void set_interest(int fd, std::uint32_t interest);
  /// Deregisters `fd` (does not close it). Safe from inside a handler,
  /// including the fd's own. Loop-thread only.
  void remove(int fd);

  /// Enqueues `task` to run on the loop thread and wakes the loop.
  /// Thread-safe; the only cross-thread entry point besides stop().
  void post(Task task) EXCLUDES(mu_);

  /// Dispatches events until stop(). Tasks posted before run() execute on
  /// the first iteration.
  void run() EXCLUDES(mu_);
  /// Makes run() return after the current iteration. Thread-safe.
  void stop() EXCLUDES(mu_);

 private:
  void drain_tasks() EXCLUDES(mu_);
  /// Writes one byte to the wakeup pipe, retrying on EINTR — an
  /// interrupted write is a silently missed wakeup otherwise. EAGAIN is
  /// fine: a full pipe already guarantees a pending wakeup.
  void wake();

  struct Entry {
    std::uint32_t interest = 0;
    IoHandler handler;
    /// Registration generation: a handler may close its fd and a later
    /// handler in the same dispatch round (accept) may reuse the number;
    /// stale poll results must not be delivered to the new registration.
    std::uint64_t gen = 0;
  };
  /// Loop-thread-only state (registration API is loop-thread only by
  /// contract — see the header comment — so none of this is guarded).
  std::unordered_map<int, Entry> fds_;
  std::uint64_t next_gen_ = 1;
  int wake_read_ = -1;
  int wake_write_ = -1;

  /// Cross-thread surface; mu_ is a leaf lock (never held while a task
  /// or handler runs, never held across a write to the wakeup pipe).
  Mutex mu_;
  std::vector<Task> tasks_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace lserve::net
