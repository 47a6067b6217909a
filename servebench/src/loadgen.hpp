// The load generator: one thread driving at most `connections` concurrent
// HTTP/SSE streams over loopback with poll(2).
//
// Open loop: a session's first turn comes due at its arrival time, a later
// turn at the previous reply's end plus the think time. A request that
// comes due while every connection is busy waits in the generator and is
// still timed from its due time. Closed loop: `connections` sessions run at
// once, each sending its next turn as soon as the previous reply ends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace servebench {

/// Monotonic nanoseconds (std::chrono::steady_clock, the clock the
/// scheduler's telemetry uses).
std::uint64_t now_ns() noexcept;

/// One request as the client saw it.
struct RequestRecord {
  std::uint64_t id = 0;  ///< unique per run; the request's span id.
  std::size_t session = 0;
  std::size_t turn = 0;
  std::vector<std::int32_t> prompt;
  std::size_t max_new = 0;
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t first_ns = 0;  ///< first `token` event (0 = none).
  std::uint64_t done_ns = 0;   ///< terminal event or failure.
  std::vector<std::int32_t> output;
  std::vector<std::uint64_t> token_ns;  ///< arrival time of each token.
  int http_status = 0;
  std::string error;  ///< empty when the stream finished correctly.

  bool ok() const noexcept { return error.empty(); }
  /// Mean gap between consecutive tokens, ms (0 with fewer than 2).
  double mean_tpot_ms() const noexcept;
};

struct PhaseResult {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::vector<RequestRecord> requests;  ///< every request sent.
  std::size_t succeeded() const noexcept;
  std::size_t failed() const noexcept;
  double wall_s() const noexcept {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
  /// Requests finished per second that `connections` connections were
  /// busy: succeeded() ÷ (the requests' sent → done time, summed, over
  /// `connections`). Unlike succeeded() ÷ wall_s(), it leaves out the time
  /// a closed loop's connections sit idle after its request set runs out.
  double busy_rate(std::size_t connections) const noexcept;
};

struct LoadOptions {
  std::uint16_t port = 0;
  std::size_t connections = 4;
  bool open_loop = true;
  /// The phase is abandoned (open streams fail with "timeout") after this.
  double limit_s = 60.0;
  /// First request id of the phase (ids stay unique across phases).
  std::uint64_t first_id = 1;
};

PhaseResult run_phase(const std::string& name, const Plan& plan,
                      const LoadOptions& opt);

/// GET `target` on 127.0.0.1:`port` with a blocking socket; returns the
/// status code (0 on connect failure) and fills `body`.
int http_get(std::uint16_t port, const std::string& target, std::string& body);

}  // namespace servebench
