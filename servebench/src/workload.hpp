// Seeded traffic for the serving benchmark.
//
// A workload is a set of sessions. A session opens at its arrival time and
// sends one or more turns: turn 0's prompt is the shared prefix plus fresh
// tokens, and every later turn's prompt is the previous prompt, the reply
// the server streamed for it, and fresh user tokens (a chat conversation).
// Single-turn workloads (long documents, reasoning) are sessions of one
// turn with no shared prefix.
//
// Every per-session quantity is drawn by stratified sampling: for n
// sessions the unit interval is cut into n strata, and each session gets
// one stratum in a seeded order and a seeded point in the middle quarter of
// it. Different seeds give different token streams, arrival orders and
// lengths, while the spread of lengths and gaps stays nearly the same from
// seed to seed, so a run's medians move with the code and not with the
// draw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace servebench {

/// splitmix64: a small deterministic generator whose output does not
/// depend on the standard library implementation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() noexcept;
  /// Uniform in [0, 1).
  double uniform() noexcept;
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) noexcept;

 private:
  std::uint64_t state_;
};

/// An independent stream of `seed` for purpose `stream`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept;

/// n points in [0, 1), one in the middle quarter of each stratum
/// [i/n, (i+1)/n), in a seeded order.
std::vector<double> stratified_unit(Rng& rng, std::size_t n);

/// Inclusive integer range.
struct Span {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// Traffic shape of one workload (servebench/setup.json holds the values).
struct WorkloadSpec {
  std::string name;
  std::size_t prefix_tokens = 0;  ///< shared by every session's turn 0.
  Span prompt{1, 1};              ///< fresh tokens of turn 0.
  Span followup{0, 0};            ///< fresh tokens of each later turn.
  Span reply{1, 1};               ///< max_new_tokens of every turn.
  Span turns{1, 1};
  double think_lo_s = 0.0;  ///< pause between a reply and the next turn.
  double think_hi_s = 0.0;
  double rate = 1.0;      ///< offered sessions per second (open loop).
  double sat_rate = 1.0;  ///< nominal saturation sessions per second; sizes
                          ///< the closed-loop set, never re-derived.
  double open_share = 0.65;    ///< share of the run offering `rate`.
  double closed_share = 0.25;  ///< share of the run the closed set takes at
                               ///< `sat_rate`.
  double ttft_slo_ms = 0.0;
  double tpot_slo_ms = 0.0;
  std::size_t vocab = 256;  ///< token ids are drawn from [0, vocab).
};

struct Turn {
  std::vector<std::int32_t> fresh;
  std::size_t max_new = 1;
  double think_s = 0.0;  ///< wait after the previous turn's reply.
};

struct Session {
  double arrival_s = 0.0;  ///< offset from the phase start.
  std::vector<Turn> turns;
};

struct Plan {
  std::vector<std::int32_t> prefix;
  std::vector<Session> sessions;
};

/// `n` open-loop sessions at spec.rate: arrival gaps are stratified draws
/// from [0.75, 1.25] times the mean gap 1 / spec.rate.
Plan make_open_plan(const WorkloadSpec& spec, std::uint64_t seed,
                    std::size_t n);
/// `n` sessions for the closed loop: no arrival times, no think time.
Plan make_closed_plan(const WorkloadSpec& spec, std::uint64_t seed,
                      std::size_t n);
/// Small disjoint requests that run before timing (no shared prefix).
Plan make_warmup_plan(const WorkloadSpec& spec, std::uint64_t seed);

/// Turn 0's prompt.
std::vector<std::int32_t> first_prompt(const Plan& plan,
                                       const Session& session);
/// A later turn's prompt: previous prompt + streamed reply + fresh tokens.
std::vector<std::int32_t> next_prompt(std::span<const std::int32_t> prev,
                                      std::span<const std::int32_t> reply,
                                      std::span<const std::int32_t> fresh);

/// Sessions in the open-loop and closed-loop phases of a run of
/// `seconds`: the open loop offers spec.rate for spec.open_share of it,
/// the closed loop holds what spec.sat_rate completes in
/// spec.closed_share of it (at least one session per connection).
std::size_t open_sessions(const WorkloadSpec& spec, double seconds);
std::size_t closed_sessions(const WorkloadSpec& spec, double seconds,
                            std::size_t connections);

}  // namespace servebench
