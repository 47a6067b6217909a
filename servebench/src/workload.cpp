#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace servebench {

namespace {

// Stream ids of derive_seed (one independent stream per purpose).
constexpr std::uint64_t kPrefixStream = 1;
constexpr std::uint64_t kShapeStream = 2;
constexpr std::uint64_t kTokenStream = 3;
constexpr std::uint64_t kClosedStream = 4;
constexpr std::uint64_t kWarmupStream = 5;

std::size_t in_span(const Span& s, double u) {
  if (s.hi <= s.lo) return s.lo;
  const auto width = static_cast<double>(s.hi - s.lo + 1);
  return std::min(s.hi, s.lo + static_cast<std::size_t>(u * width));
}

std::vector<std::int32_t> tokens(Rng& rng, std::size_t n, std::size_t vocab) {
  std::vector<std::int32_t> out(n);
  for (auto& t : out) t = static_cast<std::int32_t>(rng.below(vocab));
  return out;
}

Plan make_plan(const WorkloadSpec& spec, std::uint64_t seed, std::size_t n,
               bool open) {
  Plan plan;
  Rng prefix_rng(derive_seed(seed, kPrefixStream));
  plan.prefix = tokens(prefix_rng, spec.prefix_tokens, spec.vocab);

  // One stratified draw per session (turn-0 length, turn count, arrival
  // gap), then, for each turn position, one per session that reaches it
  // (reply, follow-up length, think time). Every position then sees the
  // same spread of replies whatever the seed, so how much context a late
  // turn carries does not hinge on where a seed put its long replies.
  Rng shape(derive_seed(seed, kShapeStream));
  const std::vector<double> u_prompt = stratified_unit(shape, n);
  const std::vector<double> u_turns = stratified_unit(shape, n);
  const std::vector<double> u_gap = stratified_unit(shape, n);
  plan.sessions.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    plan.sessions[i].turns.resize(in_span(spec.turns, u_turns[i]));
  }
  struct Position {
    std::vector<double> reply, followup, think;
    std::size_t used = 0;
  };
  std::vector<Position> pos(spec.turns.hi);
  for (std::size_t k = 0; k < pos.size(); ++k) {
    const auto reach = static_cast<std::size_t>(std::count_if(
        plan.sessions.begin(), plan.sessions.end(),
        [k](const Session& s) { return s.turns.size() > k; }));
    pos[k].reply = stratified_unit(shape, reach);
    if (k > 0) {
      pos[k].followup = stratified_unit(shape, reach);
      pos[k].think = stratified_unit(shape, reach);
    }
  }

  Rng tok(derive_seed(seed, kTokenStream));
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Session& s = plan.sessions[i];
    if (open) {
      // The first session opens at 0; later gaps are uniform in
      // [0.75, 1.25] times the mean gap.
      if (i > 0) t += (0.75 + 0.5 * u_gap[i]) / spec.rate;
      s.arrival_s = t;
    }
    for (std::size_t k = 0; k < s.turns.size(); ++k) {
      Turn& turn = s.turns[k];
      const std::size_t j = pos[k].used++;
      // A single-turn session's reply is anti-correlated with its prompt,
      // which keeps the work per session even.
      turn.max_new = in_span(spec.reply, spec.turns.hi == 1 ? 1.0 - u_prompt[i]
                                                            : pos[k].reply[j]);
      if (k == 0) {
        turn.fresh = tokens(tok, in_span(spec.prompt, u_prompt[i]), spec.vocab);
        continue;
      }
      turn.fresh =
          tokens(tok, in_span(spec.followup, pos[k].followup[j]), spec.vocab);
      if (open) {
        turn.think_s = spec.think_lo_s +
                       (spec.think_hi_s - spec.think_lo_s) * pos[k].think[j];
      }
    }
  }
  return plan;
}

}  // namespace

std::uint64_t Rng::next() noexcept {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) noexcept {
  return static_cast<std::uint64_t>(uniform() * static_cast<double>(n)) % n;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  Rng rng(seed * 0x100000001B3ULL + stream);
  rng.next();
  return rng.next();
}

std::vector<double> stratified_unit(Rng& rng, std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (static_cast<double>(order[i]) + 0.375 + 0.25 * rng.uniform()) /
             static_cast<double>(n);
  }
  return out;
}

Plan make_open_plan(const WorkloadSpec& spec, std::uint64_t seed,
                    std::size_t n) {
  return make_plan(spec, seed, n, /*open=*/true);
}

Plan make_closed_plan(const WorkloadSpec& spec, std::uint64_t seed,
                      std::size_t n) {
  return make_plan(spec, derive_seed(seed, kClosedStream), n, /*open=*/false);
}

Plan make_warmup_plan(const WorkloadSpec& spec, std::uint64_t seed) {
  Plan plan;
  Rng tok(derive_seed(seed, kWarmupStream));
  plan.sessions.resize(4);
  for (Session& s : plan.sessions) {
    s.turns.resize(1);
    s.turns[0].fresh = tokens(tok, 512, spec.vocab);
    s.turns[0].max_new = 32;
  }
  return plan;
}

std::vector<std::int32_t> first_prompt(const Plan& plan,
                                       const Session& session) {
  std::vector<std::int32_t> prompt = plan.prefix;
  const auto& fresh = session.turns.front().fresh;
  prompt.insert(prompt.end(), fresh.begin(), fresh.end());
  return prompt;
}

std::vector<std::int32_t> next_prompt(std::span<const std::int32_t> prev,
                                      std::span<const std::int32_t> reply,
                                      std::span<const std::int32_t> fresh) {
  std::vector<std::int32_t> prompt(prev.begin(), prev.end());
  prompt.insert(prompt.end(), reply.begin(), reply.end());
  prompt.insert(prompt.end(), fresh.begin(), fresh.end());
  return prompt;
}

std::size_t open_sessions(const WorkloadSpec& spec, double seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(spec.rate * seconds * spec.open_share)));
}

std::size_t closed_sessions(const WorkloadSpec& spec, double seconds,
                            std::size_t connections) {
  return std::max<std::size_t>(
      connections,
      static_cast<std::size_t>(std::lround(spec.sat_rate * seconds * spec.closed_share)));
}

}  // namespace servebench
