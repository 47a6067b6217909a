// The benchmark's own trace: spans recorded around its calls into the
// server, kept in memory and written as Chrome trace JSON at exit together
// with the scheduler's StepTracer steps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/step_tracer.hpp"

namespace servebench {

/// One closed span. `id` is unique in a trace; `parent` is the id of the
/// span that caused it (0 = none). Spans of one request share `request`.
struct TraceSpan {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Same order as `spans`.
std::vector<std::uint64_t> self_times(const std::vector<TraceSpan>& spans);

/// Chrome trace-event JSON (chrome://tracing, Perfetto): the benchmark's
/// spans on one track per phase, the scheduler steps and their phase spans
/// on a second process. Timestamps are microseconds from `origin_ns`.
std::string chrome_trace_json(const std::vector<TraceSpan>& spans,
                              const std::vector<lserve::obs::StepTrace>& steps,
                              std::uint64_t origin_ns);

}  // namespace servebench
