#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace servebench {

namespace {

/// Nanoseconds of [start_ns, end_ns) covered by the union of `children`
/// (each clipped to the interval).
std::uint64_t covered_ns(std::uint64_t start_ns, std::uint64_t end_ns,
                         std::vector<TraceSpan> children) {
  std::sort(children.begin(), children.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              return a.start_ns < b.start_ns;
            });
  std::uint64_t covered = 0;
  std::uint64_t reach = start_ns;  // end of the union so far.
  for (const TraceSpan& c : children) {
    const std::uint64_t lo = std::max(c.start_ns, reach);
    const std::uint64_t hi = std::min(c.end_ns, end_ns);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return covered;
}

}  // namespace

std::vector<std::uint64_t> self_times(const std::vector<TraceSpan>& spans) {
  std::unordered_map<std::uint64_t, std::vector<TraceSpan>> children;
  for (const TraceSpan& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  std::vector<std::uint64_t> out;
  out.reserve(spans.size());
  for (const TraceSpan& s : spans) {
    const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    const auto it = children.find(s.id);
    out.push_back(it == children.end()
                      ? dur
                      : dur - covered_ns(s.start_ns, s.end_ns, it->second));
  }
  return out;
}

namespace {

void append_event(std::string& out, const char* name, int pid,
                  std::uint64_t tid, std::uint64_t start_ns,
                  std::uint64_t dur_ns, std::uint64_t origin_ns,
                  const std::string& args) {
  char buf[160];
  const double ts = static_cast<double>(start_ns - std::min(start_ns, origin_ns)) / 1e3;
  std::snprintf(buf, sizeof(buf),
                "\"ph\":\"X\",\"pid\":%d,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f",
                pid, static_cast<unsigned long long>(tid), ts,
                static_cast<double>(dur_ns) / 1e3);
  if (out.size() > 1) out += ",\n";
  out += "{\"name\":\"";
  out += name;
  out += "\",";
  out += buf;
  if (!args.empty()) out += ",\"args\":{" + args + "}";
  out += "}";
}

}  // namespace

std::string chrome_trace_json(const std::vector<TraceSpan>& spans,
                              const std::vector<lserve::obs::StepTrace>& steps,
                              std::uint64_t origin_ns) {
  // Process 1 is the load generator: phases on track 0, each request on
  // its own track so its due/sent/first-token/done children nest under it.
  // Process 2 is the scheduler thread's step timeline.
  std::string out = "[";
  const std::vector<std::uint64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    const std::string args =
        "\"id\":" + std::to_string(s.id) + ",\"parent\":" +
        std::to_string(s.parent) + ",\"request\":" + std::to_string(s.request) +
        ",\"self_us\":" + std::to_string(self[i] / 1000);
    append_event(out, s.name.c_str(), 1, s.request, s.start_ns,
                 s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0, origin_ns,
                 args);
  }
  for (const lserve::obs::StepTrace& step : steps) {
    append_event(out, "step", 2, 0, step.start_ns, step.dur_ns, origin_ns,
                 "\"step\":" + std::to_string(step.step));
    for (const lserve::obs::TraceSpan& ph : step.spans) {
      append_event(out, ph.name, 2, 0, ph.start_ns, ph.dur_ns, origin_ns,
                   "\"step\":" + std::to_string(step.step));
    }
  }
  out += "]\n";
  return out;
}

}  // namespace servebench
