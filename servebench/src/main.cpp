// servebench: the repository's serving benchmark.
//
// Starts the real stack in-process (serve::Engine -> serve::Scheduler ->
// net::HttpServer, wired as `lserve_serve --model=tiny` wires it), drives
// one seeded workload at it over loopback HTTP/SSE, checks every streamed
// output against a serial replay, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a second, traced run (--trace 1).
// The last line of standard output is one JSON object:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
//
// run.py builds this binary and passes the workload's traffic parameters
// from setup.json; README.md documents the workloads and metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "components.hpp"
#include "loadgen.hpp"
#include "net/server.hpp"
#include "numeric/quant.hpp"
#include "obs/metrics.hpp"
#include "obs/step_tracer.hpp"
#include "serve/scheduler.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace servebench;
using namespace lserve;

// The deployment (servebench/setup.json records it; README.md explains it).
constexpr std::size_t kConnections = 4;
constexpr std::size_t kDecodeThreads = 2;
constexpr std::size_t kPrefixCachePages = 4096;
constexpr std::size_t kTraceSteps = 256;           // as serve_main.
constexpr std::size_t kTracedRingSteps = 1 << 19;  // every step of a run.
// setup_s is the median over this many set-ups, half of them run before
// the measured phases and half after (see main).
constexpr std::size_t kSetups = 16;

// ---------------------------------------------------------------------------
// Build check: numbers only come from an optimized, uninstrumented build.

bool refused_build(std::string& why) {
#if defined(LSERVE_AUDIT)
  why = "built with LSERVE_AUDIT";
  return true;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why = "built with a sanitizer";
  return true;
#elif !defined(NDEBUG)
  why = "built without NDEBUG";
  return true;
#else
  if (std::string(SERVEBENCH_BUILD_TYPE) != "Release") {
    why = std::string("build type is ") + SERVEBENCH_BUILD_TYPE;
    return true;
  }
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Arguments.

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  WorkloadSpec spec;
  std::size_t replay_sessions = 2;
  std::string commit = "unknown";
  std::string trace_dir = ".";
};

bool parse_span(const char* s, Span& out) {
  char* end = nullptr;
  out.lo = std::strtoull(s, &end, 10);
  if (*end != ':') return false;
  out.hi = std::strtoull(end + 1, &end, 10);
  return *end == '\0' && out.hi >= out.lo;
}

bool parse_args(int argc, char** argv, Args& a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    kv[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0) return false;
  const auto take = [&](const char* key, std::string& out) {
    const auto it = kv.find(key);
    if (it == kv.end()) return false;
    out = it->second;
    kv.erase(it);
    return true;
  };
  std::string v;
  bool ok = take("workload", a.workload);
  ok = ok && take("seed", v) && (a.seed = std::strtoull(v.c_str(), nullptr, 10), true);
  ok = ok && take("seconds", v) && (a.seconds = std::atof(v.c_str())) > 0.0;
  ok = ok && take("trace", v) && (v == "0" || v == "1");
  a.trace = v == "1";
  WorkloadSpec& s = a.spec;
  s.name = a.workload;
  ok = ok && take("prefix-tokens", v) &&
       (s.prefix_tokens = std::strtoull(v.c_str(), nullptr, 10), true);
  ok = ok && take("prompt", v) && parse_span(v.c_str(), s.prompt);
  ok = ok && take("followup", v) && parse_span(v.c_str(), s.followup);
  ok = ok && take("reply", v) && parse_span(v.c_str(), s.reply) && s.reply.lo > 0;
  ok = ok && take("turns", v) && parse_span(v.c_str(), s.turns) && s.turns.lo > 0;
  Span think_ms;
  ok = ok && take("think-ms", v) && parse_span(v.c_str(), think_ms);
  s.think_lo_s = static_cast<double>(think_ms.lo) / 1e3;
  s.think_hi_s = static_cast<double>(think_ms.hi) / 1e3;
  ok = ok && take("rate", v) && (s.rate = std::atof(v.c_str())) > 0.0;
  ok = ok && take("sat-rate", v) && (s.sat_rate = std::atof(v.c_str())) > 0.0;
  ok = ok && take("open-share", v) && (s.open_share = std::atof(v.c_str())) > 0.0;
  ok = ok && take("closed-share", v) && (s.closed_share = std::atof(v.c_str())) > 0.0;
  ok = ok && take("ttft-slo-ms", v) && (s.ttft_slo_ms = std::atof(v.c_str())) > 0.0;
  ok = ok && take("tpot-slo-ms", v) && (s.tpot_slo_ms = std::atof(v.c_str())) > 0.0;
  if (take("replay-sessions", v)) a.replay_sessions = std::strtoull(v.c_str(), nullptr, 10);
  take("commit", a.commit);
  take("trace-dir", a.trace_dir);
  if (!kv.empty()) {
    std::fprintf(stderr, "servebench: unknown option --%s\n", kv.begin()->first.c_str());
    return false;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// The deployment under test.

serve::EngineConfig engine_config() {
  serve::EngineConfig ec = baselines::lserve_config(model::tiny());
  ec.prefill_chunk_tokens = 128;
  ec.memory.prefix_cache_pages = kPrefixCachePages;
  ec.enable_prefix_cache = true;
  return ec;
}

/// One serving stack, destroyed in reverse order of construction.
struct Stack {
  std::unique_ptr<serve::Engine> engine;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::StepTracer> tracer;
  std::unique_ptr<serve::Scheduler> sched;
  std::unique_ptr<net::HttpServer> server;
  std::uint16_t port = 0;
};

std::unique_ptr<Stack> start_stack(const serve::EngineConfig& ec,
                                   std::size_t trace_steps) {
  auto s = std::make_unique<Stack>();
  s->engine = std::make_unique<serve::Engine>(ec);
  s->metrics = std::make_unique<obs::MetricsRegistry>();
  s->tracer = std::make_unique<obs::StepTracer>(trace_steps);
  serve::SchedulerConfig sc;
  sc.max_batch = 8;
  sc.decode_threads = kDecodeThreads;
  sc.memory = ec.memory;
  sc.metrics = s->metrics.get();
  sc.tracer = s->tracer.get();
  s->sched = std::make_unique<serve::Scheduler>(*s->engine, sc);
  net::ServerConfig server_cfg;
  server_cfg.port = 0;
  server_cfg.max_live = 64;
  server_cfg.metrics = s->metrics.get();
  server_cfg.tracer = s->tracer.get();
  s->server = std::make_unique<net::HttpServer>(*s->sched, server_cfg);
  s->port = s->server->start();
  // Ready once /healthz answers.
  std::string body;
  for (int i = 0; i < 5000 && http_get(s->port, "/healthz", body) != 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return s;
}

/// The warm-up: small disjoint requests, closed loop, before any timing.
PhaseResult warm_up(const Stack& s, const Args& a) {
  LoadOptions opt;
  opt.port = s.port;
  opt.open_loop = false;
  opt.limit_s = 60.0;
  return run_phase("warmup", make_warmup_plan(a.spec, a.seed), opt);
}

/// One set-up: engine construction to /healthz answering, plus the
/// warm-up. Appends its seconds to `times`; null when the warm-up failed.
std::unique_ptr<Stack> set_up(const serve::EngineConfig& ec, const Args& a,
                              std::vector<double>& times) {
  const std::uint64_t t0 = now_ns();
  auto s = start_stack(ec, kTraceSteps);
  const PhaseResult w = warm_up(*s, a);
  times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  for (const RequestRecord& r : w.requests) {
    if (!r.ok()) {
      std::fprintf(stderr, "servebench: warm-up failed: %s\n", r.error.c_str());
      return nullptr;
    }
  }
  return s;
}

/// Stops the server; true when no KV page is live beyond the prefix
/// cache's own references.
bool stop_and_check_pages(Stack& s, std::string& report) {
  s.server->stop();
  const std::size_t live = s.engine->total_pages_in_use();
  const std::size_t held = s.engine->prefix_cache_pages_held();
  if (live == held) return true;
  report = std::to_string(live) + " pages live, prefix cache holds " +
           std::to_string(held);
  return false;
}

// ---------------------------------------------------------------------------
// Measured phases.

struct Measured {
  PhaseResult rate;
  PhaseResult sat;
};

Measured run_measured(const Stack& s, const Args& a, std::uint64_t first_id) {
  Measured m;
  LoadOptions opt;
  opt.port = s.port;
  opt.connections = kConnections;
  opt.limit_s = std::max(60.0, 2.5 * a.seconds);
  opt.first_id = first_id;
  opt.open_loop = true;
  m.rate = run_phase("rate", make_open_plan(a.spec, a.seed, open_sessions(a.spec, a.seconds)), opt);
  opt.open_loop = false;
  opt.first_id = first_id + m.rate.requests.size();
  m.sat = run_phase("saturation",
                    make_closed_plan(a.spec, a.seed,
                                     closed_sessions(a.spec, a.seconds, kConnections)),
                    opt);
  return m;
}

double ms(std::uint64_t from_ns, std::uint64_t to_ns) {
  return to_ns > from_ns ? static_cast<double>(to_ns - from_ns) / 1e6 : 0.0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Output check: a seeded sample of sessions replayed serially through a
// fresh engine with the prefix cache off. The engine's outputs do not
// depend on batching, thread count or prefix reuse, so any difference
// from the streamed output is a bug.

struct ReplayResult {
  std::size_t requests = 0;
  std::size_t mismatches = 0;
  std::size_t selector_runs = 0;
  std::size_t selector_reuses = 0;
};

ReplayResult replay(const serve::EngineConfig& deployed,
                    const std::vector<const PhaseResult*>& phases,
                    std::size_t sessions, std::uint64_t seed) {
  // Candidate sessions: every turn finished correctly.
  struct Key {
    const PhaseResult* phase;
    std::size_t session;
  };
  std::vector<Key> keys;
  for (const PhaseResult* p : phases) {
    std::map<std::size_t, bool> good;
    for (const RequestRecord& r : p->requests) {
      auto [it, fresh] = good.emplace(r.session, r.ok());
      if (!fresh) it->second = it->second && r.ok();
    }
    for (const auto& [session, ok] : good) {
      if (ok) keys.push_back(Key{p, session});
    }
  }
  Rng rng(derive_seed(seed, 77));
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.below(i)]);
  }
  keys.resize(std::min(keys.size(), sessions));

  serve::EngineConfig ec = deployed;
  ec.enable_prefix_cache = false;
  ec.memory.prefix_cache_pages = 0;
  std::vector<ReplayResult> part(keys.size());
  std::vector<std::thread> workers;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    workers.emplace_back([&, k] {
      ReplayResult& out = part[k];
      std::vector<const RequestRecord*> turns;
      for (const RequestRecord& r : keys[k].phase->requests) {
        if (r.session == keys[k].session) turns.push_back(&r);
      }
      std::sort(turns.begin(), turns.end(),
                [](const RequestRecord* x, const RequestRecord* y) {
                  return x->turn < y->turn;
                });
      try {
        serve::Engine engine(ec);
        for (const RequestRecord* r : turns) {
          const serve::SequenceId id = engine.create_sequence();
          const std::vector<std::int32_t> expect =
              engine.generate(id, r->prompt, r->max_new);
          // Selector counters sum over live sequences only: read them
          // before the release.
          out.selector_runs += engine.stats().selector_runs;
          out.selector_reuses += engine.stats().selector_reuses;
          engine.release_sequence(id);
          ++out.requests;
          if (expect != r->output) ++out.mismatches;
        }
      } catch (const std::exception& e) {
        // A replay that cannot finish checks nothing: count it as a
        // mismatch so the run fails.
        std::fprintf(stderr, "servebench: replay failed: %s\n", e.what());
        ++out.mismatches;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  ReplayResult total;
  for (const ReplayResult& p : part) {
    total.requests += p.requests;
    total.mismatches += p.mismatches;
    total.selector_runs += p.selector_runs;
    total.selector_reuses += p.selector_reuses;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void print_metric(std::vector<Metric>& out, const std::string& name,
                  double value, const std::string& unit,
                  const std::string& note = "") {
  std::printf("  %-34s %14.4f %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
  out.push_back(Metric{name, value, unit, note});
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

/// Client TTFT, from the due time, of a phase's finished streams.
std::vector<double> ttft_samples(const PhaseResult& p) {
  std::vector<double> out;
  for (const RequestRecord& r : p.requests) {
    if (r.ok()) out.push_back(ms(r.due_ns, r.first_ns));
  }
  return out;
}

/// Gaps between consecutive token events, pooled over a phase's finished
/// streams.
std::vector<double> tpot_samples(const PhaseResult& p) {
  std::vector<double> out;
  for (const RequestRecord& r : p.requests) {
    if (!r.ok()) continue;
    for (std::size_t i = 1; i < r.token_ns.size(); ++i) {
      out.push_back(ms(r.token_ns[i - 1], r.token_ns[i]));
    }
  }
  return out;
}

std::string tail_note(const Summary& s) {
  return "p50 / mean beyond p" + std::to_string(s.tail_p) + ", n=" +
         std::to_string(s.n);
}

/// End-to-end metrics of the untraced run.
std::vector<Metric> end_to_end(const Args& a, const Measured& m,
                               double setup_s, double rss_mb) {
  std::vector<Metric> out;
  // TTFT at the offered rate; token pace under saturation, where every
  // stream shares its steps with the other connections' prefills.
  const Summary t1 = summarize(ttft_samples(m.rate));
  const Summary t2 = summarize(tpot_samples(m.sat));
  std::size_t met = 0;
  for (const RequestRecord& r : m.rate.requests) {
    if (r.ok() && ms(r.due_ns, r.first_ns) <= a.spec.ttft_slo_ms &&
        r.mean_tpot_ms() <= a.spec.tpot_slo_ms) {
      ++met;
    }
  }
  const double slo = m.rate.requests.empty()
                         ? 0.0
                         : static_cast<double>(met) /
                               static_cast<double>(m.rate.requests.size());
  // Over the connections' busy time: with a handful of long requests, the
  // idle tail after the closed set runs out would decide a wall-time figure.
  const double sat = m.sat.busy_rate(kConnections);
  print_metric(out, "setup_s", setup_s, "s", "median of " + std::to_string(kSetups) + " set-ups incl. warm-up, half before and half after the phases");
  print_metric(out, "ttft_p50_ms", t1.p50, "ms", "rate phase, " + tail_note(t1));
  print_metric(out, "ttft_tail_ms", t1.tail, "ms", "mean beyond p" + std::to_string(t1.tail_p));
  print_metric(out, "tpot_p50_ms", t2.p50, "ms", "saturation phase, " + tail_note(t2));
  print_metric(out, "tpot_tail_ms", t2.tail, "ms", "mean beyond p" + std::to_string(t2.tail_p));
  char note[128];
  std::snprintf(note, sizeof(note), "%zu/%zu within TTFT %.0f ms, mean TPOT %.0f ms",
                met, m.rate.requests.size(), a.spec.ttft_slo_ms, a.spec.tpot_slo_ms);
  print_metric(out, "slo_attainment", slo, "share", note);
  print_metric(out, "sat_req_per_s", sat, "req/s",
               std::to_string(m.sat.succeeded()) + " requests closed-loop over " +
                   std::to_string(kConnections) + " connections, over their mean busy time");
  print_metric(out, "peak_rss_mb", rss_mb, "MB", "VmHWM");
  return out;
}

// ---------------------------------------------------------------------------
// The traced run's per-layer metrics.

struct CounterSnap {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::vector<std::uint64_t>> buckets;
  std::map<std::string, double> sums;
  kv::PrefixCacheStats prefix;
};

const char* const kCounters[] = {
    "lserve_http_accepts_total",         "lserve_http_sheds_total",
    "lserve_sse_backpressure_stalls_total", "lserve_prefill_chunks_total",
    "lserve_preemptions_total",          "lserve_admission_deferrals_total",
    "lserve_prefix_tokens_reused_total",
};
const char* const kHistograms[] = {"lserve_request_queue_wait_seconds",
                                   "lserve_request_ttft_seconds"};

CounterSnap snapshot(const Stack& s) {
  CounterSnap snap;
  for (const char* name : kCounters) {
    const obs::Counter* c = s.metrics->find_counter(name);
    snap.counters[name] = c == nullptr ? 0 : c->value();
  }
  for (const char* name : kHistograms) {
    const obs::Histogram* h = s.metrics->find_histogram(name);
    if (h == nullptr) continue;
    snap.buckets[name] = h->bucket_counts();
    snap.sums[name] = h->sum();
  }
  if (s.engine->prefix_cache() != nullptr) {
    snap.prefix = s.engine->prefix_cache()->stats();
  }
  return snap;
}

struct Traced {
  Measured m;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  CounterSnap before, after;
  serve::EngineStats engine;  ///< delta over the traced phases.
  kv::PageAllocator::Occupancy occupancy;
  std::vector<obs::StepTrace> steps;
  std::uint64_t committed = 0;
  std::vector<double> hist_bounds;
  bool pages_ok = true;
  std::string pages_report;
};

serve::EngineStats minus(const serve::EngineStats& a,
                         const serve::EngineStats& b) {
  serve::EngineStats d;
  d.prefill_tokens = a.prefill_tokens - b.prefill_tokens;
  d.decode_steps = a.decode_steps - b.decode_steps;
  d.tokens_visited = a.tokens_visited - b.tokens_visited;
  d.pages_visited = a.pages_visited - b.pages_visited;
  return d;
}

Traced run_traced(const serve::EngineConfig& ec, const Args& a,
                  const serve::EngineStats& warm_stats) {
  Traced t;
  auto s = start_stack(ec, kTracedRingSteps);
  warm_up(*s, a);
  t.before = snapshot(*s);
  t.start_ns = now_ns();
  t.m = run_measured(*s, a, 1);
  t.end_ns = now_ns();
  t.after = snapshot(*s);
  t.pages_ok = stop_and_check_pages(*s, t.pages_report);
  t.engine = minus(s->engine->stats(), warm_stats);
  t.occupancy = s->engine->pool_occupancy();
  t.steps = s->tracer->snapshot();
  t.committed = s->tracer->committed();
  const obs::Histogram* h = s->metrics->find_histogram(kHistograms[0]);
  if (h != nullptr) t.hist_bounds = h->upper_bounds();
  return t;
}

std::uint64_t delta(const Traced& t, const char* counter) {
  return t.after.counters.at(counter) - t.before.counters.at(counter);
}

std::vector<std::uint64_t> bucket_delta(const Traced& t, const char* hist) {
  const auto& b = t.before.buckets.at(hist);
  std::vector<std::uint64_t> d = t.after.buckets.at(hist);
  for (std::size_t i = 0; i < d.size() && i < b.size(); ++i) d[i] -= b[i];
  return d;
}

/// Per-layer metrics of the traced run; `spans` receives its client spans.
std::vector<Metric> per_layer(const serve::EngineConfig& ec,
                              const Traced& t, const ReplayResult& rp,
                              double untraced_tpot_p50,
                              std::vector<TraceSpan>& spans) {
  std::vector<Metric> out;
  const model::ModelConfig& mc = ec.model;
  const PhaseResult* phases[] = {&t.m.rate, &t.m.sat};

  // --- loadgen
  std::printf(" loadgen\n");
  std::vector<double> lag;
  for (const RequestRecord& r : t.m.rate.requests) lag.push_back(ms(r.due_ns, r.sent_ns));
  for (const PhaseResult* p : phases) {
    print_metric(out, "loadgen." + p->name + ".sent", static_cast<double>(p->requests.size()), "count");
    print_metric(out, "loadgen." + p->name + ".succeeded", static_cast<double>(p->succeeded()), "count");
    print_metric(out, "loadgen." + p->name + ".failed", static_cast<double>(p->failed()), "count");
  }
  const Summary lag_s = summarize(lag);
  print_metric(out, "loadgen.send_lag_tail_ms", lag_s.tail, "ms", "rate phase, " + tail_note(lag_s));

  // --- net
  std::printf(" net\n");
  print_metric(out, "net.accepts", static_cast<double>(delta(t, "lserve_http_accepts_total")), "count");
  print_metric(out, "net.sheds", static_cast<double>(delta(t, "lserve_http_sheds_total")), "count");
  print_metric(out, "net.sse_stalls", static_cast<double>(delta(t, "lserve_sse_backpressure_stalls_total")), "count");
  double client_ttft = 0.0;
  std::size_t n_ok = 0;
  std::size_t prompt_tokens = 0;
  for (const PhaseResult* p : phases) {
    for (const RequestRecord& r : p->requests) {
      prompt_tokens += r.prompt.size();
      if (!r.ok()) continue;
      client_ttft += ms(r.sent_ns, r.first_ns);
      ++n_ok;
    }
  }
  client_ttft /= static_cast<double>(std::max<std::size_t>(n_ok, 1));
  const auto ttft_b = bucket_delta(t, kHistograms[1]);
  std::uint64_t ttft_n = 0;
  for (const std::uint64_t c : ttft_b) ttft_n += c;
  const double server_ttft =
      ttft_n == 0 ? 0.0
                  : (t.after.sums.at(kHistograms[1]) - t.before.sums.at(kHistograms[1])) * 1e3 /
                        static_cast<double>(ttft_n);
  print_metric(out, "net.ttft_overhead_ms", client_ttft - server_ttft, "ms",
               "client mean (sent -> first token) - lserve_request_ttft_seconds mean");

  // --- scheduler
  std::printf(" scheduler\n");
  const auto qw = bucket_delta(t, kHistograms[0]);
  std::uint64_t qn = 0;
  for (const std::uint64_t c : qw) qn += c;
  const int q_tail = tail_percentile(qn);
  print_metric(out, "scheduler.queue_wait_p50_ms", bucket_quantile(t.hist_bounds, qw, 0.5) * 1e3, "ms",
               "lserve_request_queue_wait_seconds, p50 / p" + std::to_string(q_tail) + " of n=" + std::to_string(qn));
  print_metric(out, "scheduler.queue_wait_tail_ms",
               bucket_quantile(t.hist_bounds, qw, q_tail / 100.0) * 1e3, "ms");
  std::vector<double> step_ms;
  double total_step = 0.0, total_prefill = 0.0, total_decode = 0.0;
  std::size_t decode_batches = 0;
  for (const obs::StepTrace& st : t.steps) {
    if (st.start_ns < t.start_ns || st.start_ns > t.end_ns) continue;
    step_ms.push_back(static_cast<double>(st.dur_ns) / 1e6);
    total_step += static_cast<double>(st.dur_ns) / 1e6;
    for (const obs::TraceSpan& sp : st.spans) {
      const double d = static_cast<double>(sp.dur_ns) / 1e6;
      if (std::strcmp(sp.name, "prefill_chunk") == 0) total_prefill += d;
      // An empty batch (a prefill-only step) returns within a few
      // microseconds; one sequence's decode takes a hundred or more.
      if (std::strcmp(sp.name, "decode_batch") == 0) {
        total_decode += d;
        if (sp.dur_ns > 20000) ++decode_batches;
      }
    }
  }
  const Summary steps = summarize(step_ms);
  const std::string ring =
      t.committed > kTracedRingSteps ? " (ring overflowed: " + std::to_string(t.committed) + " steps)" : "";
  print_metric(out, "scheduler.step_ms_p50", steps.p50, "ms", "StepTracer step span, " + tail_note(steps) + ring);
  print_metric(out, "scheduler.step_ms_tail", steps.tail, "ms", "mean beyond p" + std::to_string(steps.tail_p));
  print_metric(out, "scheduler.self_ms_per_step",
               (total_step - total_prefill - total_decode) / static_cast<double>(std::max<std::size_t>(steps.n, 1)),
               "ms", "step - prefill_chunk - decode_batch");
  print_metric(out, "scheduler.busy_share", total_step / ms(t.start_ns, t.end_ns), "share",
               "step time / wall time of the traced phases");
  print_metric(out, "scheduler.batch_mean",
               static_cast<double>(t.engine.decode_steps) / static_cast<double>(std::max<std::size_t>(decode_batches, 1)),
               "seqs", "EngineStats::decode_steps / non-empty decode_batch spans");
  print_metric(out, "scheduler.prefill_chunks", static_cast<double>(delta(t, "lserve_prefill_chunks_total")), "count");
  print_metric(out, "scheduler.preemptions", static_cast<double>(delta(t, "lserve_preemptions_total")), "count");
  print_metric(out, "scheduler.deferrals", static_cast<double>(delta(t, "lserve_admission_deferrals_total")), "count");

  // --- engine
  std::printf(" engine\n");
  print_metric(out, "engine.prefill_tokens", static_cast<double>(t.engine.prefill_tokens), "count");
  print_metric(out, "engine.prefill_us_per_token",
               total_prefill * 1e3 / static_cast<double>(std::max<std::size_t>(t.engine.prefill_tokens, 1)), "us",
               "prefill_chunk span time / EngineStats::prefill_tokens");
  print_metric(out, "engine.decode_steps", static_cast<double>(t.engine.decode_steps), "count");
  print_metric(out, "engine.decode_us_per_seq_step",
               total_decode * 1e3 / static_cast<double>(std::max<std::size_t>(t.engine.decode_steps, 1)), "us",
               "decode_batch span time / EngineStats::decode_steps");
  print_metric(out, "engine.prefill_busy_share", total_prefill / std::max(total_prefill + total_decode, 1e-9),
               "share", "prefill_chunk / (prefill_chunk + decode_batch) span time");

  // --- kv
  std::printf(" kv\n");
  const double reused = static_cast<double>(delta(t, "lserve_prefix_tokens_reused_total"));
  print_metric(out, "kv.prefix_hit_share", reused / static_cast<double>(std::max<std::size_t>(prompt_tokens, 1)),
               "share", "prompt tokens reused / prompt tokens sent");
  print_metric(out, "kv.prefix_hits", static_cast<double>(t.after.prefix.hits - t.before.prefix.hits), "count");
  print_metric(out, "kv.prefix_misses", static_cast<double>(t.after.prefix.misses - t.before.prefix.misses), "count");
  print_metric(out, "kv.prefix_cow_copies",
               static_cast<double>(t.after.prefix.cow_copies - t.before.prefix.cow_copies), "count");
  print_metric(out, "kv.prefix_evictions",
               static_cast<double>(t.after.prefix.evictions - t.before.prefix.evictions), "count");
  print_metric(out, "kv.pages_peak", static_cast<double>(t.occupancy.peak_in_use), "pages");
  print_metric(out, "kv.pool_utilization",
               static_cast<double>(t.occupancy.peak_in_use) /
                   static_cast<double>(std::max<std::size_t>(t.occupancy.capacity, 1)),
               "share", "peak pages in use / pool capacity");

  // Decode contexts of every sequence-step, from the streamed shapes: the
  // step producing token j (j >= 1) of a P-token prompt attends P + j tokens.
  std::vector<double> contexts;
  std::vector<double> histories;
  double context_sum = 0.0;
  std::size_t past_budget = 0, seq_steps = 0;
  for (const PhaseResult* p : phases) {
    for (const RequestRecord& r : p->requests) {
      if (!r.ok()) continue;
      for (std::size_t h = 0; h < r.prompt.size(); h += ec.prefill_chunk_tokens) {
        histories.push_back(static_cast<double>(h));
      }
      for (std::size_t j = 1; j < r.output.size(); ++j) {
        const std::size_t ctx = r.prompt.size() + j;
        contexts.push_back(static_cast<double>(ctx));
        context_sum += static_cast<double>(ctx);
        past_budget += ctx > ec.selector.token_budget ? 1 : 0;
        ++seq_steps;
      }
    }
  }
  const std::size_t decode_ctx = static_cast<std::size_t>(percentile(contexts, 50.0));
  const std::size_t prefill_hist = static_cast<std::size_t>(percentile(histories, 50.0));
  if (seq_steps != t.engine.decode_steps) {
    std::printf("  note: %zu sequence-steps streamed, EngineStats counted %zu\n", seq_steps,
                t.engine.decode_steps);
  }
  const ComponentTimings c = time_components(ec, decode_ctx, prefill_hist);
  print_metric(out, "kv.append_us_per_token", c.append_us_per_token, "us",
               "TwoWayKvCache::append, all layers and kv heads, at " + std::to_string(c.decode_context) + " tokens");

  // --- sparse
  std::printf(" sparse\n");
  print_metric(out, "sparse.selector_runs", static_cast<double>(rp.selector_runs), "count",
               "EngineStats over the " + std::to_string(rp.requests) + " replayed requests");
  print_metric(out, "sparse.reuse_share",
               static_cast<double>(rp.selector_reuses) /
                   static_cast<double>(std::max<std::size_t>(rp.selector_runs + rp.selector_reuses, 1)),
               "share", "reuses / (runs + reuses), replayed requests");
  const double heads_layers = static_cast<double>(mc.q_heads * mc.layers);
  print_metric(out, "sparse.kept_share",
               static_cast<double>(t.engine.tokens_visited) / std::max(context_sum * heads_layers, 1.0), "share",
               "EngineStats::tokens_visited / sum(context x q_heads x layers)");
  print_metric(out, "sparse.past_budget_share",
               static_cast<double>(past_budget) / static_cast<double>(std::max<std::size_t>(seq_steps, 1)), "share",
               "sequence-steps with context > " + std::to_string(ec.selector.token_budget));
  print_metric(out, "sparse.select_us", c.select_us, "us",
               "select_pages_hierarchical at " + std::to_string(c.decode_context) + " tokens");

  // --- attn
  std::printf(" attn\n");
  print_metric(out, "attn.decode_us", c.decode_us, "us",
               "fused_sparse_decode, one layer, at " + std::to_string(c.decode_context) + " tokens");
  const double tokens_per_step =
      static_cast<double>(t.engine.tokens_visited) / static_cast<double>(std::max<std::size_t>(t.engine.decode_steps, 1));
  const double kv_bytes_per_token =
      2.0 * static_cast<double>(mc.head_dim) * num::bytes_per_element(ec.dense_pages.dtype);
  print_metric(out, "attn.decode_kv_bytes_per_step", tokens_per_step * kv_bytes_per_token, "bytes",
               "computed: tokens visited x K+V payload bytes, not measured");
  print_metric(out, "attn.decode_flop_per_step", tokens_per_step * 4.0 * static_cast<double>(mc.head_dim),
               "flop", "computed: tokens visited x 4 x head_dim, not measured");
  print_metric(out, "attn.prefill_chunk_us", c.prefill_chunk_us, "us",
               "fused_chunked_prefill, one layer, 128 tokens after " + std::to_string(c.prefill_history));

  // --- model
  std::printf(" model\n");
  print_metric(out, "model.decode_linear_us", c.decode_linear_us, "us", "all layers + readout, one row");
  print_metric(out, "model.prefill_linear_us_per_token", c.prefill_linear_us_per_token, "us",
               "all layers + readout, 128-row chunk");

  // --- obs
  std::printf(" obs\n");
  const double traced_tpot = percentile(tpot_samples(t.m.sat), 50.0);
  print_metric(out, "obs.trace_overhead_share", traced_tpot / untraced_tpot_p50 - 1.0, "share",
               "traced tpot_p50_ms / untraced - 1");

  // Client spans: phase -> request -> (generator wait, to first token,
  // stream). Request r owns span ids 4r..4r+3; phases take 1 and 2.
  std::uint64_t phase_id = 1;
  for (const PhaseResult* p : phases) {
    spans.push_back(TraceSpan{p->name, phase_id, 0, 0, p->start_ns, p->end_ns});
    for (const RequestRecord& r : p->requests) {
      const std::uint64_t id = 4 * r.id;
      const std::uint64_t first = r.first_ns != 0 ? r.first_ns : r.done_ns;
      spans.push_back(TraceSpan{"request", id, phase_id, r.id, r.due_ns, r.done_ns});
      spans.push_back(TraceSpan{"generator_wait", id + 1, id, r.id, r.due_ns, r.sent_ns});
      spans.push_back(TraceSpan{"to_first_token", id + 2, id, r.id, r.sent_ns, first});
      spans.push_back(TraceSpan{"stream", id + 3, id, r.id, first, r.done_ns});
    }
    ++phase_id;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S --trace 0|1\n"
                 "  --prefix-tokens N --prompt LO:HI --followup LO:HI --reply LO:HI\n"
                 "  --turns LO:HI --think-ms LO:HI --rate R --sat-rate R\n"
                 "  --open-share F --closed-share F\n"
                 "  --ttft-slo-ms MS --tpot-slo-ms MS\n"
                 "  [--replay-sessions N] [--commit ID] [--trace-dir DIR]\n"
                 "(run.py supplies the workload options from setup.json)\n");
    return 2;
  }
  std::string why;
  if (refused_build(why)) {
    std::fprintf(stderr, "servebench: refusing to report: %s\n", why.c_str());
    return 3;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const serve::EngineConfig ec = engine_config();
  a.spec.vocab = ec.model.vocab;
  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  std::printf("build: %s %s flags=[%s] hardware_threads=%u commit=%s\n", SERVEBENCH_COMPILER,
              SERVEBENCH_BUILD_TYPE, SERVEBENCH_CXX_FLAGS, std::thread::hardware_concurrency(),
              a.commit.c_str());
  std::printf("deployment: lserve_config(tiny) kv=%s page=%zu/%zu streaming=%.2f (%zu sink + %zu local) "
              "budget=%zu reuse=%zu prefill_chunk=%zu max_batch=8 decode_threads=%zu "
              "prefix_cache_pages=%zu max_live=64 trace_steps=%zu connections=%zu\n",
              num::dtype_name(ec.dense_pages.dtype), ec.dense_pages.page_size,
              ec.dense_pages.logical_page_size, ec.streaming_fraction, ec.streaming.sink_tokens,
              ec.streaming.local_tokens, ec.selector.token_budget, ec.reuse_interval,
              ec.prefill_chunk_tokens, kDecodeThreads, kPrefixCachePages, kTraceSteps,
              kConnections);
  std::printf("traffic: rate=%g sessions/s over %zu sessions, closed loop %zu sessions\n", a.spec.rate,
              open_sessions(a.spec, a.seconds), closed_sessions(a.spec, a.seconds, kConnections));

  // Set-ups. On a shared host set-up time comes in stretches lasting
  // seconds, so half of them run before the measured phases (the last one
  // serves them) and half after: their median, setup_s, spans the run.
  std::vector<double> setup_times;
  std::unique_ptr<Stack> stack;
  for (std::size_t i = 0; i < kSetups / 2; ++i) {
    stack.reset();
    stack = set_up(ec, a, setup_times);
    if (!stack) return 1;
  }

  const Measured m = run_measured(*stack, a, 1);
  const double rss_mb = peak_rss_mb();
  std::string leak;
  bool pages_ok = stop_and_check_pages(*stack, leak);
  stack.reset();

  // The traced run subtracts the warm-up's engine counters, read here from
  // a stopped set-up.
  serve::EngineStats warm_stats;
  for (std::size_t i = kSetups / 2; i < kSetups; ++i) {
    const std::unique_ptr<Stack> s = set_up(ec, a, setup_times);
    if (!s) return 1;
    s->server->stop();
    warm_stats = s->engine->stats();
  }
  const double setup_s = percentile(setup_times, 50.0);
  std::printf("set-ups:");
  for (const double t : setup_times) std::printf(" %.3fs", t);
  std::printf("\n");

  std::optional<Traced> traced;
  if (a.trace) {
    traced = run_traced(ec, a, warm_stats);
    if (!traced->pages_ok) {
      pages_ok = false;
      leak = traced->pages_report;
    }
  }

  // Output check over every measured phase.
  std::vector<const PhaseResult*> checked = {&m.rate, &m.sat};
  if (traced) {
    checked.push_back(&traced->m.rate);
    checked.push_back(&traced->m.sat);
  }
  const ReplayResult rp = replay(ec, checked, a.replay_sessions, a.seed);
  std::size_t attempted = 0, failed = 0;
  for (const PhaseResult* p : checked) {
    attempted += p->requests.size();
    failed += p->failed();
    for (const RequestRecord& r : p->requests) {
      if (!r.ok()) {
        std::printf("failed request %llu (%s, session %zu turn %zu): %s\n",
                    static_cast<unsigned long long>(r.id), p->name.c_str(), r.session, r.turn,
                    r.error.c_str());
      }
    }
  }
  failed += rp.mismatches;
  std::printf("output check: %zu requests replayed, %zu mismatches; pages after stop: %s\n", rp.requests,
              rp.mismatches, pages_ok ? "ok" : leak.c_str());
  for (const PhaseResult* p : checked) {
    std::printf("phase %-10s sent=%zu succeeded=%zu failed=%zu wall=%.2fs\n", p->name.c_str(),
                p->requests.size(), p->succeeded(), p->failed(), p->wall_s());
  }

  std::vector<Metric> metrics;
  std::printf("end-to-end (untraced run):\n");
  std::vector<Metric> e2e = end_to_end(a, m, setup_s, rss_mb);
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(std::max<std::size_t>(attempted, 1));
  std::printf("  %-34s %14.4f %-6s %s\n", "error_rate", error_rate, "share",
              "failed / attempted, all phases, replay mismatches included");
  if (traced) {
    std::printf("per-layer (traced run):\n");
    std::vector<TraceSpan> spans;
    metrics = per_layer(ec, *traced, rp, percentile(tpot_samples(m.sat), 50.0),
                        spans);
    const std::string path = a.trace_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) + ".json";
    std::ofstream f(path);
    f << chrome_trace_json(spans, traced->steps, traced->start_ns);
    std::printf("trace: %s (%zu client spans, %llu scheduler steps)\n", path.c_str(), spans.size(),
                static_cast<unsigned long long>(traced->committed));
  } else {
    metrics = std::move(e2e);
  }

  const bool correct = pages_ok && failed == 0;
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  if (rp.mismatches > 0 || !pages_ok) return 1;
  return 0;
}
