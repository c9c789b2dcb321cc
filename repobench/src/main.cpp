// repobench: the repository benchmark.  One command runs one named
// workload for a fixed time and prints every metric by name with its
// unit, the workload's output oracles folded into the failure count:
//
//   repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// --trace 0 reports the end-to-end metrics of untraced iterations.
// --trace 1 alternates untraced and traced iterations, records
// obs::trace spans from the benchmark's own layer wrappers on the
// traced ones, drains the trace after each traced iteration into
// <out>/, folds it into the per-layer table and reports the per-layer
// metrics.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and <out>/result-<workload>-<seed>-<trace>.json keeps the same record
// with the host fingerprint and the per-layer table beside it.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arith.hpp"
#include "core/build_info.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "trace_fold.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
namespace trace = cal::obs::trace;
using namespace repobench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string out = ".bench_build/repobench/runs";
};

int usage(const std::string& problem) {
  std::cerr << "usage: repobench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n  workloads:";
  for (const auto& name : workload_names()) std::cerr << " " << name;
  std::cerr << "\n  " << problem << "\n";
  return 2;
}

/// Ordered name -> (value, unit) list, printed as the metrics object.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", entries_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

  void print(std::ostream& out) const {
    for (const auto& e : entries_) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-34s %14.6g %s\n", e.name.c_str(),
                    e.value, e.unit.c_str());
      out << line;
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Host fingerprint carried by every result record.
std::string host_json() {
  std::ostringstream out;
  out << "{\"cpu\": \"" << json_escape(cpu_model()) << "\", \"build_info\": \""
      << json_escape(cal::core::build_info_line("repobench"))
      << "\", \"simd\": \""
      << cal::simd::to_string(cal::simd::active_level())
      << "\", \"hw_threads\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": \"" << json_escape(cal::core::build_type())
      << "\", \"git_describe\": \"" << json_escape(cal::core::build_version())
      << "\"}";
  return out.str();
}

/// Restarts the kernel's count of the peak resident set (VmHWM) at the
/// current resident set, so that peak_rss_mb() reads the peak since.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak resident set (VmHWM) since the last reset_peak_rss(), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Minimum warm-up before measuring (at least one whole iteration).
constexpr double kWarmupSeconds = 4.0;

/// Queries per latency window: the smallest count whose p99 has ten
/// samples beyond it.
constexpr std::size_t kLatencyWindow = 1000;

struct Iteration {
  IterationResult result;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;  ///< peak resident set during the iteration
  bool traced = false;
  std::vector<SpanEvent> spans;  ///< traced: the spans it recorded
};

// ---------------------------------------------------------------------
// End-to-end metrics (untraced iterations).
// ---------------------------------------------------------------------

void end_to_end_metrics(const std::vector<Iteration>& its, MetricSet& m) {
  std::vector<double> setup, verdict, runs_per_s, bytes_per_record, rss, qps,
      p50, tail;
  for (const Iteration& it : its) {
    const IterationResult& r = it.result;
    setup.push_back(r.setup_s);
    rss.push_back(it.peak_rss_mb);
    verdict.push_back(r.verdict_s);
    runs_per_s.push_back(ratio(r.runs, r.campaign_s));
    bytes_per_record.push_back(ratio(r.bundle_bytes, r.records));
    qps.push_back(ratio(static_cast<double>(r.analyst.queries),
                        r.analyst.wall_s));
    // Latency windows of kLatencyWindow consecutive queries: each has a
    // p50 and a tail with >= 10 samples beyond it (p99 at 1000).
    const auto& rtt = r.analyst.rtt_ms;
    for (std::size_t w = 0; w + kLatencyWindow <= rtt.size();
         w += kLatencyWindow) {
      std::vector<double> window;
      for (std::size_t i = w; i < w + kLatencyWindow; ++i) {
        if (rtt[i] >= 0.0) window.push_back(rtt[i]);
      }
      const TailSummary serve = summarize_tail(window);
      p50.push_back(serve.p50);
      tail.push_back(serve.tail);
      std::cout << "  latency window: n=" << serve.n << " p50=" << serve.p50
                << " ms, p" << serve.tail_level << "=" << serve.tail
                << " ms\n";
    }
  }
  // Set-up is the median of the iterations' set-ups.  Every other figure
  // is the interquartile mean over iterations (latencies: over windows):
  // the host runs whole iterations in a faster or a slower state, and
  // the median of such a run jumps between the two modes, while the IQM
  // moves with their mix and one stalled iteration cannot move it.
  m.add("setup_s", median(setup), "s");
  m.add("time_to_verdict_s", interquartile_mean(verdict), "s");
  m.add("campaign_runs_per_s", interquartile_mean(runs_per_s), "1/s");
  m.add("bundle_bytes_per_record", interquartile_mean(bytes_per_record), "B");
  m.add("peak_rss_mb", interquartile_mean(rss), "MB");
  m.add("serve_qps", interquartile_mean(qps), "1/s");
  m.add("serve_p50_ms", interquartile_mean(p50), "ms");
  m.add("serve_p99_ms", interquartile_mean(tail), "ms");
}

// ---------------------------------------------------------------------
// Per-layer metrics (traced iterations + their trace).
// ---------------------------------------------------------------------

struct TraceView {
  std::vector<SpanEvent> spans;
  std::map<std::string, std::vector<double>> by_name;  // durations, s

  explicit TraceView(std::vector<SpanEvent> events) : spans(std::move(events)) {
    for (const SpanEvent& s : spans) by_name[s.name].push_back(s.dur_s);
  }
  const std::vector<double>& durations(const std::string& name) const {
    static const std::vector<double> kNone;
    const auto it = by_name.find(name);
    return it == by_name.end() ? kNone : it->second;
  }
  double total(const std::string& name) const {
    double sum = 0.0;
    for (const double d : durations(name)) sum += d;
    return sum;
  }
  std::size_t count(const std::string& name) const {
    return durations(name).size();
  }
};

std::vector<double> scaled(const std::vector<double>& v, double k) {
  std::vector<double> out(v);
  for (double& x : out) x *= k;
  return out;
}

void per_layer_metrics(const std::vector<Iteration>& its, const TraceView& tv,
                       const std::vector<LayerRow>& table,
                       const SimProbe& probe, double overhead_pct,
                       std::uint64_t dropped, MetricSet& m) {
  double traced = 0.0;
  std::vector<double> occupancy, windows, window_max, stored;
  cal::query::ScanStats scan;
  double hits = 0.0, misses = 0.0, evictions = 0.0, coalesced = 0.0,
         errors = 0.0;
  std::array<std::vector<double>, kQueryClasses> exec_ms;
  for (const Iteration& it : its) {
    if (!it.traced) continue;
    traced += 1.0;
    const IterationResult& r = it.result;
    occupancy.push_back(r.worker_occupancy);
    windows.push_back(r.window_count);
    window_max.push_back(r.window_wall_max_s);
    stored.push_back(r.stored_bytes);
    scan.blocks_total += r.analyst.scan.blocks_total;
    scan.blocks_pruned += r.analyst.scan.blocks_pruned;
    scan.records_scanned += r.analyst.scan.records_scanned;
    scan.records_matched += r.analyst.scan.records_matched;
    hits += static_cast<double>(r.analyst.cache.hits);
    misses += static_cast<double>(r.analyst.cache.misses);
    evictions += static_cast<double>(r.analyst.cache.evictions);
    coalesced += static_cast<double>(r.analyst.counters.coalesced);
    errors += static_cast<double>(r.analyst.counters.errors);
    for (std::size_t c = 0; c < kQueryClasses; ++c) {
      exec_ms[c].insert(exec_ms[c].end(), r.analyst.exec_ms[c].begin(),
                        r.analyst.exec_ms[c].end());
    }
  }
  const double per = traced > 0.0 ? 1.0 / traced : 0.0;

  // sim: calls and busy time from the wrapper, per-regime call times and
  // busy shares from the rb.sim.measure.<regime> spans.
  m.add("sim.measure_calls", static_cast<double>(probe.calls()) * per, "count");
  m.add("sim.measure_busy_s", probe.busy_s() * per, "s");
  double regime_busy[kRegimes] = {};
  double all_regimes = 0.0;
  for (std::size_t g = 0; g < kRegimes; ++g) {
    regime_busy[g] = tv.total(std::string("rb.sim.measure.") +
                              regime_name(static_cast<Regime>(g)));
    all_regimes += regime_busy[g];
  }
  for (const char* stat : {"p50", "p99"}) {
    for (std::size_t g = 0; g < kRegimes; ++g) {
      const std::string regime = regime_name(static_cast<Regime>(g));
      const TailSummary t = summarize_tail(
          scaled(tv.durations("rb.sim.measure." + regime), 1e6));
      m.add(std::string("sim.measure_us_") + stat + "." + regime,
            std::strcmp(stat, "p50") == 0 ? t.p50 : t.tail, "us");
    }
  }
  for (std::size_t g = 0; g < kRegimes; ++g) {
    m.add(std::string("sim.busy_share.") + regime_name(static_cast<Regime>(g)),
          ratio(regime_busy[g], all_regimes), "ratio");
  }
  m.add("sim.ns_per_modelled_access",
        ratio(probe.busy_s() * 1e9, probe.modelled_accesses()), "ns");
  // Share of the plan-to-verdict wall during which a sim call ran.
  std::vector<Interval> sim_spans;
  double verdict_wall = 0.0, sim_covered = 0.0;
  for (const SpanEvent& s : tv.spans) {
    if (span_layer(s.name) == "sim") {
      sim_spans.push_back({s.start_s, s.start_s + s.dur_s});
    }
  }
  for (const SpanEvent& s : tv.spans) {
    if (span_layer(s.name) != "verdict") continue;
    verdict_wall += s.dur_s;
    sim_covered += covered_within(sim_spans, {s.start_s, s.start_s + s.dur_s});
  }
  m.add("sim.verdict_coverage", ratio(sim_covered, verdict_wall), "ratio");

  const auto row = [&](const std::string& layer) {
    for (const LayerRow& r : table) {
      if (r.layer == layer) return r;
    }
    return LayerRow{layer};
  };
  m.add("core.campaign_s", tv.total("rb.core.campaign") * per, "s");
  m.add("core.engine_self_s", row("core").self_s * per, "s");
  m.add("core.worker_occupancy", median(occupancy), "ratio");
  m.add("core.window_count", median(windows), "count");
  m.add("core.window_wall_max_s", median(window_max), "s");

  m.add("archive.consume_calls",
        static_cast<double>(tv.count("rb.archive.consume")) * per, "count");
  m.add("archive.consume_busy_s", tv.total("rb.archive.consume") * per, "s");
  m.add("archive.close_s", tv.total("rb.archive.close") * per, "s");
  m.add("archive.bytes_stored", median(stored), "B");
  m.add("archive.read_s", tv.total("rb.archive.read") * per, "s");

  m.add("stats.size_diagnosis_s", tv.total("rb.stats.size_diagnosis") * per,
        "s");
  m.add("stats.breakpoint_fit_s", tv.total("rb.stats.breakpoint_fit") * per,
        "s");
  m.add("stats.net_fit_s", tv.total("rb.stats.net_fit") * per, "s");
  m.add("stats.crosscheck_s", tv.total("rb.stats.crosscheck") * per, "s");

  for (std::size_t c = 0; c < kQueryClasses; ++c) {
    m.add(std::string("query.exec_ms_p50.") +
              query_class_name(static_cast<QueryClass>(c)),
          summarize_tail(exec_ms[c]).p50, "ms");
  }
  m.add("query.blocks_pruned_ratio",
        ratio(static_cast<double>(scan.blocks_pruned),
              static_cast<double>(scan.blocks_total)),
        "ratio");
  m.add("query.records_match_ratio",
        ratio(static_cast<double>(scan.records_matched),
              static_cast<double>(scan.records_scanned)),
        "ratio");

  for (const char* stat : {"p50", "p99"}) {
    for (std::size_t c = 0; c < kQueryClasses; ++c) {
      const std::string cls = query_class_name(static_cast<QueryClass>(c));
      const TailSummary t =
          summarize_tail(scaled(tv.durations("rb.serve.call." + cls), 1e3));
      m.add(std::string("serve.rtt_ms_") + stat + "." + cls,
            std::strcmp(stat, "p50") == 0 ? t.p50 : t.tail, "ms");
    }
  }
  m.add("serve.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  m.add("serve.cache_evictions", evictions * per, "count");
  m.add("serve.coalesced", coalesced * per, "count");
  m.add("serve.errors", errors * per, "count");

  m.add("obs.trace_overhead_pct", overhead_pct, "%");
  m.add("obs.spans", static_cast<double>(tv.spans.size()) * per, "count");
  m.add("obs.spans_dropped", static_cast<double>(dropped), "count");

  for (const char* layer : {"core", "sim", "archive", "stats", "query", "serve"}) {
    const LayerRow r = row(layer);
    const std::string prefix = std::string("table.") + layer;
    m.add(prefix + ".count", static_cast<double>(r.count) * per, "count");
    m.add(prefix + ".busy_s", r.busy_s * per, "s");
    m.add(prefix + ".self_s", r.self_s * per, "s");
    m.add(prefix + ".wait_s", r.wait_s * per, "s");
  }
}

void print_table(const std::vector<LayerRow>& table, double per) {
  std::cout << "per-layer table (per traced iteration):\n";
  char line[160];
  std::snprintf(line, sizeof line, "  %-8s %10s %12s %12s %12s\n", "layer",
                "count", "busy_s", "self_s", "wait_s");
  std::cout << line;
  for (const LayerRow& r : table) {
    std::snprintf(line, sizeof line, "  %-8s %10.1f %12.6f %12.6f %12.6f\n",
                  r.layer.c_str(), static_cast<double>(r.count) * per,
                  r.busy_s * per, r.self_s * per, r.wait_s * per);
    std::cout << line;
  }
}

int run(const Args& args) {
  const std::unique_ptr<Workload> workload = make_workload(args.workload);
  if (!workload) return usage("unknown workload '" + args.workload + "'");
  fs::create_directories(args.out);
  const std::string host = host_json();
  std::cout << "host " << host << "\n";

  auto pool = std::make_shared<cal::core::WorkerPool>(4, "repobench");
  SimProbe probe(pool->size());
  ShadowCache shadow;
  Tally tally;
  std::size_t next = 0;
  const auto run_iteration = [&](bool traced, const char* label) {
    const std::size_t k = next++;
    IterationEnv env;
    env.seed = args.seed;
    env.index = k;
    env.dir = args.out + "/it" + std::to_string(k);
    env.socket = args.out + "/q" + std::to_string(k) + ".sock";
    env.pool = pool;
    env.probe = &probe;
    env.shadow = &shadow;
    fs::remove_all(env.dir);
    fs::remove(env.socket);
    fs::create_directories(env.dir + "/catalog");

    Iteration it;
    it.traced = traced;
    if (traced) trace::start();
    reset_peak_rss();
    const auto t0 = SteadyClock::now();
    try {
      it.result = workload->iterate(env);
    } catch (const std::exception& e) {
      it.result.tally.fail();
      it.result.verdict = std::string("iteration failed: ") + e.what();
    }
    it.wall_s = seconds_since(t0);
    it.peak_rss_mb = peak_rss_mb();
    if (traced) {
      // Drain now, so the per-thread rings start every traced iteration
      // empty and the run's length cannot fill them.
      trace::stop();
      const std::string path = args.out + "/trace-" + args.workload + "-" +
                               std::to_string(args.seed) + "-it" +
                               std::to_string(k) + ".json";
      trace::flush_json_file(path);
      std::ifstream in(path, std::ios::binary);
      std::stringstream text;
      text << in.rdbuf();
      it.spans = parse_trace_json(text.str());
    }
    fs::remove_all(env.dir);
    fs::remove(env.socket);

    tally.merge(it.result.tally);
    std::cout << "iteration " << k << label << ": wall " << it.wall_s
              << " s, setup " << it.result.setup_s << " s, verdict "
              << it.result.verdict_s << " s, " << it.result.analyst.queries
              << " queries in " << it.result.analyst.wall_s << " s; "
              << it.result.verdict << "\n";
    return it;
  };

  // Warm-up, not measured: the first iterations of a process pay for
  // growing the heap (the allocator's mmap threshold adapts) and first
  // page touches, which no later iteration repeats.
  const auto warm_t0 = SteadyClock::now();
  do {
    run_iteration(false, " (warm-up)");
  } while (seconds_since(warm_t0) < kWarmupSeconds);

  // Measured: untraced only, or (--trace 1) untraced and traced in turn.
  std::vector<Iteration> its;
  std::size_t traced_count = 0, untraced_count = 0;
  const auto t0 = SteadyClock::now();
  while (seconds_since(t0) < args.seconds || its.size() < 2 ||
         (args.traced && (traced_count == 0 || untraced_count == 0))) {
    const bool traced = args.traced && its.size() % 2 == 1;
    its.push_back(run_iteration(traced, traced ? " (traced)" : ""));
    (traced ? traced_count : untraced_count) += 1;
  }

  MetricSet metrics;
  std::string table_json = "[]";
  if (!args.traced) {
    end_to_end_metrics(its, metrics);
  } else {
    // Walls without the shadow queries, which run on every traced
    // iteration but only when the bundles change on untraced ones.
    std::vector<double> traced_wall, untraced_wall;
    for (const Iteration& it : its) {
      (it.traced ? traced_wall : untraced_wall)
          .push_back(it.wall_s - it.result.analyst.shadow_s);
    }
    const double overhead_pct =
        (ratio(median(traced_wall), median(untraced_wall)) - 1.0) * 100.0;
    const std::uint64_t dropped = trace::dropped();
    tally.check(dropped == 0);  // the table needs every span
    std::vector<SpanEvent> spans;
    for (Iteration& it : its) {
      spans.insert(spans.end(), std::make_move_iterator(it.spans.begin()),
                   std::make_move_iterator(it.spans.end()));
    }
    const TraceView tv(std::move(spans));
    const std::vector<LayerRow> table = fold_layers(tv.spans);
    const double per = 1.0 / static_cast<double>(traced_count);
    print_table(table, per);
    per_layer_metrics(its, tv, table, probe, overhead_pct, dropped, metrics);
    std::ostringstream tj;
    tj << "[";
    for (std::size_t i = 0; i < table.size(); ++i) {
      tj << (i ? ", " : "") << "{\"layer\": \"" << table[i].layer
         << "\", \"count\": " << static_cast<double>(table[i].count) * per
         << ", \"busy_s\": " << table[i].busy_s * per
         << ", \"self_s\": " << table[i].self_s * per
         << ", \"wait_s\": " << table[i].wait_s * per << "}";
    }
    tj << "]";
    table_json = tj.str();
    std::cout << "trace: " << args.out << "/trace-" << args.workload << "-"
              << args.seed << "-it*.json\n";
  }

  metrics.print(std::cout);
  std::cout << "failed_ratio " << tally.failed_ratio() << " (" << tally.failed
            << " of " << tally.attempted << " operations)\n";
  const bool correct = tally.failed == 0;
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << tally.attempted
         << ", \"failed\": " << tally.failed
         << ", \"metrics\": " << metrics.json() << "}";
  {
    std::ofstream record(args.out + "/result-" + args.workload + "-" +
                         std::to_string(args.seed) + "-" +
                         (args.traced ? "1" : "0") + ".json");
    record << "{\"host\": " << host << ", \"workload\": \"" << args.workload
           << "\", \"seed\": " << args.seed
           << ", \"iterations\": " << its.size()
           << ", \"failed_ratio\": " << tally.failed_ratio()
           << ", \"layers\": " << table_json
           << ", \"result\": " << result.str() << "}\n";
  }
  std::cout << result.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace is 0 or 1");
        args.traced = value == "1";
      } else if (flag == "--out") {
        args.out = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) return usage("--workload is required");
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "repobench: " << e.what() << "\n";
    return 1;
  }
}
