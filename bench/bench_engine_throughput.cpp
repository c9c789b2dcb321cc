// Engine throughput: runs/sec of the campaign engine at 1..N worker
// threads, plus a determinism cross-check (parallel CSV must equal the
// sequential CSV byte for byte).  Emits BENCH_engine.json so successive
// PRs can track the perf trajectory.
//
// Two measurement profiles are timed:
//
//   * "waiting": the measurement callable blocks for the (simulated)
//     duration of the run, like a real harness waiting on hardware
//     counters, a timer quantum, or a remote node.  This is the profile
//     sharding exists for -- workers overlap their waits, so runs/sec
//     scales with the worker count even on a single hardware thread.
//   * "cpu_bound": pure arithmetic; scales only with physical cores and
//     bounds the engine's sharding overhead from above.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "io/table_fmt.hpp"

using namespace cal;

namespace {

Plan throughput_plan() {
  return DesignBuilder(77)
      .add(Factor::levels("size", {Value(1024), Value(8192), Value(65536),
                                   Value(262144)}))
      .add(Factor::levels("stride", {Value(1), Value(4), Value(16),
                                     Value(64)}))
      .replications(125)  // 16 cells x 125 = 2000 runs
      .build();
}

/// Simulated duration of one run, microseconds: deterministic in the run
/// and its private stream, never in wall-clock state.
double run_duration_us(const PlannedRun& run, MeasureContext& ctx) {
  const double base = 120.0 + run.values[1].as_real();
  return base * ctx.rng->lognormal_factor(0.2);
}

MeasureResult waiting_measure(const PlannedRun& run, MeasureContext& ctx) {
  const double us = run_duration_us(run, ctx);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<long long>(us)));
  return MeasureResult{{us}, us * 1e-6};
}

MeasureResult cpu_bound_measure(const PlannedRun& run, MeasureContext& ctx) {
  const double us = run_duration_us(run, ctx);
  // ~10 us of arithmetic on this class of core.
  double acc = us;
  for (int i = 0; i < 20000; ++i) acc = acc * 1.0000001 + 1e-9;
  return MeasureResult{{acc}, us * 1e-6};
}

struct Timing {
  std::size_t threads = 0;
  double runs_per_sec = 0.0;
};

Timing time_engine(const Plan& plan, const MeasureFn& measure,
                   std::size_t threads) {
  Engine::Options options;
  options.seed = 7;
  options.threads = threads;
  Engine engine({"m"}, options);
  const auto t0 = std::chrono::steady_clock::now();
  const RawTable table = engine.run(plan, measure);
  const auto t1 = std::chrono::steady_clock::now();
  const double elapsed =
      std::chrono::duration<double>(t1 - t0).count();
  return Timing{threads,
                static_cast<double>(table.size()) / std::max(elapsed, 1e-9)};
}

std::string csv_at(const Plan& plan, const MeasureFn& measure,
                   std::size_t threads) {
  Engine::Options options;
  options.seed = 7;
  options.threads = threads;
  Engine engine({"m"}, options);
  std::ostringstream out;
  engine.run(plan, measure).write_csv(out);
  return out.str();
}

void emit_json(std::ostream& out, const std::string& name,
               const std::vector<Timing>& timings) {
  out << "  \"" << name << "\": {\"threads\": [";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    out << (i ? ", " : "") << timings[i].threads;
  }
  out << "], \"runs_per_sec\": [";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", timings[i].runs_per_sec);
    out << (i ? ", " : "") << buf;
  }
  char speedup[32];
  std::snprintf(speedup, sizeof speedup, "%.2f",
                timings.back().runs_per_sec / timings.front().runs_per_sec);
  out << "], \"speedup\": " << speedup << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  const Plan plan = throughput_plan();
  const std::vector<std::size_t> thread_counts = {1, 2, 8};

  io::print_banner(std::cout,
                   "Engine throughput: sharded campaign execution");
  std::cout << "Plan: " << plan.size() << " runs (16 cells x 125 reps), "
            << std::thread::hardware_concurrency()
            << " hardware thread(s).\n\n";

  bench::Checker check;

  // Determinism first: the parallel table must be byte-identical.
  const std::string seq_csv = csv_at(plan, waiting_measure, 1);
  check.expect(csv_at(plan, waiting_measure, 2) == seq_csv,
               "2-thread CSV bit-identical to sequential");
  check.expect(csv_at(plan, waiting_measure, 8) == seq_csv,
               "8-thread CSV bit-identical to sequential");
  {
    // ...including in the small-window regime (~63 execution windows).
    Engine::Options options;
    options.seed = 7;
    options.threads = 8;
    options.sink_batch = 32;
    std::ostringstream pooled;
    Engine({"m"}, options).run(plan, waiting_measure).write_csv(pooled);
    check.expect(pooled.str() == seq_csv,
                 "sink_batch=32 windows bit-identical to sequential");
  }

  std::vector<Timing> waiting, cpu_bound;
  for (const std::size_t t : thread_counts) {
    waiting.push_back(time_engine(plan, waiting_measure, t));
    cpu_bound.push_back(time_engine(plan, cpu_bound_measure, t));
  }

  io::TextTable table({"threads", "waiting runs/s", "cpu-bound runs/s"});
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    table.add_row({std::to_string(thread_counts[i]),
                   io::TextTable::num(waiting[i].runs_per_sec, 0),
                   io::TextTable::num(cpu_bound[i].runs_per_sec, 0)});
  }
  table.print(std::cout);

  const double waiting_speedup =
      waiting.back().runs_per_sec / waiting.front().runs_per_sec;
  std::cout << "\nWaiting-profile speedup at 8 threads: "
            << io::TextTable::num(waiting_speedup, 2) << "x\n";
  check.expect(waiting_speedup >= 3.0,
               "8-thread waiting-profile throughput >= 3x sequential");

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  json << "{\n  \"bench\": \"engine_throughput\",\n  \"runs\": "
       << plan.size() << ",\n  \"hardware_threads\": "
       << std::thread::hardware_concurrency() << ",\n";
  emit_json(json, "waiting", waiting);
  json << ",\n";
  emit_json(json, "cpu_bound", cpu_bound);
  json << "\n}\n";
  std::cout << "Wrote " << json_path << "\n";

  return check.exit_code();
}
