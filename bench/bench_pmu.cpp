// Simulated-PMU overhead bench: proves the counter seams are free when
// no PmuFile is attached and that counting never changes the physics.
// Emits BENCH_pmu.json.
//
// Three sections:
//
//   1. Per-seam disabled cost: a tight loop over the disabled seam shape
//      (load a PmuFile pointer, test it for null) -- the one operation
//      every instrumented model site pays when enable_pmu is off.
//   2. Memory-campaign overhead estimate: the canonical mem-calibration
//      campaign is timed with the PMU disabled, the number of seam
//      executions it makes is derived from the plan (two simulated
//      passes per measure, one seam test per cache level per access),
//      and seam-count x per-seam cost must stay under 2% of the
//      campaign's wall time.  Enforced in both modes.
//   3. Counting invariance: the identical campaign re-run with all PMU
//      events recorded must report byte-identical timing metrics
//      (bandwidth, elapsed, frequency, hit rate) -- the counters ride
//      along without touching the simulation.  The counting slowdown is
//      reported for context.
//
//   bench_pmu [json-path] [--smoke]

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "benchlib/whitebox/mem_calibration.hpp"
#include "io/table_fmt.hpp"
#include "sim/pmu/pmu.hpp"

using namespace cal;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

volatile std::uint64_t g_sink = 0;
sim::pmu::PmuFile* volatile g_seam = nullptr;

/// The disabled seam in its real shape: one loop-invariant pointer
/// (Hierarchy/Cache/SimCore hold `pmu_` fixed for a whole pass) tested
/// inside a serially-dependent walk.  noinline so base and seam walks
/// are compared as the compiler actually emits them -- including loop
/// unswitching, which is exactly what happens to the real seams when
/// `pmu_` is null.
__attribute__((noinline)) std::uint64_t walk_base(const std::uint64_t* v,
                                                  std::size_t n) {
  std::uint64_t acc = 1;
  for (std::size_t i = 0; i < n; ++i) acc = (acc >> 1) + v[i];
  return acc;
}

__attribute__((noinline)) std::uint64_t walk_seam(const std::uint64_t* v,
                                                  std::size_t n,
                                                  sim::pmu::PmuFile* pmu) {
  std::uint64_t acc = 1;
  for (std::size_t i = 0; i < n; ++i) {
    acc = (acc >> 1) + v[i];
    if (pmu != nullptr) pmu->count(sim::pmu::Event::kCycles, acc);
  }
  return acc;
}

/// Marginal cost of one disabled counter seam, nanoseconds: the walk is
/// timed with and without the null test and the difference is the seam.
/// Clamped at zero -- a loop-invariant, never-taken branch typically
/// vanishes entirely (unswitched or perfectly predicted), which is the
/// point of the disarmed discipline.
double disabled_seam_marginal_ns(std::size_t n, int reps) {
  const std::vector<std::uint64_t> values(n, 3);
  double base_s = 1e9;
  double seam_s = 1e9;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    g_sink = g_sink + walk_base(values.data(), n);
    base_s = std::min(base_s, seconds_since(t0));
    sim::pmu::PmuFile* pmu = g_seam;  // runtime null, as in a real pass
    t0 = std::chrono::steady_clock::now();
    g_sink = g_sink + walk_seam(values.data(), n, pmu);
    seam_s = std::min(seam_s, seconds_since(t0));
  }
  return std::max(seam_s - base_s, 0.0) * 1e9 / static_cast<double>(n);
}

sim::mem::MemSystemConfig campaign_config() {
  sim::mem::MemSystemConfig config;
  config.machine = sim::machines::core_i7_2600();
  config.governor = sim::cpu::GovernorKind::kPerformance;
  config.pool_pages = 8192;
  config.system_seed = 5;
  return config;
}

benchlib::MemPlanOptions plan_options(bool smoke) {
  benchlib::MemPlanOptions options;
  options.size_levels = {16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024,
                         4 * 1024 * 1024, 16 * 1024 * 1024};
  options.strides = {1, 16};
  options.elem_bytes = {4, 8};
  options.unrolls = {1, 8};
  options.nloops = {100};
  options.replications = smoke ? 2 : 10;
  return options;
}

/// Seam executions one campaign makes with the PMU disabled: each
/// measure() simulates two passes (cold + steady); an access tests one
/// seam per cache level it probes, so the cold pass (all misses) probes
/// every level while the steady pass stops at the level the working set
/// fits in.  A handful of per-measure seams (pass end, core run,
/// scheduler and instruction accounting) ride on top.
std::uint64_t campaign_seam_tests(const benchlib::MemPlanOptions& options,
                                  const sim::MachineSpec& machine) {
  const std::uint64_t levels =
      static_cast<std::uint64_t>(machine.caches.size());
  std::uint64_t tests = 0;
  for (const std::int64_t size : options.size_levels) {
    // Steady-state accesses probe down to the first level that holds
    // the buffer.
    std::uint64_t steady_probes = 1;
    for (std::size_t i = 0; i < machine.caches.size(); ++i) {
      if (static_cast<std::uint64_t>(size) <=
          machine.caches[i].size_bytes) {
        break;
      }
      steady_probes = std::min<std::uint64_t>(steady_probes + 1, levels);
    }
    for (const std::int64_t stride : options.strides) {
      for (const std::int64_t elem : options.elem_bytes) {
        const std::uint64_t count = static_cast<std::uint64_t>(size) /
                                    (static_cast<std::uint64_t>(stride) *
                                     static_cast<std::uint64_t>(elem));
        const std::uint64_t per_measure =
            count * (levels + steady_probes) + 8;
        tests += per_measure * options.unrolls.size() *
                 options.replications;
      }
    }
  }
  return tests;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_pmu.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      json_path = arg;
    }
  }

  io::print_banner(std::cout, "Simulated PMU: disabled-seam cost, invariance");
  bench::Checker check;

  // --- 1. Per-seam disabled cost -------------------------------------------
  const std::size_t iters = smoke ? 4'000'000 : 16'000'000;
  const double seam_ns = disabled_seam_marginal_ns(iters, 7);
  std::cout << "Disabled seam (marginal null-test cost): "
            << io::TextTable::num(seam_ns, 3) << " ns.\n";
  check.expect(seam_ns < 2.0, "disabled seam costs < 2 ns");

  // --- 2. Memory-campaign overhead estimate --------------------------------
  const benchlib::MemPlanOptions plan = plan_options(smoke);
  const sim::mem::MemSystemConfig config = campaign_config();
  const Plan design = benchlib::make_mem_plan(plan);
  std::cout << "\nCampaign: " << design.size() << " runs.\n";

  double off_s = 1e9;
  std::optional<CampaignResult> off_result;
  const int reps = smoke ? 2 : 3;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    CampaignResult result =
        benchlib::run_mem_campaign(config, benchlib::make_mem_plan(plan), {});
    const double s = seconds_since(t0);
    if (!off_result || s < off_s) off_result = std::move(result);
    off_s = std::min(off_s, s);
  }
  const std::uint64_t seam_tests = campaign_seam_tests(plan, config.machine);
  const double overhead =
      static_cast<double>(seam_tests) * seam_ns / std::max(off_s * 1e9, 1.0);
  std::cout << "PMU off: " << io::TextTable::num(off_s, 4) << " s, "
            << seam_tests << " seam tests -> disabled overhead "
            << io::TextTable::num(overhead * 100.0, 4) << "%\n";
  check.expect(overhead <= 0.02,
               "disabled-counter overhead <= 2% on the memory campaign");

  // --- 3. Counting invariance ----------------------------------------------
  benchlib::MemCampaignOptions counting;
  counting.pmu_events.assign(sim::pmu::all_events().begin(),
                             sim::pmu::all_events().end());
  const auto on_t0 = std::chrono::steady_clock::now();
  const CampaignResult on_result = benchlib::run_mem_campaign(
      config, benchlib::make_mem_plan(plan), counting);
  const double on_s = seconds_since(on_t0);

  bool identical = off_result->table.size() == on_result.table.size();
  const std::size_t base_metrics = off_result->table.metric_names().size();
  if (identical) {
    const auto& off_records = off_result->table.records();
    const auto& on_records = on_result.table.records();
    for (std::size_t i = 0; identical && i < off_records.size(); ++i) {
      for (std::size_t m = 0; m < base_metrics; ++m) {
        if (off_records[i].metrics[m] != on_records[i].metrics[m]) {
          identical = false;
          break;
        }
      }
    }
  }
  const double slowdown = off_s > 0.0 ? on_s / off_s : 0.0;
  std::cout << "PMU on:  " << io::TextTable::num(on_s, 4) << " s (counting "
            << "slowdown " << io::TextTable::num(slowdown, 2) << "x), "
            << on_result.table.metric_names().size() - base_metrics
            << " counter columns.\n";
  check.expect(identical,
               "timing metrics byte-identical with counters on vs off");
  check.expect(on_result.table.metric_names().size() ==
                   base_metrics + sim::pmu::kEventCount,
               "counting campaign carries every pmu.* column");

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\n  \"bench\": \"pmu\",\n  \"runs\": %zu,\n  \"smoke\": %s,\n"
      "  \"disabled_seam_ns\": %.4f,\n  \"campaign_off_seconds\": %.6f,\n"
      "  \"seam_tests\": %llu,\n  \"disabled_overhead_pct\": %.5f,\n"
      "  \"campaign_on_seconds\": %.6f,\n  \"counting_slowdown\": %.3f,\n"
      "  \"timing_identical\": %s\n}\n",
      design.size(), smoke ? "true" : "false", seam_ns, off_s,
      static_cast<unsigned long long>(seam_tests), overhead * 100.0, on_s,
      slowdown, identical ? "true" : "false");
  json << buf;
  std::cout << "Wrote " << json_path << "\n";
  return check.exit_code();
}
