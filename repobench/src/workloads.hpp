#pragma once
// The four repo-benchmark workloads.  Each iteration runs the whole user
// path once -- design, campaign on the simulator, bbx bundle, readback,
// stage-3 verdict, then analysts querying the bundle through a
// QueryServer -- with the weight on a different layer per workload:
//
//   mem-sweep      Fig. 13 memory campaign on the i7-2600: sim/mem;
//   net-ingest     10^6-observation LogGP calibration: core engine and
//                  the archive write/read path;
//   analyst-serve  two net bundles served to closed-loop analysts under
//                  cache eviction: serve, query, archive read, simd;
//   pmu-audit      PMU-counted memory campaign + counter cross-check:
//                  the sim/pmu counting seams.
//
// Inputs come from the seed alone; an iteration of a given seed repeats
// the same inputs, and so builds byte-identical bundles.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace repobench {

/// What one iteration hands back to the run loop.
struct IterationEnv {
  std::uint64_t seed = 0;
  std::size_t index = 0;  ///< the iteration's place in the run, from 0
  std::string dir;     ///< fresh scratch directory of this iteration
  std::string socket;  ///< unix socket path for the iteration's server
  std::shared_ptr<cal::core::WorkerPool> pool;
  SimProbe* probe = nullptr;
  ShadowCache* shadow = nullptr;  ///< kept across the run's iterations
};

struct IterationResult {
  double setup_s = 0.0;    ///< plan build, replicas, catalog, server start
  double verdict_s = 0.0;  ///< plan to stage-3 verdict
  double runs = 0.0;       ///< designed runs campaigned
  double campaign_s = 0.0; ///< runs to a durable (closed) bundle
  double records = 0.0;    ///< records archived
  double bundle_bytes = 0.0;
  double stored_bytes = 0.0;  ///< bbx shard bytes
  // Campaign metadata (window telemetry), last campaign of the iteration.
  double window_count = 0.0;
  double window_wall_max_s = 0.0;
  double worker_occupancy = 0.0;
  AnalystOutcome analyst;
  Tally tally;          ///< runs, oracles and served queries
  std::string verdict;  ///< one human-readable line
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual IterationResult iterate(const IterationEnv& env) = 0;
};

/// The workload called `name`, or null when there is none.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// Names of every workload, in BENCHMARK.json order.
std::vector<std::string> workload_names();

}  // namespace repobench
