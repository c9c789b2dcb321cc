#pragma once
// Layer wrappers and the analyst phase shared by every workload.
//
// The benchmark times the program only from outside, through its
// public calls:
//
//   sim      a MeasureFactory handing the engine one pre-built
//            simulator replica per worker, each call wrapped in an
//            rb.sim.* span (SimProbe counts calls and busy time);
//   archive  TimedSink, a RecordSink decorator around BbxWriter;
//   core     the Campaign::run call itself (rb.core.campaign);
//   query    local BundleQuery shadow runs (rb.query.exec);
//   serve    QueryClient::call on closed-loop analyst clients
//            (rb.serve.call.<class>).
//
// Spans record only while obs::trace is armed, which the benchmark
// does on its traced iterations alone; untraced iterations pay one
// relaxed load per wrapped call.

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arith.hpp"
#include "core/engine.hpp"
#include "core/record_sink.hpp"
#include "core/worker_pool.hpp"
#include "query/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/mem/stride_bench.hpp"
#include "sim/net/network_sim.hpp"
#include "sim/pmu/pmu.hpp"

namespace repobench {

using SteadyClock = std::chrono::steady_clock;

inline double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Per-worker tallies of the simulator calls a traced campaign made.
/// Each slot is written only by its worker during the campaign and read
/// by the caller after Campaign::run returns (the pool barrier orders
/// the two).
class SimProbe {
 public:
  struct Slot {
    std::uint64_t calls = 0;
    std::uint64_t busy_ns = 0;
    double modelled_accesses = 0.0;
  };

  explicit SimProbe(std::size_t workers) : slots_(workers) {}
  Slot& slot(std::size_t worker) { return slots_.at(worker); }

  std::uint64_t calls() const;
  double busy_s() const;
  double modelled_accesses() const;

 private:
  std::vector<Slot> slots_;
};

/// The memory-calibration metric names of benchlib::run_mem_campaign,
/// plus pmu.<event> per requested event.
std::vector<std::string> mem_metric_names(
    const std::vector<cal::sim::pmu::Event>& events);

/// One simulator replica per worker, built before the campaign (set-up
/// work), handed out by the factory; every call is wrapped in an
/// rb.sim.measure.<regime> span classified against `machine`.
cal::MeasureFactory timed_mem_factory(
    std::vector<std::unique_ptr<cal::sim::mem::MemSystem>>& replicas,
    const cal::sim::MachineSpec& machine,
    std::vector<cal::sim::pmu::Event> events, SimProbe& probe);

/// LogGP calibration measure over a shared const NetworkSim.  A net
/// call is ~1 us, too short and too many (10^6 a campaign) for a span
/// each, so traced calls are only counted and timed into `probe`; the
/// trace has no sim spans on the net workloads.
cal::MeasureFactory timed_net_factory(const cal::sim::net::NetworkSim& network,
                                      std::size_t op_index,
                                      std::size_t size_index, SimProbe& probe);

/// RecordSink decorator timing the archive layer: rb.archive.consume
/// per batch, rb.archive.close around the final flush.
class TimedSink final : public cal::RecordSink {
 public:
  explicit TimedSink(cal::RecordSink& inner) : inner_(inner) {}
  void begin(const std::vector<std::string>& factor_names,
             const std::vector<std::string>& metric_names,
             std::size_t expected_records) override;
  void consume(std::vector<cal::RawRecord> batch) override;
  void close() override;

 private:
  cal::RecordSink& inner_;
};

/// Bytes of every regular file under `dir`.
std::uint64_t dir_bytes(const std::string& dir);

/// Bytes of the bbx shard files under `dir` (the stored blocks).
std::uint64_t shard_bytes(const std::string& dir);

// --------------------------------------------------------------------
// Analyst phase: a closed-loop QueryClient against a QueryServer.
// --------------------------------------------------------------------

enum class QueryClass { kSelective = 0, kFull = 1, kMaterialize = 2, kRepeat = 3 };
inline constexpr std::size_t kQueryClasses = 4;
const char* query_class_name(QueryClass cls) noexcept;

/// What the query generator needs to know about one catalog bundle.
struct BundleShape {
  std::string name;    ///< catalog bundle name
  std::string dir;     ///< bundle directory (for the local shadow)
  std::size_t records = 0;
  std::size_t block_records = 0;
  std::vector<std::string> group_factors;  ///< group-by candidates
  std::string metric;                      ///< aggregated / projected
};

/// The one analyst traffic every workload serves.  Its shape is an
/// assumption, not a measured trace: no served workload of the program
/// is on record to derive it from.
///   queries   1000 a latency window, the fewest whose p99 has 10
///             samples beyond it; one window an iteration, three on the
///             small memory bundles (workloads.cpp says why);
///   classes   the four classes in equal shares, except where a
///             workload lowers the full-scan share for a measured cost
///             (net-ingest, see workloads.cpp);
///   analysts  1 closed-loop client on a server with a 1-thread pool
///             (scans run on the connection thread);
///   one CPU   server and client share one CPU, a different one each
///             iteration (the iteration's index modulo the CPUs the
///             process may use);
///   cache     half the decoded working set of the catalog
///             (decoded_working_set), so that eviction always happens.
/// Measured reasons, on the 4-vCPU reference VM:
///   * spread over CPUs, a sub-millisecond round trip waits for an idle
///     vCPU to be woken, a wait that follows the neighbours' load
///     (interleaved pmu-audit runs: serve p99 0.6-8.7 ms spread over
///     CPUs, 0.56-0.62 ms on one CPU);
///   * two clients on one CPU wait out each other's queries: net-ingest
///     serve_p50_ms read 3.1-4.1 ms over 5 seeds with 2 clients, 1.43-1.60
///     ms with 1, and with 2 its 10-run spread went past its bound;
///   * a client and server pair on every CPU at once (four servers,
///     each with its own cache) did not steady the figures (pmu-audit
///     serve_p50_ms IQR/median 0.17 over 8 seeds, against 0.21 over 5
///     with one pair), but held more memory on net-ingest (iteration
///     peak 750-850 MB against 570-660 MB) and, with all four vCPUs busy,
///     let a busy
///     host stretch the tail (pmu-audit serve_p99_ms up to 1.5 ms against
///     0.21-0.25 ms quiet);
///   * the CPUs run in fast and slow spells of ~0.3-1 s, and one CPU's
///     spells can last longer than another's: moving the pair to the
///     next CPU each iteration samples all of them.
inline constexpr std::size_t kAnalystQueries = 1000;
inline constexpr std::size_t kServerWorkers = 1;

struct AnalystQuery {
  QueryClass cls = QueryClass::kSelective;
  cal::serve::Request request;
  std::size_t spec = 0;  ///< index of the unique request it carries
};

/// Seeded query stream: selective = zone-map-prunable sequence ranges
/// of 1-3 blocks, full = whole-bundle group-by, materialize = one metric
/// over a narrow sequence range, repeat = an exact repeat of one of the
/// last 16 queries.
/// `full_share` of the queries are full scans, the rest split equally
/// over the other three classes.
std::vector<AnalystQuery> make_query_mix(const std::vector<BundleShape>& bundles,
                                         std::size_t queries, double full_share,
                                         std::uint64_t seed,
                                         std::size_t* unique_specs);

/// Bytes the block cache holds once every column the mix reads is
/// decoded: per record, the sequence index, each group-by factor (a
/// Value) and the metric (a double), as serve::column_bytes counts them.
std::size_t decoded_working_set(const std::vector<BundleShape>& bundles);

/// Runs one request locally through BundleQuery, exactly as the server
/// would (same CSV writers).
std::string run_local_query(const cal::io::archive::BbxReader& reader,
                            const cal::serve::Request& request,
                            cal::core::WorkerPool* pool,
                            cal::query::ScanStats* scan);

struct AnalystOutcome {
  /// Client round trip of query i, in query order; -1 when it failed.
  std::vector<double> rtt_ms;
  std::array<std::vector<double>, kQueryClasses> exec_ms;  ///< shadow
  double wall_s = 0.0;  ///< closed-loop phase only
  std::size_t queries = 0;
  double setup_s = 0.0;  ///< server start
  double shadow_s = 0.0;  ///< local shadow runs (0 when the cache served)
  cal::query::ScanStats scan;  ///< summed over shadow runs
  cal::serve::BlockCache::Stats cache;
  cal::serve::QueryServer::Counters counters;
  Tally tally;  ///< one per query: kOk and byte-identical to the shadow
};

/// Content digest (64-bit FNV-1a) of every file under the bundles'
/// directories, in path order.
std::uint64_t bundles_digest(const std::vector<BundleShape>& bundles);

/// The shadow's expected bodies, kept across the iterations of a run.
/// An iteration rebuilds its bundles from the same seed, so they are
/// byte-identical to the last iteration's (the digest checks it) and so
/// are the local results: the shadow need not run again.
struct ShadowCache {
  std::uint64_t digest = 0;
  std::vector<std::string> expected;  ///< by unique request index
};

/// Starts a server over `catalog_root` (timed into setup_s) and drives
/// `queries` through one closed-loop client, checking every
/// served body byte-for-byte against a local shadow run of the same
/// request (outside the timed loop).  The shadow runs when `cache` holds
/// no bodies for these bundles' digest, and on every traced iteration,
/// whose shadow times (repeats are run again, for their own exec time)
/// and scan statistics are the query layer's metrics.  Server, client
/// and `while_serving` run on CPU `serve_turn` modulo the CPUs the
/// process may use.  `while_serving` (optional) runs
/// after the loop, before the server stops.
AnalystOutcome run_analyst_phase(const std::string& catalog_root,
                                 const std::string& socket_path,
                                 const std::vector<BundleShape>& bundles,
                                 const std::vector<AnalystQuery>& queries,
                                 std::size_t unique_specs,
                                 cal::core::WorkerPool& pool,
                                 ShadowCache& cache, std::size_t serve_turn,
                                 const std::function<void()>& while_serving);

}  // namespace repobench
