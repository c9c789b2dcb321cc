#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>

#include "benchlib/whitebox/mem_calibration.hpp"
#include "io/archive/bbx_reader.hpp"
#include "obs/trace.hpp"
#include "query/expr.hpp"
#include "serve/client.hpp"

namespace repobench {

namespace fs = std::filesystem;
namespace trace = cal::obs::trace;

std::uint64_t SimProbe::calls() const {
  std::uint64_t n = 0;
  for (const Slot& s : slots_) n += s.calls;
  return n;
}

double SimProbe::busy_s() const {
  std::uint64_t ns = 0;
  for (const Slot& s : slots_) ns += s.busy_ns;
  return static_cast<double>(ns) * 1e-9;
}

double SimProbe::modelled_accesses() const {
  double n = 0.0;
  for (const Slot& s : slots_) n += s.modelled_accesses;
  return n;
}

std::vector<std::string> mem_metric_names(
    const std::vector<cal::sim::pmu::Event>& events) {
  std::vector<std::string> names = {"bandwidth_mbps", "elapsed_s",
                                    "avg_freq_ghz", "l1_hit_rate"};
  for (const auto e : events) {
    names.push_back(std::string("pmu.") + cal::sim::pmu::event_name(e));
  }
  return names;
}

namespace {

/// Span names must be string literals (obs::trace stores the pointer).
constexpr std::array<const char*, kRegimes> kMeasureSpan = {
    "rb.sim.measure.l1", "rb.sim.measure.l2", "rb.sim.measure.llc",
    "rb.sim.measure.dram"};

/// The CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Runs the calling thread on `cpu` alone until destroyed, then
/// restores its previous set.  Threads started meanwhile inherit `cpu`.
class OnCpu {
 public:
  explicit OnCpu(int cpu) {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~OnCpu() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  OnCpu(const OnCpu&) = delete;
  OnCpu& operator=(const OnCpu&) = delete;
  bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

}  // namespace

cal::MeasureFactory timed_mem_factory(
    std::vector<std::unique_ptr<cal::sim::mem::MemSystem>>& replicas,
    const cal::sim::MachineSpec& machine,
    std::vector<cal::sim::pmu::Event> events, SimProbe& probe) {
  return [&replicas, machine, events = std::move(events),
          &probe](std::size_t worker) -> cal::MeasureFn {
    cal::MeasureFn inner =
        cal::benchlib::mem_measure_fn(*replicas.at(worker), events);
    SimProbe::Slot* slot = &probe.slot(worker);
    return [inner = std::move(inner), slot, machine](
               const cal::PlannedRun& run,
               cal::MeasureContext& ctx) -> cal::MeasureResult {
      if (!trace::enabled()) return inner(run, ctx);
      // Canonical make_mem_plan factor order: size_bytes, stride,
      // elem_bytes, unroll, nloops.
      const auto size = static_cast<std::size_t>(run.values.at(0).as_int());
      const auto stride = static_cast<std::size_t>(run.values.at(1).as_int());
      const auto elem = static_cast<std::size_t>(run.values.at(2).as_int());
      const auto nloops = static_cast<double>(run.values.at(4).as_int());
      const Regime regime = classify_footprint(
          machine, footprint_bytes(size, stride, elem,
                                   machine.l1().line_bytes));
      const std::uint64_t t0 = trace::now_ns();
      cal::MeasureResult out = inner(run, ctx);
      const std::uint64_t t1 = trace::now_ns();
      trace::record(kMeasureSpan[static_cast<std::size_t>(regime)], t0,
                    t1 - t0);
      ++slot->calls;
      slot->busy_ns += t1 - t0;
      const std::size_t step = std::max<std::size_t>(stride * elem, 1);
      slot->modelled_accesses +=
          nloops * static_cast<double>((size + step - 1) / step);
      return out;
    };
  };
}

cal::MeasureFactory timed_net_factory(const cal::sim::net::NetworkSim& network,
                                      std::size_t op_index,
                                      std::size_t size_index, SimProbe& probe) {
  using cal::sim::net::NetOp;
  return [&network, op_index, size_index,
          &probe](std::size_t worker) -> cal::MeasureFn {
    SimProbe::Slot* slot = &probe.slot(worker);
    return [&network, op_index, size_index, slot](
               const cal::PlannedRun& run,
               cal::MeasureContext& ctx) -> cal::MeasureResult {
      const auto measure = [&] {
        const std::string& op_name = run.values[op_index].as_string();
        NetOp op = NetOp::kPingPong;
        if (op_name == "send") op = NetOp::kSendOverhead;
        else if (op_name == "recv") op = NetOp::kRecvOverhead;
        const double us = network.measure_us(
            op, run.values[size_index].as_real(), ctx.now_s, *ctx.rng);
        return cal::MeasureResult{{us}, us * 1e-6};
      };
      if (!trace::enabled()) return measure();
      const std::uint64_t t0 = trace::now_ns();
      cal::MeasureResult out = measure();
      ++slot->calls;
      slot->busy_ns += trace::now_ns() - t0;
      return out;
    };
  };
}

void TimedSink::begin(const std::vector<std::string>& factor_names,
                      const std::vector<std::string>& metric_names,
                      std::size_t expected_records) {
  inner_.begin(factor_names, metric_names, expected_records);
}

void TimedSink::consume(std::vector<cal::RawRecord> batch) {
  trace::Span span("rb.archive.consume");
  inner_.consume(std::move(batch));
}

void TimedSink::close() {
  trace::Span span("rb.archive.close");
  inner_.close();
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::uint64_t shard_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".bbx") {
      total += entry.file_size();
    }
  }
  return total;
}

const char* query_class_name(QueryClass cls) noexcept {
  switch (cls) {
    case QueryClass::kSelective:
      return "selective";
    case QueryClass::kFull:
      return "full";
    case QueryClass::kMaterialize:
      return "materialize";
    case QueryClass::kRepeat:
      return "repeat";
  }
  return "?";
}

std::vector<AnalystQuery> make_query_mix(const std::vector<BundleShape>& bundles,
                                         std::size_t queries, double full_share,
                                         std::uint64_t seed,
                                         std::size_t* unique_specs) {
  if (bundles.empty()) throw std::invalid_argument("query mix: no bundles");
  std::mt19937_64 rng(seed ^ 0x5E12E5EEDull);
  const auto uniform = [&](std::size_t lo, std::size_t hi) {  // [lo, hi]
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  // Exact class counts in seeded order: the share of expensive full
  // scans must not vary with the seed, only which ranges are drawn.
  const auto full = static_cast<std::size_t>(
      std::llround(full_share * static_cast<double>(queries)));
  const QueryClass others[3] = {QueryClass::kSelective,
                                QueryClass::kMaterialize, QueryClass::kRepeat};
  std::vector<QueryClass> classes(full, QueryClass::kFull);
  for (std::size_t i = 0; classes.size() < queries; ++i) {
    classes.push_back(others[i % 3]);
  }
  std::shuffle(classes.begin(), classes.end(), rng);
  const auto sequence_range = [](std::size_t a, std::size_t b) {
    return "sequence >= " + std::to_string(a) +
           " && sequence < " + std::to_string(b);
  };

  std::map<std::string, std::size_t> spec_ids;
  std::vector<AnalystQuery> out;
  out.reserve(queries);
  std::vector<std::size_t> recent;  // indices of recent non-repeat queries
  for (QueryClass cls : classes) {
    if (cls == QueryClass::kRepeat && !recent.empty()) {
      AnalystQuery q = out[recent[uniform(0, recent.size() - 1)]];
      q.cls = QueryClass::kRepeat;
      out.push_back(std::move(q));
      continue;
    }
    if (cls == QueryClass::kRepeat) cls = QueryClass::kSelective;

    const BundleShape& b = bundles[uniform(0, bundles.size() - 1)];
    const std::size_t block = std::max<std::size_t>(b.block_records, 1);
    cal::serve::Request req;
    req.bundle = b.name;
    if (cls == QueryClass::kMaterialize) {
      req.kind = cal::serve::RequestKind::kMaterialize;
      const std::size_t span = uniform(std::min<std::size_t>(32, b.records),
                                       std::max<std::size_t>(block / 2, 32));
      const std::size_t start =
          uniform(0, b.records > span ? b.records - span : 0);
      req.where = sequence_range(start, start + span);
      req.select = {b.metric};
    } else {
      req.kind = cal::serve::RequestKind::kAggregate;
      req.group_by = {b.group_factors[uniform(0, b.group_factors.size() - 1)]};
      if (cls == QueryClass::kSelective) {
        const std::size_t span = block * uniform(1, 3);
        const std::size_t start =
            uniform(0, b.records > span ? b.records - span : 0);
        req.where = sequence_range(start, start + span);
        req.aggregates = {"count", "mean:" + b.metric, "max:" + b.metric};
      } else {
        req.aggregates = {"count", "mean:" + b.metric, "sd:" + b.metric};
      }
    }
    const std::string key = cal::serve::encode_request(req);
    const auto [it, inserted] = spec_ids.emplace(key, spec_ids.size());
    out.push_back(AnalystQuery{cls, std::move(req), it->second});
    recent.push_back(out.size() - 1);
    if (recent.size() > 16) recent.erase(recent.begin());
  }
  *unique_specs = spec_ids.size();
  return out;
}

std::size_t decoded_working_set(const std::vector<BundleShape>& bundles) {
  std::size_t bytes = 0;
  for (const BundleShape& b : bundles) {
    bytes += b.records * (sizeof(std::size_t) +
                          b.group_factors.size() * sizeof(cal::Value) +
                          sizeof(double));
  }
  return bytes;
}

std::uint64_t bundles_digest(const std::vector<BundleShape>& bundles) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  const auto mix = [&h](const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(data[i]);
      h *= 0x100000001b3ull;
    }
  };
  std::vector<char> buf(1 << 16);
  for (const BundleShape& b : bundles) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(b.dir)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& f : files) {
      // Names relative to the bundle: each iteration has its own directory.
      const std::string name =
          b.name + "/" + fs::relative(f, b.dir).generic_string();
      mix(name.data(), name.size());
      std::ifstream in(f, std::ios::binary);
      while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
             in.gcount() > 0) {
        mix(buf.data(), static_cast<std::size_t>(in.gcount()));
      }
    }
  }
  return h;
}

std::string run_local_query(const cal::io::archive::BbxReader& reader,
                            const cal::serve::Request& request,
                            cal::core::WorkerPool* pool,
                            cal::query::ScanStats* scan) {
  cal::query::ExprPtr where;
  if (!request.where.empty()) where = cal::query::parse_expr(request.where);
  const cal::query::BundleQuery engine(reader);
  std::ostringstream out;
  if (request.kind == cal::serve::RequestKind::kAggregate) {
    cal::query::QuerySpec spec;
    spec.where = where;
    spec.group_by = request.group_by;
    for (const std::string& item : request.aggregates) {
      const auto agg = cal::query::parse_aggregate(item);
      if (!agg) throw std::invalid_argument("unknown aggregate " + item);
      spec.aggregates.push_back(*agg);
    }
    const cal::query::QueryResult result = engine.aggregate(spec, pool);
    *scan = result.scan;
    result.write_csv(out);
  } else {
    engine.materialize(where, request.select, pool, scan).write_csv(out);
  }
  return out.str();
}

AnalystOutcome run_analyst_phase(const std::string& catalog_root,
                                 const std::string& socket_path,
                                 const std::vector<BundleShape>& bundles,
                                 const std::vector<AnalystQuery>& queries,
                                 std::size_t unique_specs,
                                 cal::core::WorkerPool& pool,
                                 ShadowCache& cache, std::size_t serve_turn,
                                 const std::function<void()>& while_serving) {
  AnalystOutcome outcome;

  const std::uint64_t digest = bundles_digest(bundles);
  if (cache.digest != digest || cache.expected.size() != unique_specs ||
      trace::enabled()) {
    // Shadow: the expected body of every unique request, from a local
    // BundleQuery over the same bundle.  A repeat is run again: the
    // local engine has no cache, so its time is what the repeated spec
    // costs without one.
    std::map<std::string, std::unique_ptr<cal::io::archive::BbxReader>>
        readers;
    for (const BundleShape& b : bundles) {
      readers[b.name] = std::make_unique<cal::io::archive::BbxReader>(b.dir);
    }
    const auto shadow_t0 = SteadyClock::now();
    std::vector<std::string> expected(unique_specs);
    std::vector<bool> done(unique_specs, false);
    for (const AnalystQuery& q : queries) {
      if (done[q.spec] && q.cls != QueryClass::kRepeat) continue;
      cal::query::ScanStats scan;
      std::string body;
      const auto t0 = SteadyClock::now();
      {
        trace::Span span("rb.query.exec");
        body = run_local_query(*readers.at(q.request.bundle), q.request,
                               &pool, &scan);
      }
      outcome.exec_ms[static_cast<std::size_t>(q.cls)].push_back(
          seconds_since(t0) * 1e3);
      if (done[q.spec]) continue;
      done[q.spec] = true;
      expected[q.spec] = std::move(body);
      outcome.scan.blocks_total += scan.blocks_total;
      outcome.scan.blocks_pruned += scan.blocks_pruned;
      outcome.scan.blocks_scanned += scan.blocks_scanned;
      outcome.scan.records_scanned += scan.records_scanned;
      outcome.scan.records_matched += scan.records_matched;
    }
    cache.digest = digest;
    cache.expected = std::move(expected);
    outcome.shadow_s = seconds_since(shadow_t0);
  }
  const std::vector<std::string>& expected = cache.expected;

  // Server and client run on one CPU, the turn-th the process may use.
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.empty()) throw std::runtime_error("serve: no CPU to run on");
  const OnCpu on_cpu(cpus[serve_turn % cpus.size()]);
  if (!on_cpu.pinned()) throw std::runtime_error("serve: cannot pin to a CPU");
  cal::serve::ServerOptions options;
  options.socket_path = socket_path;
  options.workers = kServerWorkers;
  options.cache.byte_budget = decoded_working_set(bundles) / 2;
  const auto setup_t0 = SteadyClock::now();
  cal::serve::QueryServer server(catalog_root, options);
  server.start();
  outcome.setup_s = seconds_since(setup_t0);

  // Closed loop: the client sends its next request only after the
  // previous reply arrived.
  static constexpr std::array<const char*, kQueryClasses> kCallSpan = {
      "rb.serve.call.selective", "rb.serve.call.full",
      "rb.serve.call.materialize", "rb.serve.call.repeat"};
  outcome.rtt_ms.assign(queries.size(), -1.0);
  const auto loop_t0 = SteadyClock::now();
  {
    std::unique_ptr<cal::serve::QueryClient> client;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const AnalystQuery& q = queries[i];
      try {
        if (!client) {
          client = std::make_unique<cal::serve::QueryClient>(
              cal::serve::QueryClient::connect_unix(socket_path));
        }
        const auto t0 = SteadyClock::now();
        cal::serve::Response response;
        {
          trace::Span span(kCallSpan[static_cast<std::size_t>(q.cls)]);
          response = client->call(q.request);
        }
        outcome.rtt_ms[i] = seconds_since(t0) * 1e3;
        outcome.tally.check(response.status == cal::serve::Status::kOk &&
                            response.body == expected[q.spec]);
      } catch (const std::exception&) {
        outcome.tally.fail();  // transport failure: reconnect next time
        client.reset();
      }
    }
  }  // the client disconnects before the server stops
  outcome.wall_s = seconds_since(loop_t0);
  outcome.queries = queries.size();
  outcome.cache = server.cache_stats();
  outcome.counters = server.counters();
  if (while_serving) while_serving();
  server.stop();
  return outcome;
}

}  // namespace repobench
