#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "benchlib/whitebox/mem_calibration.hpp"
#include "benchlib/whitebox/net_calibration.hpp"
#include "core/campaign.hpp"
#include "core/design.hpp"
#include "io/archive/bbx_reader.hpp"
#include "io/archive/bbx_writer.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "stats/breakpoint.hpp"
#include "stats/counter_crosscheck.hpp"

namespace repobench {

namespace trace = cal::obs::trace;
using cal::io::archive::BbxReader;
using cal::io::archive::BbxWriter;
using cal::io::archive::BbxWriterOptions;

namespace {

constexpr std::size_t kCampaignWorkers = 4;

double metadata_number(const cal::Metadata& md, const std::string& key) {
  const auto value = md.get(key);
  return value ? std::stod(*value) : 0.0;
}

/// Streams `campaign` into a bbx bundle at `dir` through TimedSink and
/// books the campaign's numbers into `r`.  A campaign that throws counts
/// every designed run as failed; returns false then.
bool campaign_to_bundle(const cal::Campaign& campaign,
                        const cal::MeasureFactory& factory,
                        const std::string& dir, const BbxWriterOptions& opts,
                        IterationResult& r) {
  const auto runs = static_cast<double>(campaign.plan().size());
  r.runs += runs;
  try {
    BbxWriter writer(dir, opts);
    TimedSink sink(writer);
    const auto t0 = SteadyClock::now();
    const cal::StreamedCampaign done = [&] {
      trace::Span span("rb.core.campaign");
      return campaign.run(factory, sink);
    }();
    r.campaign_s += seconds_since(t0);
    r.records += static_cast<double>(writer.records_written());
    r.stored_bytes += static_cast<double>(shard_bytes(dir));
    r.bundle_bytes += static_cast<double>(dir_bytes(dir));
    r.window_count = metadata_number(done.metadata, "window_count");
    r.window_wall_max_s = metadata_number(done.metadata, "window_wall_max_s");
    r.worker_occupancy = metadata_number(done.metadata, "worker_occupancy");
    r.tally.pass(campaign.plan().size());
    return true;
  } catch (const std::exception& e) {
    r.tally.fail(campaign.plan().size());
    r.verdict = std::string("campaign failed: ") + e.what();
    return false;
  }
}

cal::RawTable read_bundle(const std::string& dir, cal::core::WorkerPool* pool) {
  trace::Span span("rb.archive.read");
  return BbxReader(dir).read_all(pool);
}

cal::Engine::Options engine_options(std::uint64_t seed, double gap_s,
                                    const IterationEnv& env) {
  cal::Engine::Options options;
  options.seed = seed;
  options.inter_run_gap_s = gap_s;
  options.pool = env.pool;
  return options;
}

std::vector<std::unique_ptr<cal::sim::mem::MemSystem>> make_replicas(
    const cal::sim::mem::MemSystemConfig& config) {
  std::vector<std::unique_ptr<cal::sim::mem::MemSystem>> replicas;
  for (std::size_t w = 0; w < kCampaignWorkers; ++w) {
    replicas.push_back(std::make_unique<cal::sim::mem::MemSystem>(config));
  }
  return replicas;
}

/// The LogGP calibration plan of benchlib::run_net_calibration.
cal::Plan make_net_plan(std::uint64_t seed, double min_size, double max_size,
                        std::size_t samples_per_op) {
  return cal::DesignBuilder(seed)
      .add(cal::Factor::levels(
          "op", {cal::Value("send"), cal::Value("recv"), cal::Value("pingpong")},
          cal::FactorCategory::kExperimentPlan))
      .add(cal::Factor::log_uniform_real("size_bytes", min_size, max_size,
                                         cal::FactorCategory::kExperimentPlan))
      .samples_per_cell(samples_per_op)
      .randomize(true)
      .build();
}

/// The oracle shared by the net workloads: the recovered LogGP per-byte
/// gap within 15% of the link spec in every protocol regime, and the
/// eager-regime latency within 0.5 us / 0.8 us of L + g (the ping-pong
/// intercept folds the per-message gap into L).
bool loggp_recovered(const cal::benchlib::NetModel& model,
                     const cal::sim::net::LinkSpec& link, std::string* line) {
  std::ostringstream out;
  bool ok = model.segments.size() == 3 && link.segments.size() == 3;
  for (std::size_t s = 0; ok && s < 3; ++s) {
    const double truth = link.segments[s].gap_per_byte_us;
    const double got = model.segments[s].gap_per_byte_us;
    ok = ok && std::abs(got - truth) <= 0.15 * truth;
    out << "G" << s << "=" << got << "us/B (spec " << truth << ") ";
  }
  const double tol[2] = {0.5, 0.8};
  for (std::size_t s = 0; ok && s < 2; ++s) {
    const double truth = link.segments[s].latency_us + link.segments[s].gap_us;
    const double got = model.segments[s].latency_us;
    ok = ok && std::abs(got - truth) <= tol[s];
    out << "L" << s << "=" << got << "us (spec+g " << truth << ") ";
  }
  *line = (ok ? "LogGP recovered: " : "LogGP NOT recovered: ") + out.str();
  return ok;
}

/// The analysts' phase over `shapes`, with the mix of harness.hpp:
/// `windows` latency windows of kAnalystQueries queries each.
AnalystOutcome serve_analysts(const IterationEnv& env,
                              const std::vector<BundleShape>& shapes,
                              std::size_t windows, double full_share = 0.25,
                              const std::function<void()>& while_serving = {}) {
  std::size_t unique = 0;
  const auto queries = make_query_mix(shapes, windows * kAnalystQueries,
                                      full_share, env.seed, &unique);
  return run_analyst_phase(env.dir + "/catalog", env.socket, shapes, queries,
                           unique, *env.pool, *env.shadow, env.index,
                           while_serving);
}

/// Latency windows an iteration serves on the memory workloads, whose
/// bundles are small: a 1000-query window there lasts ~0.1 s on the
/// 4-vCPU reference host, shorter than the spells (~0.3-1 s) in which
/// that host runs one thread fast or slow, so three windows let each
/// iteration's analyst phase span more than one spell.
constexpr std::size_t kSmallBundleWindows = 3;

const std::vector<double> kNetBreakpoints = {16.0 * 1024, 32.0 * 1024};

// --------------------------------------------------------------------
// mem-sweep
// --------------------------------------------------------------------

class MemSweep final : public Workload {
 public:
  IterationResult iterate(const IterationEnv& env) override {
    IterationResult r;
    const cal::sim::MachineSpec machine = cal::sim::machines::core_i7_2600();
    const std::string bundle = env.dir + "/catalog/mem";
    double setup_s = 0.0;
    {
      trace::Span verdict_span("rb.verdict.mem_sweep");
      const auto t0 = SteadyClock::now();
      // Fig. 13 factor set; sizes log-uniform from 1 KB to 1.5x the LLC.
      cal::benchlib::MemPlanOptions plan_options;
      plan_options.size_levels = stratified_log_sizes(
          1024, static_cast<std::int64_t>(machine.caches.back().size_bytes * 3 / 2),
          kSizes, env.seed);
      plan_options.strides = {1, 2, 4, 8};
      plan_options.elem_bytes = {4, 8};
      plan_options.unrolls = {1, 8};
      plan_options.nloops = {20};
      plan_options.replications = 1;
      plan_options.seed = env.seed;
      cal::Plan plan = cal::benchlib::make_mem_plan(plan_options);

      cal::sim::mem::MemSystemConfig config;
      config.machine = machine;
      config.pool_pages = 8192;
      config.system_seed = env.seed;
      auto replicas = make_replicas(config);
      setup_s += seconds_since(t0);

      cal::Metadata md = cal::Metadata::capture_build();
      md.set("machine", machine.name);
      const cal::Campaign campaign(
          std::move(plan),
          cal::Engine(mem_metric_names({}),
                      engine_options(env.seed ^ 0x3E3u, 200e-6, env)),
          std::move(md));
      BbxWriterOptions bbx;
      bbx.shards = 4;
      bbx.block_records = kBlockRecords;
      if (!campaign_to_bundle(
              campaign, timed_mem_factory(replicas, machine, {}, *env.probe),
              bundle, bbx, r)) {
        return r;
      }

      const cal::RawTable table = read_bundle(bundle, env.pool.get());
      std::vector<double> xs, ys;
      {
        trace::Span span("rb.stats.size_diagnosis");
        for (const auto& d : cal::benchlib::diagnose_by_size(table)) {
          xs.push_back(std::log2(static_cast<double>(d.size_bytes)));
          ys.push_back(d.summary.mean);
        }
        cal::benchlib::diagnose_temporal(table);
      }
      // Breakpoints over per-size means in log2(size), scored in bytes
      // against the planted i7-2600 L1/L2 boundaries.
      cal::stats::BreakpointScore score;
      std::vector<double> detected;
      {
        trace::Span span("rb.stats.breakpoint_fit");
        const auto fit = cal::stats::segmented_least_squares(xs, ys);
        for (const double b : fit.breakpoints) detected.push_back(std::exp2(b));
        const std::vector<double> truth = {
            static_cast<double>(machine.caches[0].size_bytes),
            static_cast<double>(machine.caches[1].size_bytes)};
        score = cal::stats::score_breakpoints(detected, truth);
      }
      r.verdict_s = seconds_since(t0);
      r.tally.check(score.false_negatives == 0);
      std::ostringstream line;
      line << "breakpoints(bytes):";
      for (const double b : detected) line << " " << std::llround(b);
      line << " false_negatives=" << score.false_negatives;
      r.verdict = line.str();
    }

    const BundleShape shape{"mem", bundle, static_cast<std::size_t>(r.records),
                            kBlockRecords,
                            {"size_bytes", "stride", "elem_bytes"},
                            "bandwidth_mbps"};
    r.analyst = serve_analysts(env, {shape}, kSmallBundleWindows);
    r.tally.merge(r.analyst.tally);
    r.setup_s = setup_s + r.analyst.setup_s;
    return r;
  }

 private:
  static constexpr std::size_t kSizes = 80;
  static constexpr std::size_t kBlockRecords = 64;
};

// --------------------------------------------------------------------
// net-ingest
// --------------------------------------------------------------------

class NetIngest final : public Workload {
 public:
  IterationResult iterate(const IterationEnv& env) override {
    IterationResult r;
    const std::string bundle = env.dir + "/catalog/net";
    double setup_s = 0.0;
    {
      trace::Span verdict_span("rb.verdict.net_ingest");
      const auto t0 = SteadyClock::now();
      cal::Plan plan = make_net_plan(env.seed, 64.0, 1024.0 * 1024,
                                     kSamplesPerOp);
      cal::sim::net::NetworkSimConfig config;
      config.link = cal::sim::net::links::myrinet_gm();
      const cal::sim::net::NetworkSim network(config);
      setup_s += seconds_since(t0);

      const std::size_t op_index = plan.factor_index("op");
      const std::size_t size_index = plan.factor_index("size_bytes");
      const cal::Campaign campaign(
          std::move(plan),
          cal::Engine({"time_us"},
                      engine_options(env.seed ^ 0xC0FFEEu, 100e-6, env)),
          cal::Metadata::capture_build());
      BbxWriterOptions bbx;
      bbx.shards = 4;
      bbx.block_records = kBlockRecords;
      if (!campaign_to_bundle(
              campaign,
              timed_net_factory(network, op_index, size_index, *env.probe),
              bundle, bbx, r)) {
        return r;
      }

      const cal::RawTable table = read_bundle(bundle, env.pool.get());
      cal::benchlib::NetModel model;
      {
        trace::Span span("rb.stats.net_fit");
        model = cal::benchlib::analyze_net_calibration(table, kNetBreakpoints);
      }
      r.verdict_s = seconds_since(t0);
      r.tally.check(loggp_recovered(model, config.link, &r.verdict));
    }

    const BundleShape shape{"net", bundle, static_cast<std::size_t>(r.records),
                            kBlockRecords, {"op"}, "time_us"};
    // Full scans are 2% here, not 25%: a full group-by decodes all of
    // this 10^6-record bundle (the cache holds half of it), and at 25%
    // the 1000 queries took ~10 s of an ~18 s iteration on the 4-thread
    // reference host, which left one measured iteration per run.
    r.analyst = serve_analysts(env, {shape}, 1, 0.02);
    r.tally.merge(r.analyst.tally);
    r.setup_s = setup_s + r.analyst.setup_s;
    return r;
  }

 private:
  static constexpr std::size_t kSamplesPerOp = 333334;  // 10^6 observations
  static constexpr std::size_t kBlockRecords = 4096;
};

// --------------------------------------------------------------------
// analyst-serve
// --------------------------------------------------------------------

class AnalystServe final : public Workload {
 public:
  IterationResult iterate(const IterationEnv& env) override {
    IterationResult r;
    const std::string catalog = env.dir + "/catalog";
    const cal::sim::net::LinkSpec links[2] = {
        cal::sim::net::links::myrinet_gm(),
        cal::sim::net::links::openmpi_over_myrinet()};
    const char* const names[2] = {"myrinet", "openmpi"};

    // Catalog build: one seed-built calibration bundle per link.
    const auto build_t0 = SteadyClock::now();
    {
      trace::Span verdict_span("rb.verdict.catalog");
      for (std::size_t l = 0; l < 2; ++l) {
        cal::Plan plan = make_net_plan(env.seed + l, 64.0, 1024.0 * 1024,
                                       kSamplesPerOp);
        // Noise-free, like the integration scenarios: the workload is
        // about serving, and an exact link lets the analyst's served fit
        // be judged tightly.
        cal::sim::net::NetworkSimConfig config;
        config.link = links[l];
        config.enable_noise = false;
        const cal::sim::net::NetworkSim network(config);
        const std::size_t op_index = plan.factor_index("op");
        const std::size_t size_index = plan.factor_index("size_bytes");
        const cal::Campaign campaign(
            std::move(plan),
            cal::Engine({"time_us"},
                        engine_options((env.seed + l) ^ 0xC0FFEEu, 100e-6, env)),
            cal::Metadata::capture_build());
        BbxWriterOptions bbx;
        bbx.shards = 4;
        bbx.block_records = kBlockRecords;
        if (!campaign_to_bundle(
                campaign,
                timed_net_factory(network, op_index, size_index, *env.probe),
                catalog + "/" + names[l], bbx, r)) {
          return r;
        }
      }
    }
    const double build_s = seconds_since(build_t0);

    std::vector<BundleShape> shapes;
    for (std::size_t l = 0; l < 2; ++l) {
      shapes.push_back(BundleShape{names[l], catalog + "/" + names[l],
                                   static_cast<std::size_t>(r.records / 2),
                                   kBlockRecords, {"op"}, "time_us"});
    }
    // The analyst's verdict, while the server is up: fetch the raw
    // myrinet observations over the wire and fit LogGP.
    cal::serve::Request fetch;
    fetch.kind = cal::serve::RequestKind::kMaterialize;
    fetch.bundle = names[0];
    fetch.select = {"op", "size_bytes", "time_us"};
    std::string served_body;
    double fit_s = 0.0;
    bool fetched = false;
    const auto verdict = [&] {
      trace::Span verdict_span("rb.verdict.served_fit");
      const auto t0 = SteadyClock::now();
      try {
        auto client = cal::serve::QueryClient::connect_unix(env.socket);
        cal::serve::Response response = client.call(fetch);
        fetched = response.status == cal::serve::Status::kOk;
        served_body = std::move(response.body);
        if (fetched) {
          std::istringstream in(served_body);
          const cal::RawTable table = cal::RawTable::read_csv(in, 2);
          trace::Span span("rb.stats.net_fit");
          const auto model =
              cal::benchlib::analyze_net_calibration(table, kNetBreakpoints);
          r.tally.check(loggp_recovered(model, links[0], &r.verdict));
        } else {
          r.tally.fail();
          r.verdict = "verdict fetch failed: " + served_body;
        }
      } catch (const std::exception& e) {
        r.tally.fail();
        r.verdict = std::string("verdict failed: ") + e.what();
      }
      fit_s = seconds_since(t0);
    };
    r.analyst = serve_analysts(env, shapes, 1, 0.25, verdict);
    r.tally.merge(r.analyst.tally);
    if (fetched) {  // the verdict's response obeys the byte-identity oracle
      cal::query::ScanStats scan;
      const BbxReader reader(shapes[0].dir);
      r.tally.check(served_body ==
                    run_local_query(reader, fetch, env.pool.get(), &scan));
    }
    r.setup_s = build_s + r.analyst.setup_s;
    r.verdict_s = build_s + fit_s;
    return r;
  }

 private:
  static constexpr std::size_t kSamplesPerOp = 40000;
  static constexpr std::size_t kBlockRecords = 2048;
};

// --------------------------------------------------------------------
// pmu-audit
// --------------------------------------------------------------------

class PmuAudit final : public Workload {
 public:
  IterationResult iterate(const IterationEnv& env) override {
    IterationResult r;
    const cal::sim::MachineSpec machine = cal::sim::machines::core_i7_2600();
    const std::string bundle = env.dir + "/catalog/pmu";
    const std::vector<cal::sim::pmu::Event> events(
        cal::sim::pmu::all_events().begin(), cal::sim::pmu::all_events().end());
    double setup_s = 0.0;
    {
      trace::Span verdict_span("rb.verdict.pmu_audit");
      const auto t0 = SteadyClock::now();
      cal::benchlib::MemPlanOptions plan_options;
      plan_options.size_levels = regime_sizes(machine, env.seed);
      plan_options.strides = {16};  // one access per 64 B line
      plan_options.elem_bytes = {4};
      plan_options.unrolls = {4};
      plan_options.nloops = {50};
      plan_options.replications = 6;
      plan_options.seed = env.seed;
      cal::Plan plan = cal::benchlib::make_mem_plan(plan_options);

      cal::sim::mem::MemSystemConfig config;
      config.machine = machine;
      config.governor = cal::sim::cpu::GovernorKind::kPerformance;
      config.enable_noise = false;
      config.enable_pmu = true;
      config.pool_pages = 8192;
      config.system_seed = env.seed;
      auto replicas = make_replicas(config);
      setup_s += seconds_since(t0);

      cal::Metadata md = cal::Metadata::capture_build();
      md.set("machine", machine.name);
      const cal::Campaign campaign(
          std::move(plan),
          cal::Engine(mem_metric_names(events),
                      engine_options(env.seed ^ 0x9A1u, 200e-6, env)),
          std::move(md));
      BbxWriterOptions bbx;
      bbx.shards = 4;
      bbx.block_records = kBlockRecords;
      if (!campaign_to_bundle(
              campaign,
              timed_mem_factory(replicas, machine, events, *env.probe),
              bundle, bbx, r)) {
        return r;
      }

      const cal::RawTable table = read_bundle(bundle, env.pool.get());
      cal::stats::CrosscheckReport report;
      {
        trace::Span span("rb.stats.crosscheck");
        report = cal::stats::counter_crosscheck(table, machine);
      }
      r.verdict_s = seconds_since(t0);
      r.tally.check(report.passed() && report.contradictions == 0);
      r.verdict = std::string("counter crosscheck ") +
                  (report.passed() ? "PASS" : "FAIL") + ": " +
                  std::to_string(report.cells) + " cells, " +
                  std::to_string(report.contradictions) + " contradictions";
    }

    const BundleShape shape{"pmu", bundle, static_cast<std::size_t>(r.records),
                            kBlockRecords, {"size_bytes"}, "pmu.cycles"};
    r.analyst = serve_analysts(env, {shape}, kSmallBundleWindows);
    r.tally.merge(r.analyst.tally);
    r.setup_s = setup_s + r.analyst.setup_s;
    return r;
  }

 private:
  /// Seeded sizes inside every cache regime of `machine`, derived from
  /// its geometry: kPerRegime stratified draws per band, the bands kept
  /// clear of each boundary by a factor of 1.5.
  static std::vector<std::int64_t> regime_sizes(
      const cal::sim::MachineSpec& machine, std::uint64_t seed) {
    const auto& caches = machine.caches;
    std::vector<std::pair<double, double>> bands;
    bands.emplace_back(caches.front().size_bytes / 8.0,
                       caches.front().size_bytes * 0.75);
    for (std::size_t i = 0; i + 1 < caches.size(); ++i) {
      bands.emplace_back(caches[i].size_bytes * 1.5,
                         caches[i + 1].size_bytes * 0.75);
    }
    bands.emplace_back(caches.back().size_bytes * 1.5,
                       caches.back().size_bytes * 2.5);
    std::vector<std::int64_t> sizes;
    for (std::size_t b = 0; b < bands.size(); ++b) {
      for (const std::int64_t s : stratified_log_sizes(
               static_cast<std::int64_t>(bands[b].first),
               static_cast<std::int64_t>(bands[b].second), kPerRegime,
               seed + b)) {
        sizes.push_back(s);
      }
    }
    return sizes;
  }

  static constexpr std::size_t kPerRegime = 4;
  static constexpr std::size_t kBlockRecords = 16;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"mem-sweep", "net-ingest", "analyst-serve", "pmu-audit"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "mem-sweep") return std::make_unique<MemSweep>();
  if (name == "net-ingest") return std::make_unique<NetIngest>();
  if (name == "analyst-serve") return std::make_unique<AnalystServe>();
  if (name == "pmu-audit") return std::make_unique<PmuAudit>();
  return nullptr;
}

}  // namespace repobench
