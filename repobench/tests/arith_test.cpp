// Self-tests of the benchmark's own arithmetic: the percentile rule,
// union-of-intervals self time, working-set regime classification and
// the failed_ratio tally.  Build and run with
//   python3 repobench/run.py --selftest

#include <gtest/gtest.h>

#include <sstream>

#include "arith.hpp"
#include "obs/trace.hpp"
#include "trace_fold.hpp"

namespace repobench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankOnOneToN) {
  const auto v = one_to(1000);
  EXPECT_EQ(percentile_sorted(v, 50.0), 500.0);
  EXPECT_EQ(percentile_sorted(v, 99.0), 990.0);
  EXPECT_EQ(percentile_sorted(v, 100.0), 1000.0);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(samples_beyond(0, 99.0), 0u);
}

TEST(Percentile, TailIsHighestLevelWithTenBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond.
  auto t = summarize_tail(one_to(1000));
  EXPECT_EQ(t.tail_level, 99.0);
  EXPECT_EQ(t.tail, 990.0);
  EXPECT_EQ(t.p50, 500.0);
  // 999: p99 leaves 9, so the tail drops to p95.
  t = summarize_tail(one_to(999));
  EXPECT_EQ(t.tail_level, 95.0);
  EXPECT_EQ(t.tail, 950.0);
  // 200: p95 leaves exactly 10; 199 leaves 9 -> p90.
  EXPECT_EQ(summarize_tail(one_to(200)).tail_level, 95.0);
  EXPECT_EQ(summarize_tail(one_to(199)).tail_level, 90.0);
  // 40: p75 leaves 10; 30 has no qualifying tail and falls back to p50.
  EXPECT_EQ(summarize_tail(one_to(40)).tail_level, 75.0);
  t = summarize_tail(one_to(30));
  EXPECT_EQ(t.tail_level, 50.0);
  EXPECT_EQ(t.tail, t.p50);
  EXPECT_EQ(summarize_tail({}).n, 0u);
}

TEST(Percentile, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = one_to(1000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(summarize_tail(v).tail, 990.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(InterquartileMean, DropsAQuarterAtEachEnd) {
  EXPECT_EQ(interquartile_mean({}), 0.0);
  EXPECT_EQ(interquartile_mean({5.0}), 5.0);
  EXPECT_EQ(interquartile_mean({1.0, 3.0}), 2.0);       // n/4 = 0: the mean
  EXPECT_EQ(interquartile_mean({9.0, 1.0, 2.0}), 4.0);  // still the mean
  EXPECT_EQ(interquartile_mean({100.0, 1.0, 3.0, 2.0}), 2.5);  // drops 1, 100
  // Eight samples, two dropped at each end: one stall cannot move it.
  EXPECT_EQ(interquartile_mean({1, 2, 3, 4, 5, 6, 7, 1e9}), 4.5);
  // Two modes: the median jumps with one sample, the IQM moves by a step.
  const std::vector<double> fast_heavy = {1, 1, 1, 1, 1, 2, 2, 2, 2};
  const std::vector<double> slow_heavy = {1, 1, 1, 1, 2, 2, 2, 2, 2};
  EXPECT_EQ(median(slow_heavy) - median(fast_heavy), 1.0);
  EXPECT_NEAR(interquartile_mean(slow_heavy) - interquartile_mean(fast_heavy),
              0.2, 1e-12);
}

TEST(Intervals, UnionCountsOverlapsOnce) {
  EXPECT_DOUBLE_EQ(union_length({}), 0.0);
  EXPECT_DOUBLE_EQ(union_length({{0, 2}, {1, 3}}), 3.0);          // overlap
  EXPECT_DOUBLE_EQ(union_length({{0, 10}, {2, 3}, {4, 5}}), 10.0);  // nested
  EXPECT_DOUBLE_EQ(union_length({{5, 6}, {0, 1}}), 2.0);            // disjoint
  EXPECT_DOUBLE_EQ(union_length({{0, 1}, {1, 2}}), 2.0);            // touching
  EXPECT_DOUBLE_EQ(union_length({{3, 1}, {2, 2}}), 0.0);  // inverted, empty
}

TEST(Intervals, CoverageIsClippedToTheParent) {
  // Parent [0,10]; children [1,3] and [2,5] overlap, [8,12] sticks out.
  const std::vector<Interval> children = {{1, 3}, {2, 5}, {8, 12}, {20, 30}};
  EXPECT_DOUBLE_EQ(covered_within(children, {0, 10}), 6.0);
  EXPECT_DOUBLE_EQ(10.0 - covered_within(children, {0, 10}), 4.0);  // self
}

TEST(TraceFold, SelfTimeIsSpanMinusUnionOfChildrenOnAnyThread) {
  // The engine's campaign span on thread 0 covers sim calls on worker
  // threads 1 and 2 and an archive batch on its own thread.
  const std::vector<SpanEvent> spans = {
      {"rb.verdict.x", 0, 0.0, 10.0},       {"rb.core.campaign", 0, 1.0, 8.0},
      {"rb.sim.measure.l1", 1, 1.0, 4.0},   {"rb.sim.measure.l1", 2, 2.0, 4.0},
      {"rb.archive.consume", 0, 6.0, 1.0},  {"engine.window", 0, 1.0, 5.0},
      {"rb.stats.net_fit", 0, 9.5, 0.25}};
  const auto table = fold_layers(spans);
  ASSERT_EQ(table.size(), 5u);
  EXPECT_EQ(table[0].layer, "verdict");
  EXPECT_EQ(table[1].layer, "core");
  EXPECT_EQ(table[2].layer, "sim");
  EXPECT_EQ(table[3].layer, "archive");
  EXPECT_EQ(table[4].layer, "stats");
  // core: [1,9] minus union([1,5],[2,6],[6,7]) = 8 - 6.
  EXPECT_DOUBLE_EQ(table[1].self_s, 2.0);
  // Blocked on the workers: union 6 minus the same-thread archive 1.
  EXPECT_DOUBLE_EQ(table[1].wait_s, 5.0);
  // verdict: 10 minus union([1,9], children, [9.5,9.75]).
  EXPECT_DOUBLE_EQ(table[0].self_s, 10.0 - 8.25);
  // Leaves: self == busy, no wait; program spans belong to no row.
  EXPECT_EQ(table[2].count, 2u);
  EXPECT_DOUBLE_EQ(table[2].busy_s, 8.0);
  EXPECT_DOUBLE_EQ(table[2].self_s, 8.0);
  EXPECT_DOUBLE_EQ(table[2].wait_s, 0.0);
}

TEST(TraceFold, ParsesWhatObsTraceWrites) {
  cal::obs::trace::start();
  cal::obs::trace::record("rb.core.campaign", 1000, 9000);
  cal::obs::trace::record("rb.archive.consume", 2000, 1000);
  cal::obs::trace::stop();
  std::ostringstream out;
  cal::obs::trace::flush_json(out);
  const auto spans = parse_trace_json(out.str());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "rb.core.campaign");
  EXPECT_NEAR(spans[0].start_s, 1e-6, 1e-15);
  EXPECT_NEAR(spans[0].dur_s, 9e-6, 1e-15);
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  const auto table = fold_layers(spans);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_NEAR(table[0].self_s, 8e-6, 1e-15);
  EXPECT_THROW(parse_trace_json("{\"traceEvents\":[{\"ph\":"), std::runtime_error);
  EXPECT_EQ(span_layer("rb.serve.call.full"), "serve");
  EXPECT_EQ(span_layer("engine.window"), "");
}

TEST(Regime, FootprintCountsDistinctLines) {
  EXPECT_EQ(footprint_bytes(4096, 1, 8, 64), 4096u);
  EXPECT_EQ(footprint_bytes(4096, 16, 4, 64), 4096u);  // one access per line
  EXPECT_EQ(footprint_bytes(4096, 32, 4, 64), 2048u);  // every other line
  EXPECT_EQ(footprint_bytes(4096, 64, 8, 64), 512u);
}

TEST(Regime, ClassifiesAgainstEveryMachineSpec) {
  for (const auto& m : cal::sim::machines::all()) {
    SCOPED_TRACE(m.name);
    const auto& c = m.caches;
    ASSERT_GE(c.size(), 2u);
    const std::size_t l1 = c.front().size_bytes;
    const std::size_t llc = c.back().size_bytes;
    EXPECT_EQ(classify_footprint(m, 1024), Regime::kL1);
    EXPECT_EQ(classify_footprint(m, l1), Regime::kL1);
    EXPECT_EQ(classify_footprint(m, llc), Regime::kLlc);
    EXPECT_EQ(classify_footprint(m, llc + 1), Regime::kDram);
    // Just past L1: a middle level where there is one (l2), else the
    // second level is the last level (llc).
    EXPECT_EQ(classify_footprint(m, l1 + 1),
              c.size() >= 3 ? Regime::kL2 : Regime::kLlc);
    if (c.size() >= 3) {
      EXPECT_EQ(classify_footprint(m, c[1].size_bytes), Regime::kL2);
      EXPECT_EQ(classify_footprint(m, c[1].size_bytes + 1), Regime::kLlc);
    }
  }
  const auto i7 = cal::sim::machines::core_i7_2600();
  EXPECT_EQ(classify_footprint(i7, 256 * 1024), Regime::kL2);
  EXPECT_EQ(classify_footprint(i7, 8u << 20), Regime::kLlc);
  EXPECT_EQ(classify_footprint(i7, 12u << 20), Regime::kDram);
  EXPECT_STREQ(regime_name(Regime::kDram), "dram");
}

TEST(Tally, FailedRatioCountsEveryFailureKind) {
  Tally t;
  EXPECT_EQ(t.failed_ratio(), 0.0);
  t.pass(96);                 // campaign runs
  t.fail(2);                  // runs that threw
  EXPECT_FALSE(t.check(false));  // a failed oracle
  EXPECT_TRUE(t.check(true));
  Tally served;
  served.pass(9);
  served.fail();              // a kError response
  t.merge(served);
  EXPECT_EQ(t.attempted, 96u + 2 + 2 + 10);
  EXPECT_EQ(t.failed, 4u);
  EXPECT_DOUBLE_EQ(t.failed_ratio(), 4.0 / 110.0);
}

TEST(Sizes, StratifiedLogSizesCoverEveryStratum) {
  const auto sizes = stratified_log_sizes(1024, 1 << 20, 10, 7);
  ASSERT_EQ(sizes.size(), 10u);
  EXPECT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    // Stratum i spans [1024 * 2^i, 1024 * 2^(i+1)] for 10 strata of 2x.
    EXPECT_GE(sizes[i], 1024ll << i);
    EXPECT_LE(sizes[i], 1024ll << (i + 1));
  }
  EXPECT_EQ(sizes, stratified_log_sizes(1024, 1 << 20, 10, 7));
  EXPECT_NE(sizes, stratified_log_sizes(1024, 1 << 20, 10, 8));
}

}  // namespace
}  // namespace repobench
