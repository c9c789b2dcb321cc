#pragma once
// The benchmark's own arithmetic, kept apart from the workloads so the
// self-tests (tests/arith_test.cpp) can pin it down:
//
//   * timing summaries: the median, plus the highest percentile of a
//     fixed ladder that still has at least ten samples beyond it (a
//     p99 out of 200 samples is one sample, not a percentile), and the
//     interquartile mean that folds a run's iterations into one figure;
//   * interval unions, for self time = span minus the union of its
//     children's intervals (children may overlap, and may run on other
//     threads);
//   * working-set regime classification against a MachineSpec;
//   * the operation tally behind failed_ratio;
//   * stratified log-uniform size draws.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/machine.hpp"

namespace repobench {

/// Median of `samples` (mean of the middle pair for even counts); 0 for
/// an empty input.
double median(std::vector<double> samples);

/// Interquartile mean: the mean of `samples` after dropping the lowest
/// and the highest n/4 (rounded down); 0 for an empty input.  It folds
/// a run's iterations into one figure.  Unlike the median it moves
/// smoothly when the iterations fall into two modes (a slow and a fast
/// host state), and unlike the mean one stalled iteration cannot move it.
double interquartile_mean(std::vector<double> samples);

/// Nearest-rank percentile (`level` in (0, 100]) of ascending `sorted`.
double percentile_sorted(const std::vector<double>& sorted, double level);

/// Samples strictly beyond the nearest-rank percentile `level` of n.
std::size_t samples_beyond(std::size_t n, double level);

/// p50 and the tail: the highest of 99, 95, 90, 75 whose nearest-rank
/// percentile leaves at least `min_beyond` samples beyond it.  When not
/// even p75 qualifies the tail falls back to p50 (tail_level 50).
struct TailSummary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_level = 50.0;
  double tail = 0.0;
};
TailSummary summarize_tail(std::vector<double> samples,
                           std::size_t min_beyond = 10);

/// Half-open time interval [begin, end).
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Total length covered by the union of `intervals` (overlaps counted
/// once, empty or inverted intervals ignored).
double union_length(std::vector<Interval> intervals);

/// Length of the union of `children` clipped to `parent`.
double covered_within(const std::vector<Interval>& children, Interval parent);

/// Cache regime a working set lands in on a given machine.
enum class Regime { kL1 = 0, kL2 = 1, kLlc = 2, kDram = 3 };
inline constexpr std::size_t kRegimes = 4;
const char* regime_name(Regime regime) noexcept;

/// Bytes of distinct cache lines a strided kernel touches: the whole
/// buffer while the stride fits in a line, one line per access beyond.
std::size_t footprint_bytes(std::size_t size_bytes, std::size_t stride_elems,
                            std::size_t elem_bytes, std::size_t line_bytes);

/// Regime of a footprint: l1 when it fits the first level, llc when it
/// fits the last level, l2 when it fits a middle level (machines with
/// only two levels have no l2 regime: their second level is the LLC),
/// dram otherwise.
Regime classify_footprint(const cal::sim::MachineSpec& machine,
                          std::size_t footprint);

/// Attempted/failed operation counts behind failed_ratio: campaign runs,
/// served queries and output oracles all count, and a run that threw,
/// a kError or transport failure, or a failed oracle is a failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void pass(std::uint64_t n = 1) { attempted += n; }
  void fail(std::uint64_t n = 1) {
    attempted += n;
    failed += n;
  }
  /// Counts one check: pass when `ok`, else fail.  Returns `ok`.
  bool check(bool ok) {
    ok ? pass() : fail();
    return ok;
  }
  void merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  double failed_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Stratified log-uniform sizes: one draw per equal-log-width stratum
/// of [lo, hi], ascending.  Far steadier total campaign cost across
/// seeds than independent draws, with the same marginal distribution.
std::vector<std::int64_t> stratified_log_sizes(std::int64_t lo, std::int64_t hi,
                                               std::size_t count,
                                               std::uint64_t seed);

}  // namespace repobench
