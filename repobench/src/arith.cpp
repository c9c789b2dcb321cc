#include "arith.hpp"

#include <algorithm>
#include <cmath>
#include <random>

namespace repobench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

double interquartile_mean(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t cut = samples.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < samples.size() - cut; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * cut);
}

namespace {

/// 1-based nearest rank of percentile `level` among n samples.
std::size_t nearest_rank(std::size_t n, double level) {
  const double exact = level / 100.0 * static_cast<double>(n);
  // Guard against 0.99 * 1000 landing a hair above 990 in binary.
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double level) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), level) - 1];
}

std::size_t samples_beyond(std::size_t n, double level) {
  if (n == 0) return 0;
  return n - nearest_rank(n, level);
}

TailSummary summarize_tail(std::vector<double> samples,
                           std::size_t min_beyond) {
  TailSummary out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p50 = percentile_sorted(samples, 50.0);
  out.tail = out.p50;
  for (const double level : {99.0, 95.0, 90.0, 75.0}) {
    if (samples_beyond(samples.size(), level) >= min_beyond) {
      out.tail_level = level;
      out.tail = percentile_sorted(samples, level);
      break;
    }
  }
  return out;
}

double union_length(std::vector<Interval> intervals) {
  std::erase_if(intervals,
                [](const Interval& i) { return !(i.end > i.begin); });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double total = 0.0;
  bool open = false;
  Interval run;
  for (const Interval& i : intervals) {
    if (open && i.begin <= run.end) {
      run.end = std::max(run.end, i.end);
      continue;
    }
    if (open) total += run.end - run.begin;
    run = i;
    open = true;
  }
  if (open) total += run.end - run.begin;
  return total;
}

double covered_within(const std::vector<Interval>& children, Interval parent) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& c : children) {
    clipped.push_back(
        {std::max(c.begin, parent.begin), std::min(c.end, parent.end)});
  }
  return union_length(std::move(clipped));
}

const char* regime_name(Regime regime) noexcept {
  switch (regime) {
    case Regime::kL1:
      return "l1";
    case Regime::kL2:
      return "l2";
    case Regime::kLlc:
      return "llc";
    case Regime::kDram:
      return "dram";
  }
  return "?";
}

std::size_t footprint_bytes(std::size_t size_bytes, std::size_t stride_elems,
                            std::size_t elem_bytes, std::size_t line_bytes) {
  const std::size_t step = std::max<std::size_t>(stride_elems, 1) *
                           std::max<std::size_t>(elem_bytes, 1);
  if (line_bytes == 0 || step <= line_bytes) return size_bytes;
  const std::size_t accesses = (size_bytes + step - 1) / step;
  return accesses * line_bytes;
}

Regime classify_footprint(const cal::sim::MachineSpec& machine,
                          std::size_t footprint) {
  const auto& caches = machine.caches;
  if (caches.empty()) return Regime::kDram;
  if (footprint <= caches.front().size_bytes) return Regime::kL1;
  if (footprint > caches.back().size_bytes) return Regime::kDram;
  for (std::size_t i = 1; i + 1 < caches.size(); ++i) {
    if (footprint <= caches[i].size_bytes) return Regime::kL2;
  }
  return Regime::kLlc;
}

std::vector<std::int64_t> stratified_log_sizes(std::int64_t lo, std::int64_t hi,
                                               std::size_t count,
                                               std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double a = std::log(static_cast<double>(lo));
  const double width = (std::log(static_cast<double>(hi)) - a) /
                       static_cast<double>(std::max<std::size_t>(count, 1));
  std::vector<std::int64_t> sizes;
  for (std::size_t i = 0; i < count; ++i) {
    const double x = a + (static_cast<double>(i) + unit(rng)) * width;
    sizes.push_back(static_cast<std::int64_t>(std::llround(std::exp(x))));
  }
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

}  // namespace repobench
