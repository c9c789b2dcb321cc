// SIMD kernel microbench: per-level throughput of every dispatched
// kernel (varint zigzag-delta decode, CRC-32, LZ match copy, f64 column
// decode, compare masks, Welford fold, mask combinators) on synthetic
// archive-shaped workloads.  Emits BENCH_simd.json and enforces the
// dispatch layer's contract as checks: byte-identical output at every
// level the machine supports, and (full run only) the best level >= 2x
// the scalar tier on the checksum and compare kernels that dominate the
// bbx read path.
//
// A block-shaped varint row sits next to the bulk one: a 4096-record
// column of single-byte deltas, the bbx sequence/cell column shape the
// avx2 decoder exists for.  The bulk row (multi-byte random walk) is
// where scalar ties or wins.  welford_fold is the scalar kernel at every
// level; its row is kept as a cross-level identity check.
//
//   bench_simd [json-path] [--smoke]
//
// --smoke shrinks the buffers and skips the speedup floors (tiny inputs
// time too noisily); it is registered with CTest as an acceptance run.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "io/table_fmt.hpp"
#include "simd/dispatch.hpp"

using namespace cal;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void append_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Zigzag-delta varint stream for `values` (the bbx column encoding).
std::string encode_deltas(const std::vector<std::uint64_t>& values) {
  std::string out;
  out.reserve(values.size() * 2);
  std::uint64_t prev = 0;
  for (const std::uint64_t v : values) {
    const std::uint64_t d = v - prev;  // two's-complement delta
    const std::uint64_t zz =
        (d << 1) ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(d) >> 63);
    append_varint(out, zz);
    prev = v;
  }
  return out;
}

/// Times `f` over `reps` repetitions; returns seconds per repetition.
template <typename F>
double time_loop(F&& f, int reps) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) f();
  return seconds_since(t0) / reps;
}

struct KernelRow {
  std::string name;
  double bytes = 0;  // bytes processed per repetition
  std::vector<double> mbps;  // one entry per measured level
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_simd.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      json_path = arg;
    }
  }

  io::print_banner(std::cout, "SIMD kernels: per-level throughput");

  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::best_supported() == simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  std::cout << "Best supported level: "
            << simd::to_string(simd::best_supported()) << "; measuring";
  for (const simd::Level l : levels) std::cout << " " << simd::to_string(l);
  std::cout << ".\n\n";

  // Archive-shaped inputs: a sequence-like random walk for the varint
  // column, compressible-but-not-trivial bytes for CRC/LZ, lognormal-ish
  // doubles with NaN holes for the metric kernels.
  const std::size_t n = smoke ? (1u << 15) : (1u << 21);
  const int reps = smoke ? 2 : 8;
  std::mt19937_64 rng(0xca11be15);

  std::vector<std::uint64_t> walk(n);
  std::uint64_t acc = 1'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    acc += (rng() % 256) - 96;       // mostly 1-2 byte deltas
    if (rng() % 97 == 0) acc += rng() % (1ull << 40);  // occasional jump
    walk[i] = acc;
  }
  const std::string varints = encode_deltas(walk);

  std::vector<unsigned char> bytes(n * 4);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng() % 251);

  std::vector<double> doubles(n);
  for (std::size_t i = 0; i < n; ++i) {
    doubles[i] = static_cast<double>(rng() % 100000) * 1e-3 - 20.0;
    if (i % 251 == 0) doubles[i] = std::numeric_limits<double>::quiet_NaN();
  }
  std::vector<char> raw_doubles(n * 8);
  std::memcpy(raw_doubles.data(), doubles.data(), raw_doubles.size());

  std::vector<std::int64_t> ints(n);
  for (std::size_t i = 0; i < n; ++i) {
    ints[i] = static_cast<std::int64_t>(walk[i]);
  }

  std::vector<char> mask_a(n), mask_b(n);
  for (std::size_t i = 0; i < n; ++i) {
    mask_a[i] = static_cast<char>(rng() % 2);
    mask_b[i] = static_cast<char>(rng() % 2);
  }

  // Block shapes: one bbx block of records, timed over many repetitions.
  const std::size_t block = 4096;
  const int block_reps = smoke ? 16 : 4096;
  std::vector<std::uint64_t> small_steps(block);
  std::uint64_t step_acc = 0;
  for (auto& v : small_steps) {
    step_acc += (rng() % 127) - 63;  // |delta| < 64: single-byte varints
    v = step_acc;
  }
  const std::string block_varints = encode_deltas(small_steps);

  bench::Checker check;
  std::vector<KernelRow> rows = {
      {"delta_varint_decode", static_cast<double>(varints.size()), {}},
      {"crc32", static_cast<double>(bytes.size()), {}},
      {"lz_match_copy", static_cast<double>(bytes.size()), {}},
      {"f64le_decode", static_cast<double>(raw_doubles.size()), {}},
      {"cmp_mask_f64", static_cast<double>(raw_doubles.size()), {}},
      {"cmp_mask_i64", static_cast<double>(n * 8), {}},
      {"welford_fold", static_cast<double>(n * 8), {}},
      {"mask_count", static_cast<double>(n), {}},
      {"delta_varint_decode_4k_1byte",
       static_cast<double>(block_varints.size()), {}},
  };

  // Scalar outputs are the reference every other level must match byte
  // for byte.
  std::vector<std::uint64_t> ref_decode, out_decode(n);
  std::vector<std::uint64_t> ref_block_decode, out_block_decode(block);
  std::uint32_t ref_crc = 0;
  std::vector<char> ref_lz, out_lz(bytes.size());
  std::vector<double> ref_f64, out_f64(n);
  std::vector<char> ref_cmp_f64, ref_cmp_i64, out_cmp(n);
  simd::WelfordBatch ref_wf;
  std::size_t ref_count = 0;

  volatile std::uint64_t sink = 0;  // defeats dead-code elimination

  for (std::size_t li = 0; li < levels.size(); ++li) {
    const simd::Kernels& k = simd::kernels_at(levels[li]);
    const char* name = simd::to_string(levels[li]);

    // delta varint decode
    const std::size_t used = k.delta_varint_decode(
        reinterpret_cast<const unsigned char*>(varints.data()),
        varints.size(), n, out_decode.data());
    check.expect(used == varints.size(),
                 std::string(name) + ": varint decode consumes whole stream");
    rows[0].mbps.push_back(rows[0].bytes / time_loop([&] {
      sink = sink + k.delta_varint_decode(
          reinterpret_cast<const unsigned char*>(varints.data()),
          varints.size(), n, out_decode.data());
    }, reps) / 1e6);

    // crc32 (chained halves, the shard frame pattern)
    const std::uint32_t half = k.crc32(bytes.data(), n * 2, 0);
    const std::uint32_t crc = k.crc32(bytes.data() + n * 2, n * 2, half);
    rows[1].mbps.push_back(rows[1].bytes / time_loop([&] {
      sink = sink + k.crc32(bytes.data(), bytes.size(), 0);
    }, reps) / 1e6);

    // lz match copy: seed 64 bytes, then a long overlapping match (the
    // dominant decompress case) -- offset 13 < len forces replication.
    std::memcpy(out_lz.data(), bytes.data(), 64);
    k.lz_match_copy(out_lz.data() + 64, 13, out_lz.size() - 64);
    rows[2].mbps.push_back(rows[2].bytes / time_loop([&] {
      k.lz_match_copy(out_lz.data() + 64, 13, out_lz.size() - 64);
      sink = sink + static_cast<unsigned char>(out_lz.back());
    }, reps) / 1e6);

    // f64 column decode
    k.f64le_decode(raw_doubles.data(), n, out_f64.data());
    rows[3].mbps.push_back(rows[3].bytes / time_loop([&] {
      k.f64le_decode(raw_doubles.data(), n, out_f64.data());
      sink = sink + static_cast<std::uint64_t>(out_f64[n - 1]);
    }, reps) / 1e6);

    // cmp_mask_f64 (fresh fill, NaN-bearing input)
    k.cmp_mask_f64(raw_doubles.data(), n, simd::Cmp::kGe, 3.75,
                   out_cmp.data(), false);
    std::vector<char> cmp_f64_out = out_cmp;
    rows[4].mbps.push_back(rows[4].bytes / time_loop([&] {
      k.cmp_mask_f64(raw_doubles.data(), n, simd::Cmp::kGe, 3.75,
                     out_cmp.data(), false);
      sink = sink + static_cast<unsigned char>(out_cmp[n - 1]);
    }, reps) / 1e6);

    // cmp_mask_i64
    k.cmp_mask_i64(ints.data(), n, simd::Cmp::kLt,
                   static_cast<std::int64_t>(walk[n / 2]), out_cmp.data(),
                   false);
    std::vector<char> cmp_i64_out = out_cmp;
    rows[5].mbps.push_back(rows[5].bytes / time_loop([&] {
      k.cmp_mask_i64(ints.data(), n, simd::Cmp::kLt,
                     static_cast<std::int64_t>(walk[n / 2]), out_cmp.data(),
                     false);
      sink = sink + static_cast<unsigned char>(out_cmp[n - 1]);
    }, reps) / 1e6);

    // welford_fold under a ~50% mask
    simd::WelfordBatch wf;
    k.welford_fold(doubles.data(), mask_a.data(), n, &wf);
    rows[6].mbps.push_back(rows[6].bytes / time_loop([&] {
      simd::WelfordBatch tmp;
      k.welford_fold(doubles.data(), mask_a.data(), n, &tmp);
      sink = sink + tmp.n;
    }, reps) / 1e6);

    // mask_count (and the other combinators for the equality check)
    const std::size_t count = k.mask_count(mask_a.data(), n);
    std::vector<char> combo = mask_a;
    k.mask_and(combo.data(), mask_b.data(), n);
    k.mask_or(combo.data(), mask_b.data(), n);
    k.mask_not(combo.data(), n);
    const std::size_t combo_count = k.mask_count(combo.data(), n);
    rows[7].mbps.push_back(rows[7].bytes / time_loop([&] {
      sink = sink + k.mask_count(mask_a.data(), n);
    }, reps) / 1e6);

    // block-shaped varint column: single-byte deltas
    check.expect(k.delta_varint_decode(
                     reinterpret_cast<const unsigned char*>(
                         block_varints.data()),
                     block_varints.size(), block, out_block_decode.data()) ==
                     block_varints.size(),
                 std::string(name) + ": block varint decode consumes stream");
    rows[8].mbps.push_back(rows[8].bytes / time_loop([&] {
      sink = sink + k.delta_varint_decode(
          reinterpret_cast<const unsigned char*>(block_varints.data()),
          block_varints.size(), block, out_block_decode.data());
    }, block_reps) / 1e6);

    if (li == 0) {
      ref_decode = out_decode;
      ref_block_decode = out_block_decode;
      ref_crc = crc;
      ref_lz = out_lz;
      ref_f64 = out_f64;
      ref_cmp_f64 = cmp_f64_out;
      ref_cmp_i64 = cmp_i64_out;
      ref_wf = wf;
      ref_count = count + combo_count;
    } else {
      const std::string tag = std::string(name) + " byte-identical to scalar: ";
      check.expect(out_decode == ref_decode, tag + "delta_varint_decode");
      check.expect(crc == ref_crc, tag + "crc32 (chained)");
      check.expect(out_lz == ref_lz, tag + "lz_match_copy");
      check.expect(std::memcmp(out_f64.data(), ref_f64.data(), n * 8) == 0,
                   tag + "f64le_decode");
      check.expect(cmp_f64_out == ref_cmp_f64, tag + "cmp_mask_f64");
      check.expect(cmp_i64_out == ref_cmp_i64, tag + "cmp_mask_i64");
      check.expect(std::memcmp(&wf, &ref_wf, sizeof wf) == 0,
                   tag + "welford_fold");
      check.expect(count + combo_count == ref_count, tag + "mask kernels");
      check.expect(out_block_decode == ref_block_decode,
                   tag + "delta_varint_decode (block, 1-byte deltas)");
    }
  }

  io::TextTable table([&] {
    std::vector<std::string> header = {"kernel"};
    for (const simd::Level l : levels) {
      header.push_back(std::string(simd::to_string(l)) + " MB/s");
    }
    if (levels.size() > 1) header.push_back("best/scalar");
    return header;
  }());
  for (const KernelRow& row : rows) {
    std::vector<std::string> cells = {row.name};
    for (const double mbps : row.mbps) {
      cells.push_back(io::TextTable::num(mbps, 0));
    }
    if (levels.size() > 1) {
      cells.push_back(io::TextTable::num(row.mbps.back() / row.mbps.front(), 2) +
                      "x");
    }
    table.add_row(cells);
  }
  table.print(std::cout);

  if (!smoke && levels.size() > 1) {
    // The two kernels that dominate the bbx read path and have real
    // vector implementations (CLMUL CRC, vector compares) must clear the
    // acceptance floor; the rest are reported above.
    check.expect(rows[1].mbps.back() >= 2.0 * rows[1].mbps.front(),
                 "crc32 best level >= 2x scalar");
    check.expect(rows[4].mbps.back() >= 2.0 * rows[4].mbps.front(),
                 "cmp_mask_f64 best level >= 2x scalar");
  }

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  char buf[64];
  json << "{\n  \"bench\": \"simd\",\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"best_level\": \"" << simd::to_string(simd::best_supported())
       << "\",\n  \"elements\": " << n << ",\n  \"levels\": {\n";
  for (std::size_t li = 0; li < levels.size(); ++li) {
    json << "    \"" << simd::to_string(levels[li]) << "\": {";
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::snprintf(buf, sizeof buf, "%.1f", rows[r].mbps[li]);
      json << (r ? ", " : "") << "\"" << rows[r].name << "_mbps\": " << buf;
    }
    json << "}" << (li + 1 < levels.size() ? "," : "") << "\n";
  }
  json << "  },\n  \"speedup_best_vs_scalar\": {";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::snprintf(buf, sizeof buf, "%.2f",
                  rows[r].mbps.back() / rows[r].mbps.front());
    json << (r ? ", " : "") << "\"" << rows[r].name << "\": " << buf;
  }
  json << "}\n}\n";
  std::cout << "\nWrote " << json_path << "\n";

  (void)sink;
  return check.exit_code();
}
