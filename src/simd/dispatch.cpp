#include "simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>

#include "simd/kernels.hpp"

namespace cal::simd {

namespace {

const Kernels kScalarTable = {
    detail::delta_varint_decode_scalar,
    detail::crc32_scalar,
    detail::lz_match_copy_scalar,
    detail::f64le_decode_scalar,
    detail::cmp_mask_f64_scalar,
    detail::cmp_mask_i64_scalar,
    detail::welford_fold_scalar,
    detail::mask_and_scalar,
    detail::mask_or_scalar,
    detail::mask_not_scalar,
    detail::mask_count_scalar,
};

// CALIPERS_SIMD_AVX2 is defined when the build compiles kernels_avx2.cpp
// (the compiler accepts -mavx2 -mpclmul); without it only scalar exists.
#if defined(CALIPERS_SIMD_AVX2)
const Kernels kAvx2Table = {
    detail::delta_varint_decode_avx2,
    detail::crc32_clmul,
    detail::lz_match_copy_chunked,
    detail::f64le_decode_bulk,
    detail::cmp_mask_f64_avx2,
    detail::cmp_mask_i64_avx2,
    detail::welford_fold_scalar,  // one fold at every level
    detail::mask_and_avx2,
    detail::mask_or_avx2,
    detail::mask_not_avx2,
    detail::mask_count_avx2,
};
#endif

/// The avx2 table's CRC needs PCLMULQDQ, which AVX2 does not imply: a
/// CPU with one but not the other runs scalar.
Level probe_best() noexcept {
#if defined(CALIPERS_SIMD_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("pclmul")) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

Level clamp(Level level) noexcept {
  return static_cast<int>(level) > static_cast<int>(best_supported())
             ? best_supported()
             : level;
}

const Kernels& table_for(Level level) noexcept {
#if defined(CALIPERS_SIMD_AVX2)
  if (level == Level::kAvx2) return kAvx2Table;
#endif
  return kScalarTable;
}

Level initial_level() noexcept {
  const char* env = std::getenv("CAL_SIMD");
  Level level = best_supported();
  if (env != nullptr) {
    Level parsed = Level::kScalar;
    if (parse_level(env, &parsed)) level = clamp(parsed);
    // An unknown CAL_SIMD value falls back to the probed best rather
    // than failing: the variable is a testing knob, not config.
  }
  return level;
}

std::atomic<const Kernels*>& active_table() noexcept {
  static std::atomic<const Kernels*> table{&table_for(initial_level())};
  return table;
}

std::atomic<Level>& active_level_state() noexcept {
  static std::atomic<Level> level{initial_level()};
  return level;
}

}  // namespace

const char* to_string(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "?";
}

bool parse_level(const std::string& name, Level* out) noexcept {
  if (name == "scalar") { *out = Level::kScalar; return true; }
  if (name == "avx2") { *out = Level::kAvx2; return true; }
  return false;
}

Level best_supported() noexcept {
  static const Level best = probe_best();
  return best;
}

Level active_level() noexcept {
  return active_level_state().load(std::memory_order_acquire);
}

void set_level(Level level) noexcept {
  const Level clamped = clamp(level);
  active_level_state().store(clamped, std::memory_order_release);
  active_table().store(&table_for(clamped), std::memory_order_release);
}

const Kernels& kernels() noexcept {
  return *active_table().load(std::memory_order_acquire);
}

const Kernels& kernels_at(Level level) noexcept {
  return table_for(clamp(level));
}

}  // namespace cal::simd
