// AVX2 kernel tier: 32-byte varint scanning, PCLMULQDQ-folded CRC-32
// (the Intel "Fast CRC Computation Using PCLMULQDQ" reduction over the
// reflected IEEE polynomial), chunked LZ match copies, bulk f64 column
// decode, 4-lane compare kernels, and 32-byte mask combinators.
// Compiled with -mavx2 -mpclmul -ffp-contract=off, and only when the
// compiler accepts those flags (CMakeLists.txt); dispatch selects this
// tier only on CPUs with both AVX2 and PCLMULQDQ.

#include <immintrin.h>

#include <bit>
#include <cstring>

#include "simd/kernels.hpp"

namespace cal::simd::detail {

std::size_t delta_varint_decode_avx2(const unsigned char* data,
                                     std::size_t size, std::size_t n,
                                     std::uint64_t* out) {
  std::size_t pos = 0, i = 0;
  std::int64_t prev = 0;
  while (i < n) {
    if (size - pos >= 32) {
      const __m256i chunk =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + pos));
      const std::uint32_t cont =
          static_cast<std::uint32_t>(_mm256_movemask_epi8(chunk));
      const std::size_t run = cont == 0 ? 32 : std::countr_zero(cont);
      const std::size_t take = run < n - i ? run : n - i;
      for (std::size_t j = 0; j < take; ++j) {
        prev += unzigzag(data[pos + j]);
        out[i + j] = static_cast<std::uint64_t>(prev);
      }
      pos += take;
      i += take;
      if (i == n) break;
      if (run == 32) continue;
      std::uint64_t v = 0;
      const std::size_t used = decode_one_varint(data + pos, size - pos, &v);
      if (used == 0) return kDecodeError;
      pos += used;
      prev += unzigzag(v);
      out[i++] = static_cast<std::uint64_t>(prev);
      continue;
    }
    std::uint64_t v = 0;
    const std::size_t used = decode_one_varint(data + pos, size - pos, &v);
    if (used == 0) return kDecodeError;
    pos += used;
    prev += unzigzag(v);
    out[i++] = static_cast<std::uint64_t>(prev);
  }
  return pos;
}

namespace {

// Folding constants for the reflected IEEE polynomial (Intel CLMUL
// whitepaper; the layout zlib's crc32_simd uses): k1/k2 fold 64 bytes,
// k3/k4 fold 16, k5 reduces 96->64 bits, then a Barrett reduction with
// mu and the polynomial produces the 32-bit remainder.
const std::uint64_t kK1K2[2] = {0x0154442bd4, 0x01c6e41596};
const std::uint64_t kK3K4[2] = {0x01751997d0, 0x00ccaa009e};
const std::uint64_t kK5K0[2] = {0x0163cd6124, 0x0000000000};
const std::uint64_t kPoly[2] = {0x01db710641, 0x01f7011641};

/// CLMUL body over a multiple-of-16, >= 64 byte buffer.  Takes and
/// returns the *raw* (pre/post-conditioned) CRC state.
std::uint32_t crc32_clmul_raw(const unsigned char* buf, std::size_t len,
                              std::uint32_t crc) {
  __m128i x0, x1, x2, x3, x4, x5;

  x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf));
  x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 16));
  x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 32));
  x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 48));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
  x0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK1K2));
  buf += 64;
  len -= 64;

  // Parallel fold, four 16-byte stripes at a time.
  while (len >= 64) {
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(x1, _mm_loadu_si128(
                               reinterpret_cast<const __m128i*>(buf)));
    x1 = _mm_xor_si128(x1, x5);
    x5 = _mm_clmulepi64_si128(x2, x0, 0x00);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x11);
    x2 = _mm_xor_si128(x2, _mm_loadu_si128(
                               reinterpret_cast<const __m128i*>(buf + 16)));
    x2 = _mm_xor_si128(x2, x5);
    x5 = _mm_clmulepi64_si128(x3, x0, 0x00);
    x3 = _mm_clmulepi64_si128(x3, x0, 0x11);
    x3 = _mm_xor_si128(x3, _mm_loadu_si128(
                               reinterpret_cast<const __m128i*>(buf + 32)));
    x3 = _mm_xor_si128(x3, x5);
    x5 = _mm_clmulepi64_si128(x4, x0, 0x00);
    x4 = _mm_clmulepi64_si128(x4, x0, 0x11);
    x4 = _mm_xor_si128(x4, _mm_loadu_si128(
                               reinterpret_cast<const __m128i*>(buf + 48)));
    x4 = _mm_xor_si128(x4, x5);
    buf += 64;
    len -= 64;
  }

  // Fold the four stripes into one.
  x0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK3K4));
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(x1, x2);
  x1 = _mm_xor_si128(x1, x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(x1, x3);
  x1 = _mm_xor_si128(x1, x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(x1, x4);
  x1 = _mm_xor_si128(x1, x5);

  // Remaining whole 16-byte chunks.
  while (len >= 16) {
    x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf));
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(x1, x2);
    x1 = _mm_xor_si128(x1, x5);
    buf += 16;
    len -= 16;
  }

  // 128 -> 64 bits.
  x2 = _mm_clmulepi64_si128(x1, x0, 0x10);
  x3 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_srli_si128(x1, 8);
  x1 = _mm_xor_si128(x1, x2);
  x0 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kK5K0));
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, x3);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  // Barrett reduction to 32 bits.
  x0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(kPoly));
  x2 = _mm_and_si128(x1, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x10);
  x2 = _mm_and_si128(x2, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

}  // namespace

std::uint32_t crc32_clmul(const void* data, std::size_t size,
                          std::uint32_t seed) {
  // The folded body needs >= 64 bytes and eats whole 16-byte chunks;
  // the rest (buffers under 64 bytes, tails of at most 15) goes through
  // the bytewise scalar loop.
  if (size < 64) return crc32_scalar(data, size, seed);
  const auto* p = static_cast<const unsigned char*>(data);
  const std::size_t folded = size & ~static_cast<std::size_t>(15);
  std::uint32_t raw = seed ^ 0xFFFFFFFFu;
  raw = crc32_clmul_raw(p, folded, raw);
  return crc32_scalar(p + folded, size - folded, raw ^ 0xFFFFFFFFu);
}

void lz_match_copy_chunked(char* dst, std::size_t offset, std::size_t len) {
  if (offset >= len) {
    // Non-overlapping: one straight copy.
    std::memcpy(dst, dst - offset, len);
    return;
  }
  // Overlapping back-reference: the match replicates a period-`offset`
  // pattern.  Seed one period, then double the filled prefix -- each
  // copy's source and destination are disjoint, and every copy starts
  // at a multiple of the period, so replication semantics are
  // preserved while copies run chunk-at-a-time.
  std::memcpy(dst, dst - offset, offset);
  std::size_t filled = offset;
  while (filled < len) {
    const std::size_t chunk = filled < len - filled ? filled : len - filled;
    std::memcpy(dst + filled, dst, chunk);
    filled += chunk;
  }
}

void f64le_decode_bulk(const void* src, std::size_t n, double* out) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, src, n * sizeof(double));
  } else {
    f64le_decode_scalar(src, n, out);
  }
}

namespace {

template <bool refine, int imm>
inline void cmp_mask_f64_loop(const void* values, std::size_t n, Cmp op,
                              double lit, char* mask) {
  const auto* p = static_cast<const unsigned char*>(values);
  const __m256d vlit = _mm256_set1_pd(lit);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v =
        _mm256_loadu_pd(reinterpret_cast<const double*>(p + 8 * i));
    const int m = _mm256_movemask_pd(_mm256_cmp_pd(v, vlit, imm));
    for (int j = 0; j < 4; ++j) {
      if constexpr (refine) {
        mask[i + j] &= static_cast<char>((m >> j) & 1);
      } else {
        mask[i + j] = static_cast<char>((m >> j) & 1);
      }
    }
  }
  for (; i < n; ++i) {
    if (refine && !mask[i]) continue;
    double v = 0.0;
    std::memcpy(&v, p + 8 * i, sizeof(double));
    mask[i] = cmp_f64(v, op, lit);
  }
}

template <bool refine>
inline void cmp_mask_f64_dispatch(const void* values, std::size_t n, Cmp op,
                                  double lit, char* mask) {
  // Ordered compares are false on NaN (value_compare semantics); kNe is
  // the one unordered-true op.
  switch (op) {
    case Cmp::kEq:
      cmp_mask_f64_loop<refine, _CMP_EQ_OQ>(values, n, op, lit, mask);
      return;
    case Cmp::kNe:
      cmp_mask_f64_loop<refine, _CMP_NEQ_UQ>(values, n, op, lit, mask);
      return;
    case Cmp::kLt:
      cmp_mask_f64_loop<refine, _CMP_LT_OQ>(values, n, op, lit, mask);
      return;
    case Cmp::kLe:
      cmp_mask_f64_loop<refine, _CMP_LE_OQ>(values, n, op, lit, mask);
      return;
    case Cmp::kGt:
      cmp_mask_f64_loop<refine, _CMP_GT_OQ>(values, n, op, lit, mask);
      return;
    case Cmp::kGe:
      cmp_mask_f64_loop<refine, _CMP_GE_OQ>(values, n, op, lit, mask);
      return;
  }
}

template <bool refine>
inline void cmp_mask_i64_impl(const std::int64_t* values, std::size_t n,
                              Cmp op, std::int64_t lit, char* mask) {
  const __m256i vlit = _mm256_set1_epi64x(lit);
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    __m256i r;
    switch (op) {
      case Cmp::kEq: r = _mm256_cmpeq_epi64(v, vlit); break;
      case Cmp::kNe:
        r = _mm256_xor_si256(_mm256_cmpeq_epi64(v, vlit), ones);
        break;
      case Cmp::kGt: r = _mm256_cmpgt_epi64(v, vlit); break;
      case Cmp::kLe:
        r = _mm256_xor_si256(_mm256_cmpgt_epi64(v, vlit), ones);
        break;
      case Cmp::kLt: r = _mm256_cmpgt_epi64(vlit, v); break;
      case Cmp::kGe:
        r = _mm256_xor_si256(_mm256_cmpgt_epi64(vlit, v), ones);
        break;
      default: r = _mm256_setzero_si256(); break;
    }
    const int m = _mm256_movemask_pd(_mm256_castsi256_pd(r));
    for (int j = 0; j < 4; ++j) {
      if constexpr (refine) {
        mask[i + j] &= static_cast<char>((m >> j) & 1);
      } else {
        mask[i + j] = static_cast<char>((m >> j) & 1);
      }
    }
  }
  for (; i < n; ++i) {
    if (refine && !mask[i]) continue;
    mask[i] = cmp_i64(values[i], op, lit);
  }
}

}  // namespace

void cmp_mask_f64_avx2(const void* values, std::size_t n, Cmp op,
                       double lit, char* mask, bool refine) {
  if (refine) {
    cmp_mask_f64_dispatch<true>(values, n, op, lit, mask);
  } else {
    cmp_mask_f64_dispatch<false>(values, n, op, lit, mask);
  }
}

void cmp_mask_i64_avx2(const std::int64_t* values, std::size_t n, Cmp op,
                       std::int64_t lit, char* mask, bool refine) {
  if (refine) {
    cmp_mask_i64_impl<true>(values, n, op, lit, mask);
  } else {
    cmp_mask_i64_impl<false>(values, n, op, lit, mask);
  }
}

void mask_and_avx2(char* dst, const char* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(a, b));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

void mask_or_avx2(char* dst, const char* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(a, b));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

void mask_not_avx2(char* mask, std::size_t n) {
  std::size_t i = 0;
  const __m256i one = _mm256_set1_epi8(1);
  for (; i + 32 <= n; i += 32) {
    const __m256i m =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mask + i),
                        _mm256_xor_si256(m, one));
  }
  for (; i < n; ++i) mask[i] = !mask[i];
}

std::size_t mask_count_avx2(const char* mask, std::size_t n) {
  std::size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  for (; i + 32 <= n; i += 32) {
    const __m256i m =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(m, zero));
  }
  std::uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t count = static_cast<std::size_t>(lanes[0] + lanes[1] +
                                               lanes[2] + lanes[3]);
  for (; i < n; ++i) count += mask[i] != 0;
  return count;
}

}  // namespace cal::simd::detail
