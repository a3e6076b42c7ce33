#include "net/checksum.hpp"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace xmem::net {

namespace {

std::uint64_t sum_words(std::span<const std::uint8_t> data) {
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (static_cast<std::uint64_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) {
    sum += static_cast<std::uint64_t>(data[i]) << 8;
  }
  return sum;
}

std::uint16_t fold(std::uint64_t sum) {
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

// Slicing-by-16 tables: kCrcTables[0] is the classic byte-at-a-time
// table; kCrcTables[k][b] is the CRC register after byte b is followed
// by k zero bytes, so 16 lookups fold 16 input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xff];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

#if defined(__x86_64__)

// One fold step: multiply both 64-bit halves of `x` by the fold
// distance's constants in `k` and add the next 16-byte block.
__attribute__((target("pclmul"))) inline __m128i fold16(__m128i x,
                                                        __m128i k,
                                                        __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// An unaligned vector load of opaque CRC input, not a header field.
inline __m128i load16(const std::uint8_t* p) {
  // xmem-lint: allow(wire-bytes)
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Carry-less-multiply CRC fold (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// bit-reflected domain of 0xEDB88320. `c` is the inverted CRC register
// and so is the result; `n` must be a multiple of 16 and at least 64.
// Four 128-bit lanes fold 64 bytes per step, collapse to one lane that
// folds the remaining 16-byte blocks, and a Barrett reduction takes the
// 128-bit remainder to 32 bits.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(
    const std::uint8_t* p, std::size_t n, std::uint32_t c) {
  // x^(512±32), x^(128±32) and x^64 mod P, then P and floor(x^64 / P),
  // all bit-reflected.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x1 = fold16(x1, k1k2, load16(p));
    x2 = fold16(x2, k1k2, load16(p + 16));
    x3 = fold16(x3, k1k2, load16(p + 32));
    x4 = fold16(x4, k1k2, load16(p + 48));
  }
  x1 = fold16(x1, k3k4, x2);
  x1 = fold16(x1, k3k4, x3);
  x1 = fold16(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold16(x1, k3k4, load16(p));

  // 128 -> 64 bits, then 64 -> 32 bits ahead of the Barrett step.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

// CPUID is read once; a function-local static initialises thread-safely.
bool cpu_has_crc32_fold() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // __x86_64__

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return fold(sum_words(data));
}

void InternetChecksum::add(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  if (odd_) {
    // The previous chunk ended on an odd byte: that byte was already added
    // as the high half of a word, so this chunk's first byte is the low
    // half.
    sum_ += data[0];
    data = data.subspan(1);
    odd_ = false;
  }
  sum_ += sum_words(data);
  if (data.size() % 2 != 0) odd_ = true;
}

void InternetChecksum::add_u16(std::uint16_t v) {
  const std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8),
                             static_cast<std::uint8_t>(v)};
  add(std::span<const std::uint8_t>(b, 2));
}

std::uint16_t InternetChecksum::finish() const { return fold(sum_); }

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  const auto& t = kCrcTables;
  std::uint32_t c = seed ^ 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__)
  // Whole 16-byte blocks of a long input go through the fold; the
  // table loops below finish the tail from the folded register.
  if (n >= 64 && cpu_has_crc32_fold()) {
    const std::size_t folded = n & ~std::size_t{15};
    c = crc32_fold(p, folded, c);
    p += folded;
    n -= folded;
  }
#endif
  // The register is XORed into the first four bytes one byte at a time,
  // so the result does not depend on host endianness.
  for (; n >= 16; p += 16, n -= 16) {
    c = t[15][p[0] ^ (c & 0xff)] ^ t[14][p[1] ^ ((c >> 8) & 0xff)] ^
        t[13][p[2] ^ ((c >> 16) & 0xff)] ^ t[12][p[3] ^ (c >> 24)] ^
        t[11][p[4]] ^ t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^
        t[7][p[8]] ^ t[6][p[9]] ^ t[5][p[10]] ^ t[4][p[11]] ^
        t[3][p[12]] ^ t[2][p[13]] ^ t[1][p[14]] ^ t[0][p[15]];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace xmem::net
