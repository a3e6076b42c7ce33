#include "net/checksum.hpp"

#include <array>

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
