// CRC-64 (ECMA-182 polynomial, reflected — the xz/"CRC-64/XZ" variant)
// over a byte span. Used by the checkpoint trailer to reject torn or
// bit-flipped files before any field is parsed. Every checkpoint save and
// load checksums its whole body, so the kernel is sliced-by-16: sixteen
// table lookups per 16 input bytes, all independent, instead of a chain
// of one dependent lookup per byte (about 5x faster on a ~11 KB body).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace frontier {

namespace detail {

inline constexpr std::uint64_t kCrc64Poly = 0xc96c5795d7870f42ULL;
inline constexpr std::size_t kCrc64Slices = 16;

using Crc64Tables = std::array<std::array<std::uint64_t, 256>, kCrc64Slices>;

// tables[0] is the classic byte-at-a-time table; tables[k][b] is the CRC
// contribution of byte b followed by k zero bytes, so the 16 bytes of a
// slice are folded by one lookup each into independent tables.
inline constexpr Crc64Tables make_crc64_tables() {
  Crc64Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? kCrc64Poly : 0);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < kCrc64Slices; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint64_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

inline constexpr Crc64Tables kCrc64Tables = make_crc64_tables();

// Little-endian 64-bit load from unaligned bytes; GCC and Clang compile
// it to one load on little-endian targets.
[[nodiscard]] inline std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) {
    x |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return x;
}

}  // namespace detail

/// CRC-64/XZ of `size` bytes at `data` (init and final xor 0xFF..FF).
[[nodiscard]] inline std::uint64_t crc64(const void* data, std::size_t size) {
  const auto& t = detail::kCrc64Tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t crc = ~0ULL;
  for (; size >= detail::kCrc64Slices; size -= detail::kCrc64Slices) {
    const std::uint64_t lo = detail::load_le64(bytes) ^ crc;
    const std::uint64_t hi = detail::load_le64(bytes + 8);
    crc = t[15][lo & 0xff] ^ t[14][(lo >> 8) & 0xff] ^
          t[13][(lo >> 16) & 0xff] ^ t[12][(lo >> 24) & 0xff] ^
          t[11][(lo >> 32) & 0xff] ^ t[10][(lo >> 40) & 0xff] ^
          t[9][(lo >> 48) & 0xff] ^ t[8][lo >> 56] ^
          t[7][hi & 0xff] ^ t[6][(hi >> 8) & 0xff] ^
          t[5][(hi >> 16) & 0xff] ^ t[4][(hi >> 24) & 0xff] ^
          t[3][(hi >> 32) & 0xff] ^ t[2][(hi >> 40) & 0xff] ^
          t[1][(hi >> 48) & 0xff] ^ t[0][hi >> 56];
    bytes += detail::kCrc64Slices;
  }
  for (; size > 0; --size) {
    crc = t[0][(crc ^ *bytes++) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace frontier
