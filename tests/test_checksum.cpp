// CRC-64/XZ: the published check value, and the sliced kernel against a
// plain bitwise reference at every length and alignment around its
// 16-byte slice, so the table kernel can never change a checkpoint
// trailer.
#include "core/checksum.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace frontier {
namespace {

// Bit-at-a-time reflected CRC-64/XZ, straight from the definition.
std::uint64_t reference_crc64(const unsigned char* p, std::size_t n) {
  std::uint64_t crc = ~0ULL;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0xc96c5795d7870f42ULL : 0);
    }
  }
  return ~crc;
}

TEST(Crc64, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(crc64(check.data(), check.size()), 0x995dc9bbdf1939faULL);
  EXPECT_EQ(crc64(nullptr, 0), 0x0ULL);
}

TEST(Crc64, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  std::vector<unsigned char> buf(300 + 16);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (unsigned char& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x >> 56);
  }
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(crc64(buf.data() + offset, len),
                reference_crc64(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

}  // namespace
}  // namespace frontier
