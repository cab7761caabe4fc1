#include "common/bits.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.hpp"

namespace cnt {
namespace {

TEST(Bits, PopcountEmpty) {
  EXPECT_EQ(popcount(std::span<const u8>{}), 0u);
}

TEST(Bits, PopcountKnownPatterns) {
  const std::array<u8, 4> all_ones{0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_EQ(popcount(all_ones), 32u);
  const std::array<u8, 4> zeros{0, 0, 0, 0};
  EXPECT_EQ(popcount(zeros), 0u);
  const std::array<u8, 3> mixed{0x01, 0x03, 0x07};
  EXPECT_EQ(popcount(mixed), 6u);
}

TEST(Bits, PopcountCrossesWordBoundary) {
  // 13 bytes forces both the 8-byte fast path and the tail loop.
  std::array<u8, 13> buf{};
  buf.fill(0xAA);  // 4 ones per byte
  EXPECT_EQ(popcount(buf), 13u * 4);
}

TEST(Bits, PopcountRangeMatchesNaive) {
  Rng rng(42);
  std::array<u8, 16> buf{};
  for (auto& b : buf) b = rng.next_byte();
  for (usize lo = 0; lo <= 128; lo += 7) {
    for (usize hi = lo; hi <= 128; hi += 11) {
      usize naive = 0;
      for (usize i = lo; i < hi; ++i) naive += get_bit(buf, i) ? 1u : 0u;
      EXPECT_EQ(popcount_range(buf, lo, hi), naive)
          << "range [" << lo << ", " << hi << ")";
    }
  }
}

TEST(Bits, InvertIsInvolutive) {
  Rng rng(7);
  std::array<u8, 32> buf{};
  for (auto& b : buf) b = rng.next_byte();
  const auto orig = buf;
  invert(buf);
  for (usize i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i], static_cast<u8>(~orig[i] & 0xff));
  }
  invert(buf);
  EXPECT_EQ(buf, orig);
}

TEST(Bits, InvertRangeOnlyTouchesRange) {
  std::array<u8, 8> buf{};
  invert_range(buf, 10, 22);
  for (usize i = 0; i < 64; ++i) {
    EXPECT_EQ(get_bit(buf, i), i >= 10 && i < 22) << "bit " << i;
  }
}

TEST(Bits, InvertRangeEmptyIsNoop) {
  std::array<u8, 4> buf{0x12, 0x34, 0x56, 0x78};
  const auto orig = buf;
  invert_range(buf, 9, 9);
  EXPECT_EQ(buf, orig);
}

TEST(Bits, InvertRangeWithinOneByte) {
  std::array<u8, 2> buf{};
  invert_range(buf, 2, 5);
  EXPECT_EQ(buf[0], 0b0001'1100);
  EXPECT_EQ(buf[1], 0);
}

TEST(Bits, InvertedReturnsComplement) {
  const std::array<u8, 3> buf{0x00, 0xFF, 0x0F};
  const auto inv = inverted(buf);
  EXPECT_EQ(inv, (std::vector<u8>{0xFF, 0x00, 0xF0}));
}

TEST(Bits, HammingDistance) {
  const std::array<u8, 3> a{0x00, 0xFF, 0x0F};
  const std::array<u8, 3> b{0x00, 0x00, 0xFF};
  EXPECT_EQ(hamming_distance(a, a), 0u);
  EXPECT_EQ(hamming_distance(a, b), 8u + 4u);
}

TEST(Bits, Bit1Density) {
  const std::array<u8, 2> half{0xF0, 0x0F};
  EXPECT_DOUBLE_EQ(bit1_density(half), 0.5);
  EXPECT_DOUBLE_EQ(bit1_density(std::span<const u8>{}), 0.0);
}

TEST(Bits, GetSetBitRoundTrip) {
  std::array<u8, 4> buf{};
  set_bit(buf, 0, true);
  set_bit(buf, 13, true);
  set_bit(buf, 31, true);
  EXPECT_TRUE(get_bit(buf, 0));
  EXPECT_TRUE(get_bit(buf, 13));
  EXPECT_TRUE(get_bit(buf, 31));
  EXPECT_EQ(popcount(buf), 3u);
  set_bit(buf, 13, false);
  EXPECT_FALSE(get_bit(buf, 13));
  EXPECT_EQ(popcount(buf), 2u);
}

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ULL << 40));
  EXPECT_FALSE(is_pow2((1ULL << 40) + 1));
}

TEST(Bits, Log2Exact) {
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(64), 6u);
  EXPECT_EQ(log2_exact(1ULL << 33), 33u);
}

TEST(Bits, BitsToHold) {
  EXPECT_EQ(bits_to_hold(0), 1u);
  EXPECT_EQ(bits_to_hold(1), 1u);
  EXPECT_EQ(bits_to_hold(2), 2u);
  EXPECT_EQ(bits_to_hold(14), 4u);  // W=15 counter counts 0..14
  EXPECT_EQ(bits_to_hold(15), 4u);
  EXPECT_EQ(bits_to_hold(16), 5u);
}

TEST(Bits, CopyLineAndZeroLineEqualMemcpyAndMemsetAtEveryWidth) {
  Rng rng(7);
  std::vector<u8> src(300);
  for (u8& b : src) b = static_cast<u8>(rng.uniform(256) & 0xFFu);
  // Every width up to 288 B: the fixed cases (4, 8, 16, 32, 64, 128) and
  // every width between and beyond them.
  for (usize n = 0; n <= 288; ++n) {
    for (const usize off : {usize{0}, usize{3}}) {
      std::vector<u8> want(300, 0xEE);
      std::vector<u8> got(300, 0xEE);
      std::memcpy(want.data() + off, src.data() + 5, n);
      copy_line(got.data() + off, src.data() + 5, n);
      ASSERT_EQ(got, want) << "copy_line, " << n << " B at offset " << off;
      std::memset(want.data() + off, 0, n);
      zero_line(got.data() + off, n);
      ASSERT_EQ(got, want) << "zero_line, " << n << " B at offset " << off;
    }
  }
}

// Property sweep: popcount_range over the whole buffer equals popcount.
class BitsRangeProperty : public ::testing::TestWithParam<usize> {};

TEST_P(BitsRangeProperty, FullRangeEqualsPopcount) {
  Rng rng(GetParam());
  std::vector<u8> buf(GetParam() % 67 + 1);
  for (auto& b : buf) b = rng.next_byte();
  EXPECT_EQ(popcount_range(buf, 0, buf.size() * 8), popcount(buf));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsRangeProperty,
                         ::testing::Range<usize>(0, 24));

}  // namespace
}  // namespace cnt
