#include "cache/main_memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

namespace cnt {
namespace {

TEST(MainMemory, UnwrittenReadsZero) {
  MainMemory mem;
  std::array<u8, 64> line{};
  line.fill(0xAB);
  mem.read_line(0x1000, line);
  for (const u8 b : line) EXPECT_EQ(b, 0);
  EXPECT_EQ(mem.peek(0xDEAD0), 0);
}

TEST(MainMemory, LineRoundTrip) {
  MainMemory mem;
  std::array<u8, 64> out{};
  std::array<u8, 64> in{};
  for (usize i = 0; i < in.size(); ++i) in[i] = static_cast<u8>((i * 3) & 0xffU);
  mem.write_line(0x2000, in);
  mem.read_line(0x2000, out);
  EXPECT_EQ(in, out);
}

TEST(MainMemory, LinesAtPageEdges) {
  MainMemory mem;
  std::array<u8, 128> in{};
  for (usize i = 0; i < in.size(); ++i) in[i] = static_cast<u8>((i + 1) & 0xffU);
  // Last aligned 128 B line of page 0 and first line of page 1.
  mem.write_line(4096 - 128, in);
  mem.write_line(4096, in);
  std::array<u8, 128> out{};
  mem.read_line(4096 - 128, out);
  EXPECT_EQ(in, out);
  mem.read_line(4096, out);
  EXPECT_EQ(in, out);
  EXPECT_EQ(mem.resident_pages(), 2u);
}

TEST(MainMemory, WordWrites) {
  MainMemory mem;
  mem.write_word(0x100, 0x1122334455667788ULL, 8);
  EXPECT_EQ(mem.peek_word(0x100, 8), 0x1122334455667788ULL);
  EXPECT_EQ(mem.peek(0x100), 0x88);  // little-endian
  EXPECT_EQ(mem.peek(0x107), 0x11);
  mem.write_word(0x100, 0xAB, 1);
  EXPECT_EQ(mem.peek_word(0x100, 8), 0x11223344556677ABULL);
}

TEST(MainMemory, LoadSegments) {
  MainMemory mem;
  std::vector<MemorySegment> init;
  MemorySegment seg;
  seg.base = 0x3000;
  seg.bytes = {1, 2, 3, 4, 5};
  init.push_back(seg);
  MemorySegment seg2;
  seg2.base = 0x8FFE;  // crosses page boundary at 0x9000
  seg2.bytes = {9, 9, 9, 9};
  init.push_back(seg2);
  mem.load(init);
  EXPECT_EQ(mem.peek(0x3000), 1);
  EXPECT_EQ(mem.peek(0x3004), 5);
  EXPECT_EQ(mem.peek(0x8FFE), 9);
  EXPECT_EQ(mem.peek(0x9001), 9);
}

TEST(MainMemory, TrafficCounters) {
  MainMemory mem;
  std::array<u8, 64> buf{};
  mem.read_line(0, buf);
  mem.read_line(64, buf);
  mem.write_line(0, buf);
  mem.write_word(8, 1, 8);
  EXPECT_EQ(mem.line_reads(), 2u);
  EXPECT_EQ(mem.line_writes(), 1u);
  EXPECT_EQ(mem.word_writes(), 1u);
}

TEST(MainMemory, PokePeek) {
  MainMemory mem;
  mem.poke(0x42, 0x7F);
  EXPECT_EQ(mem.peek(0x42), 0x7F);
}

TEST(MainMemory, SparsePages) {
  MainMemory mem;
  mem.poke(0, 1);
  mem.poke(1ULL << 30, 2);
  EXPECT_EQ(mem.resident_pages(), 2u);
}

TEST(MainMemory, LinesSpanningTwoPagesKeepTheirBytes) {
  constexpr usize kWide = 2 * MainMemory::kPageBytes;
  std::vector<u8> line(kWide);
  for (usize i = 0; i < kWide; ++i) {
    line[i] = static_cast<u8>((i * 7 + 1) & 0xFFu);
  }

  // A line twice a page wide, aligned to its size, spans pages 2 and 3.
  MainMemory mem;
  const u64 at = 2 * MainMemory::kPageBytes;
  std::vector<u8> got(kWide, 0xEE);
  mem.read_line(at, got);
  EXPECT_EQ(got, std::vector<u8>(kWide, 0)) << "never-written line";
  EXPECT_EQ(mem.resident_pages(), 0u);

  mem.write_line(at, line);
  EXPECT_EQ(mem.resident_pages(), 2u);
  EXPECT_EQ(mem.peek(at), line.front());
  EXPECT_EQ(mem.peek(at + kWide - 1), line.back());
  mem.read_line(at, got);
  EXPECT_EQ(got, line);

  // One page present, the next never written: bytes, then zeros.
  MainMemory half;
  half.poke(at, 0x11);
  half.read_line(at, got);
  EXPECT_EQ(got[0], 0x11);
  EXPECT_EQ(std::count(got.begin() + 1, got.end(), u8{0}),
            static_cast<std::ptrdiff_t>(kWide - 1));

  // A page-sized line and a cache-sized one take the single-page path and
  // see the same bytes.
  std::vector<u8> page(MainMemory::kPageBytes);
  mem.read_line(at + MainMemory::kPageBytes, page);
  EXPECT_TRUE(std::equal(page.begin(), page.end(),
                         line.begin() + MainMemory::kPageBytes));
  std::vector<u8> small(64);
  mem.read_line(at + 64, small);
  EXPECT_TRUE(std::equal(small.begin(), small.end(), line.begin() + 64));
  mem.write_line(at + 64, std::vector<u8>(64, 0xAB));
  EXPECT_EQ(mem.peek(at + 64), 0xAB);
  EXPECT_EQ(mem.peek(at + 127), 0xAB);
  EXPECT_EQ(mem.peek(at + 128), line[128]);
}

}  // namespace
}  // namespace cnt
