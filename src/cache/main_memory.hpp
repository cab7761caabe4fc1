// Backing-store model: sparse paged main memory plus the line-granular
// interface caches use to talk to the level below them.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstring>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "common/flat_hash.hpp"
#include "common/memory_segment.hpp"
#include "common/types.hpp"

namespace cnt {

/// The downstream interface of a cache: line fills/writebacks plus word
/// writes (for write-through / write-around traffic).
class MemoryLevel {
 public:
  virtual ~MemoryLevel() = default;

  /// Fetch `out.size()` bytes starting at line-aligned `line_addr`.
  virtual void read_line(u64 line_addr, std::span<u8> out) = 0;
  /// Store a full line at line-aligned `line_addr` (writeback).
  virtual void write_line(u64 line_addr, std::span<const u8> data) = 0;
  /// Store a single word (write-through / no-allocate write miss path).
  virtual void write_word(u64 addr, u64 value, u8 size) = 0;
};

/// Sparse paged memory image. Unwritten bytes read as zero. Tracks traffic
/// counters so experiments can report line fills / writebacks reaching DRAM.
///
/// Pages live in one growable store indexed through a flat hash table
/// (page number -> store slot), with a one-entry cache of the last page
/// touched: fills and writebacks stream over lines, so consecutive
/// accesses nearly always land on the same 4 KiB page and skip the probe
/// entirely. Inner page buffers never move once allocated, so the cached
/// pointer stays valid as the store grows.
class MainMemory final : public MemoryLevel {
 public:
  static constexpr usize kPageBytes = 4096;

  MainMemory() = default;

  /// Load a set of initial data segments (a workload's init image).
  void load(std::span<const MemorySegment> segments);
  void load_segment(const MemorySegment& seg);

  // The line/word interface is defined in-class: MainMemory is final, so
  // a caller holding a MainMemory* (the Cache keeps one when its next
  // level is the backing store) devirtualizes these and inlines the page
  // probe + copy straight into its miss path.
  void read_line(u64 line_addr, std::span<u8> out) override {
    assert(line_addr % out.size() == 0);
    ++line_reads_;
    // A line no wider than a page never spans two (lines are aligned to
    // their size): one probe and one fixed-width copy. The chunk loop
    // below serves wider lines.
    const usize line_off = line_addr % kPageBytes;
    if (line_off + out.size() <= kPageBytes) {
      if (const u8* pg = page_if_present(line_addr)) {
        copy_line(out.data(), pg + line_off, out.size());
      } else {
        zero_line(out.data(), out.size());
      }
      return;
    }
    u64 addr = line_addr;
    usize off = 0;
    while (off < out.size()) {
      const usize page_off = addr % kPageBytes;
      const usize chunk = std::min(kPageBytes - page_off, out.size() - off);
      if (const u8* pg = page_if_present(addr)) {
        std::memcpy(out.data() + off, pg + page_off, chunk);
      } else {
        std::memset(out.data() + off, 0, chunk);
      }
      addr += chunk;
      off += chunk;
    }
  }
  void write_line(u64 line_addr, std::span<const u8> data) override {
    assert(line_addr % data.size() == 0);
    ++line_writes_;
    const usize line_off = line_addr % kPageBytes;
    if (line_off + data.size() <= kPageBytes) {
      copy_line(page(line_addr) + line_off, data.data(), data.size());
      return;
    }
    u64 addr = line_addr;
    usize off = 0;
    while (off < data.size()) {
      u8* pg = page(addr);
      const usize page_off = addr % kPageBytes;
      const usize chunk = std::min(kPageBytes - page_off, data.size() - off);
      std::memcpy(pg + page_off, data.data() + off, chunk);
      addr += chunk;
      off += chunk;
    }
  }
  void write_word(u64 addr, u64 value, u8 size) override {
    assert(size <= 8 && addr % size == 0);
    ++word_writes_;
    u8* pg = page(addr);
    const usize page_off = addr % kPageBytes;
    // Natural alignment guarantees the word does not straddle a page.
    for (usize b = 0; b < size; ++b) {
      pg[page_off + b] = static_cast<u8>(value >> (8 * b));
    }
  }

  /// Direct byte access (test/introspection helpers; no traffic counted).
  [[nodiscard]] u8 peek(u64 addr) const;
  void poke(u64 addr, u8 value);
  [[nodiscard]] u64 peek_word(u64 addr, u8 size) const;

  /// Hint that the line at `addr` is about to be filled: pull its backing
  /// page bytes toward the CPU caches without touching any state or
  /// counters. The replay loop issues this a few accesses ahead (see
  /// docs/performance.md) so a miss's fill copy does not stall on DRAM.
  void prefetch_line(u64 addr, usize line_bytes) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    const u32* slot = page_index_.find(addr / kPageBytes);
    if (slot != nullptr) {
      const u8* p = page_store_[*slot].data() + (addr % kPageBytes);
      for (usize i = 0; i < line_bytes; i += 64) __builtin_prefetch(p + i, 0, 1);
    }
#else
    (void)addr;
    (void)line_bytes;
#endif
  }

  [[nodiscard]] u64 line_reads() const noexcept { return line_reads_; }
  [[nodiscard]] u64 line_writes() const noexcept { return line_writes_; }
  [[nodiscard]] u64 word_writes() const noexcept { return word_writes_; }
  [[nodiscard]] usize resident_pages() const noexcept {
    return page_store_.size();
  }

 private:
  void copy_in(u64 addr, const u8* src, usize n);
  /// Page buffer for `addr`, allocated (zeroed) on first touch.
  [[nodiscard]] u8* page(u64 addr) {
    const u64 pn = addr / kPageBytes;
    if (pn == cached_page_no_) return cached_page_;
    return page_slow(addr);
  }
  [[nodiscard]] u8* page_slow(u64 addr);
  /// Page buffer for `addr`, or nullptr when never written (hot variant;
  /// maintains the last-page cache).
  [[nodiscard]] u8* page_if_present(u64 addr) {
    const u64 pn = addr / kPageBytes;
    if (pn == cached_page_no_) return cached_page_;
    const u32* slot = page_index_.find(pn);
    if (slot == nullptr) return nullptr;
    cached_page_no_ = pn;
    cached_page_ = page_store_[*slot].data();
    return cached_page_;
  }
  /// Cold const variant for peek(); does not touch the cache.
  [[nodiscard]] const u8* page_if_present(u64 addr) const;

  U64Map<u32> page_index_;                  ///< page number -> store slot
  std::vector<std::vector<u8>> page_store_;
  // Last page touched (page number + buffer). ~0 never collides: page
  // numbers are addr / 4096 and addresses are at most 64-bit.
  u64 cached_page_no_ = ~u64{0};
  u8* cached_page_ = nullptr;

  u64 line_reads_ = 0;
  u64 line_writes_ = 0;
  u64 word_writes_ = 0;
};

}  // namespace cnt
