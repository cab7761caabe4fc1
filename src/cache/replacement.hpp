// Replacement policies for the set-associative cache substrate.
#pragma once

#include <memory>
#include <vector>

#include "cache/cache_config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace cnt {

/// Victim selection + recency bookkeeping. The cache resolves invalid ways
/// itself; `victim()` is only consulted when every way in the set is valid.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// A hit touched (set, way).
  virtual void on_access(u32 set, u32 way) = 0;
  /// (set, way) was just filled.
  virtual void on_fill(u32 set, u32 way) = 0;
  /// Choose the way to evict from `set` (all ways valid).
  [[nodiscard]] virtual u32 victim(u32 set) = 0;
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// True-LRU via per-line timestamps (exact, O(ways) victim scan). Defined
/// here, final, with in-class bodies: LRU is the default policy and its
/// touch/victim calls sit on the replay hot path, so the cache keeps a
/// concrete pointer (like its MainMemory fast path) and inlines them past
/// the virtual interface.
class LruPolicy final : public ReplacementPolicy {
 public:
  LruPolicy(usize sets, usize ways) : ways_(ways), stamp_(sets * ways, 0) {}

  void on_access(u32 set, u32 way) override {
    stamp_[idx(set, way)] = ++clock_;
  }
  void on_fill(u32 set, u32 way) override { stamp_[idx(set, way)] = ++clock_; }

  /// The way with the oldest stamp, lowest way on a tie. A min by masks,
  /// not by a compare-and-branch: which way is oldest is data, so a
  /// branch on it mispredicts about once per miss.
  u32 victim(u32 set) override {
    const u64* stamps = stamp_.data() + idx(set, 0);
    u32 best = 0;
    u64 best_stamp = stamps[0];
    for (u32 w = 1; w < ways_; ++w) {
      const u64 s = stamps[w];
      // All ones when way w is strictly older: only then does it win.
      const u64 older = u64{0} - static_cast<u64>(s < best_stamp);
      best_stamp ^= (best_stamp ^ s) & older;
      best ^= (best ^ w) & static_cast<u32>(older);
    }
    return best;
  }

  [[nodiscard]] const char* name() const noexcept override { return "LRU"; }

 private:
  [[nodiscard]] usize idx(u32 set, u32 way) const noexcept {
    return static_cast<usize>(set) * ways_ + way;
  }
  usize ways_;
  u64 clock_ = 0;
  std::vector<u64> stamp_;
};

/// Construct a policy instance for a (sets x ways) cache.
[[nodiscard]] std::unique_ptr<ReplacementPolicy> make_replacement(
    ReplKind kind, usize sets, usize ways, u64 seed = 0);

}  // namespace cnt
