// Access events: the observation interface between the functional cache
// and the energy-accounting policies.
//
// The functional behaviour of a cache is identical under every encoding
// policy (encoding only changes what the bits *physically* look like), so
// the simulator runs the functional cache once and broadcasts each access
// to all registered sinks. Every energy policy -- baseline CNFET, CMOS,
// static-invert, adaptive CNT-Cache, oracle -- observes the *same* run,
// which makes comparisons exact rather than statistically matched. The
// same property lets fused replay (sim/runner.hpp simulate_group) attach
// the sinks of many policy configs -- a whole W x K sweep -- to one
// functional pass: since no sink can change what the cache does, each
// sees exactly the events its own solo run would have produced.
//
// Spans in an event point into storage its emitter reuses: the cache's
// arrays and scratch lines, or a batch buffer of a pipelined fan-out
// (sim/sink_fanout.hpp), which a later batch overwrites. They are valid
// only until on_access (or the on_batch call that delivered the event)
// returns and must not be retained; a sink copies what it needs to keep.
// That holds for the per-word '1' counts as much as for the line images:
// both live in the same emitter storage.
#pragma once

#include <span>

#include "common/access.hpp"
#include "common/bits.hpp"
#include "common/types.hpp"

namespace cnt {

enum class AccessKind : u8 {
  kReadHit,
  kWriteHit,
  kReadMissFill,   ///< read miss, line filled (possibly evicting)
  kWriteMissFill,  ///< write miss with write-allocate
  kWriteAround,    ///< write miss with no-write-allocate (bypasses array)
};

/// Per-array-read fault tally produced by a LineFaultHook (src/cache/
/// fault_hook.hpp) and carried on the event so energy policies can charge
/// protection work. `flips` counts raw upsets seen by the read;
/// `corrected` / `detected` / `silent` partition them by protection
/// outcome (silent bits remain in the returned data -- real SDC).
struct LineFaultReport {
  u32 flips = 0;
  u32 corrected = 0;
  u32 detected = 0;  ///< detection events (recovered by refetch)
  u32 silent = 0;

  void add(const LineFaultReport& o) noexcept {
    flips += o.flips;
    corrected += o.corrected;
    detected += o.detected;
    silent += o.silent;
  }
};

[[nodiscard]] constexpr const char* to_string(AccessKind k) noexcept {
  switch (k) {
    case AccessKind::kReadHit: return "read_hit";
    case AccessKind::kWriteHit: return "write_hit";
    case AccessKind::kReadMissFill: return "read_miss";
    case AccessKind::kWriteMissFill: return "write_miss";
    case AccessKind::kWriteAround: return "write_around";
  }
  return "?";
}

// Fields are ordered so that padding stays at 3 bytes: a pipelined
// fan-out keeps two batches of whole events, so every byte here is paid
// per buffered event.
struct AccessEvent {
  AccessKind kind = AccessKind::kReadHit;
  MemOp op = MemOp::kRead;
  u8 size = 0;      ///< word size in bytes
  u32 set = 0;
  u32 way = 0;      ///< valid except for kWriteAround
  u32 offset = 0;   ///< byte offset of the word within the line
  u64 addr = 0;

  /// Stored tag value of the accessed line (post-access).
  u64 tag = 0;

  /// Logical line contents before the access. For fills this is the
  /// previous physical occupant of the way (the evicted line's data, or
  /// zeros when the way was invalid). Empty for kWriteAround.
  std::span<const u8> line_before;
  /// Logical line contents after the access. Empty for kWriteAround.
  std::span<const u8> line_after;

  /// Raw '1' count of every 64-bit word of line_after, word w at index w
  /// (line_after.size() / 8 entries; count_word_ones). Every sink of a
  /// fused group reads the same line, so the emitter counts it once and
  /// the energy policies sum these instead of popcounting the image
  /// again: an emitter must ship them with every non-empty line_after
  /// (Cache does), and they are empty only for kWriteAround.
  std::span<const u8> after_word_ones;
  /// The same counts for line_before, shipped only for a dirty victim
  /// (evicted_dirty): the writeback is the one read of the before image
  /// that prices whole words. Empty otherwise.
  std::span<const u8> before_word_ones;

  /// Tag-array lookup cost inputs: total tag+state bits read across the
  /// set's ways this access, and how many of them were '1'.
  usize tag_bits_read = 0;
  usize tag_ones_read = 0;
  /// Tag bits written on a fill (0 otherwise) and their '1' count.
  usize tag_bits_written = 0;
  usize tag_ones_written = 0;

  /// Eviction side effects (fills only).
  bool evicted_valid = false;
  bool evicted_dirty = false;
  /// Idle array slots following this access (see IdleModel); the
  /// CNT-Cache deferred-update FIFOs drain during these.
  u32 idle_slots = 0;
  u64 evicted_tag = 0;
  /// With CacheConfig::sector_writeback: bit i set means the victim's i-th
  /// 8-byte word was dirty (must be read out for the writeback). Without
  /// sectoring, all words of a dirty victim count as dirty.
  u64 evicted_dirty_words = 0;

  /// Fault-campaign outcome of the array reads behind this access (the
  /// demand read and, on fills, the victim writeback read). All-zero when
  /// no fault hook is installed, so policies can charge correction energy
  /// unconditionally from these counters.
  LineFaultReport fault;

  [[nodiscard]] bool is_fill() const noexcept {
    return kind == AccessKind::kReadMissFill ||
           kind == AccessKind::kWriteMissFill;
  }
  [[nodiscard]] bool is_hit() const noexcept {
    return kind == AccessKind::kReadHit || kind == AccessKind::kWriteHit;
  }

  /// Raw '1' count of bits [lo, hi) of line_after: summed from
  /// after_word_ones when the range covers whole 64-bit words, else
  /// popcounted from the image.
  [[nodiscard]] usize after_ones(usize lo, usize hi) const noexcept {
    return popcount_range(line_after, after_word_ones, lo, hi);
  }
  /// The same for line_before. Only for a dirty victim: no other event
  /// ships before_word_ones.
  [[nodiscard]] usize before_ones(usize lo, usize hi) const noexcept {
    return popcount_range(line_before, before_word_ones, lo, hi);
  }
};

/// Observer interface. Sinks must not mutate the cache, and must not
/// depend on which other sinks share it. A pipelined fan-out calls each
/// sink from one thread at a time, with every event in order, but batch
/// by batch from whichever thread claimed it -- often not the thread that
/// drives the cache, and not the same thread from one batch to the next
/// -- so sinks must not share mutable state with each other.
class AccessSink {
 public:
  virtual ~AccessSink() = default;
  virtual void on_access(const AccessEvent& ev) = 0;

  /// Observe `events` in order, as if on_access were called on each: the
  /// pipelined fan-out hands a sink a whole batch in one call. The default
  /// does exactly that; a sink overrides it to run the batch in one tight
  /// loop over an inlined per-event body, and must then see the same
  /// events in the same order with the same effect as per-event calls.
  virtual void on_batch(std::span<const AccessEvent> events) {
    for (const AccessEvent& ev : events) on_access(ev);
  }
};

}  // namespace cnt
