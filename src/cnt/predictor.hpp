// Encoding-direction predictor (paper Algorithm 1).
//
// Per-line history: an access counter A_num and a write counter Wr_num,
// stored in the widened cache line ("H" of the H&D field). Every W-th
// access to a line closes a window: step 1 classifies the line read- vs
// write-intensive from Wr_num; step 2 popcounts the *stored* data per
// partition and consults the precomputed threshold table (Eq. 6) to decide
// whether each partition's direction bit should flip. Counters then reset.
//
// The predictor is deliberately a pure decision engine: it mutates only the
// LineState history/direction fields handed to it and never touches the
// cache or the energy ledger (the policy adapter owns those).
#pragma once

#include <span>

#include "cnt/encoding.hpp"
#include "cnt/threshold.hpp"
#include "common/types.hpp"

namespace cnt {

/// The H (history) field: the window's access counters. Stored per line
/// in the paper's design; the per-set sharing extension keeps one copy per
/// set instead (see CntConfig::history_scope).
struct HistoryCounters {
  u16 a_num = 0;   ///< accesses in the current window
  u16 wr_num = 0;  ///< writes in the current window
};

/// Per-line CNT-Cache state: the H&D field plus simulation bookkeeping.
struct LineState {
  HistoryCounters hist;
  u64 directions = 0;   ///< partition direction bits (D field)
  u32 generation = 0;   ///< bumped on fill; guards stale FIFO entries
  bool pending = false; ///< a re-encode request is queued for this line
  bool zero_flag = false;  ///< zero-line elision flag (extension; see
                           ///< CntConfig::zero_line_opt)
  bool write_filled = false;  ///< the line was brought in by a write miss
                              ///< (drives re-materialization encoding)
};

struct PredictorDecision {
  bool window_completed = false;
  bool write_intensive = false;
  bool switch_requested = false;  ///< at least one partition should flip
  u64 new_directions = 0;         ///< valid when window_completed
  u32 partitions_flipped = 0;
};

class Predictor {
 public:
  Predictor(const BitEnergies& cell, PartitionScheme scheme, usize window,
            double delta_t = 0.0, double write_weight = 1.0);

  /// Record one access to a line holding logical data `logical` (the
  /// post-access contents) stored under `directions`. On a window
  /// boundary, evaluates every partition's stored image and returns the
  /// decision; the caller applies direction changes via its deferred-update
  /// queue. Counters are reset at the boundary per Algorithm 1.
  [[nodiscard]] PredictorDecision on_access(
      HistoryCounters& hist, u64 directions, bool is_write,
      std::span<const u8> logical) const {
    return on_access_counted(
        hist, directions, is_write, [this, logical](usize p) {
          return detail::partition_raw_ones(scheme_, logical.data(), p);
        });
  }

  /// Convenience overload for per-line history (the paper's design).
  [[nodiscard]] PredictorDecision on_access(LineState& state,
                                            bool is_write,
                              std::span<const u8> logical) const {
    return on_access(state.hist, state.directions, is_write, logical);
  }

  /// on_access() with the post-access contents given as `raw_ones(p)`,
  /// the raw '1' count of partition p, asked only on a window boundary --
  /// so a caller holding the line's word counts never touches its bytes.
  template <typename RawOnes>
  // cnt-hot
  [[nodiscard]] PredictorDecision on_access_counted(HistoryCounters& hist,
                                                    u64 directions,
                                                    bool is_write,
                                                    RawOnes&& raw_ones) const {
    PredictorDecision d;
    ++hist.a_num;
    if (is_write) ++hist.wr_num;
    if (hist.a_num < window_) return d;

    // Window boundary.
    d.window_completed = true;
    const usize wr_num = hist.wr_num;
    d.write_intensive = table_.is_write_intensive(wr_num);
    d.new_directions = directions;

    const usize pb = scheme_.partition_bits();
    for (usize p = 0; p < scheme_.partitions(); ++p) {
      const usize raw = raw_ones(p);
      const usize ones = ((directions >> p) & 1u) ? pb - raw : raw;
      if (table_.should_switch(wr_num, ones)) {
        d.new_directions ^= (1ULL << p);
        ++d.partitions_flipped;
      }
    }
    d.switch_requested = d.partitions_flipped > 0;

    hist.a_num = 0;
    hist.wr_num = 0;
    return d;
  }

  [[nodiscard]] const ThresholdTable& table() const noexcept { return table_; }
  [[nodiscard]] const PartitionScheme& scheme() const noexcept {
    return scheme_;
  }
  [[nodiscard]] usize window() const noexcept { return window_; }

  /// Width of the H (history) field in bits: two counters of
  /// ceil(log2(W)) bits each, as the paper specifies.
  [[nodiscard]] usize history_bits() const noexcept { return history_bits_; }

 private:
  PartitionScheme scheme_;
  ThresholdTable table_;
  usize window_;
  usize history_bits_;
};

}  // namespace cnt
