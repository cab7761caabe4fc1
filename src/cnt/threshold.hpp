// Threshold machinery of the encoding-direction predictor
// (paper Section III.C, Eqs. (1)-(6)).
//
// Definitions, for a window of W accesses to one line of L stored bits with
// N1 '1' bits, of which Wr_num were writes (R = W - Wr_num reads):
//
//   E(N1)      = R*(N1*E_rd1 + (L-N1)*E_rd0)
//              + Wr*(N1*E_wr1 + (L-N1)*E_wr0)              -- Eq. (4)
//   E_bar      = E(L - N1)                                  -- Eq. (5)
//   E_encode   = N1*E_wr0 + (L-N1)*E_wr1                    -- re-encode write
//   E_save     = R*(E_rd0 - E_rd1) - Wr*(E_wr1 - E_wr0)     -- per-bit gain
//
// Switching the encoding is beneficial when E > E_bar + E_encode; solving
// the breakeven for N1 yields Eq. (6):
//
//   N1* = L * (E_save - E_wr1) / (2*E_save - (E_wr1 - E_wr0))
//
// For a read-intensive window (E_save > 0) the switch pays off when
// N1 < N1*; for a write-intensive window when N1 > N1*. The paper
// precomputes N1* for every possible Wr_num into a W+1-entry table so the
// runtime predictor is a popcount + one table lookup + one comparison.
//
// Eq. (3) gives the read-intensity classification threshold:
//   Th_rd = W / (1 + (E_rd0 - E_rd1)/(E_wr1 - E_wr0))  ~= W/2 for CNFET.
#pragma once

#include <cassert>
#include <vector>

#include "common/types.hpp"
#include "energy/tech_params.hpp"

namespace cnt {

class ThresholdTable {
 public:
  /// Build the table for window W over a stored unit of `unit_bits` bits
  /// (the full line for whole-line encoding, one partition for partitioned
  /// encoding). `delta_t` is the optional switch-hysteresis margin from the
  /// authors' extended description: a switch is taken only when it saves
  /// more than delta_t * E_current over the window. `write_weight` scales
  /// the per-stored-bit weight of each counted write: 1.0 reproduces the
  /// paper's Eqs. (1)-(6) exactly (every access touches all L bits); under
  /// word-granular write accounting a store only drives word_bits/L of the
  /// unit, so the policy passes that ratio here to keep the predictor's
  /// energy model consistent with the accounting.
  ThresholdTable(const BitEnergies& e, usize window, usize unit_bits,
                 double delta_t = 0.0, double write_weight = 1.0);

  [[nodiscard]] usize window() const noexcept { return w_; }
  [[nodiscard]] usize unit_bits() const noexcept { return l_; }
  [[nodiscard]] double delta_t() const noexcept { return delta_t_; }

  /// Eq. (3): the read-count threshold at which both encodings break even.
  [[nodiscard]] double th_rd() const noexcept { return th_rd_; }

  /// Step 1 of Algorithm 1: classify the window. We classify by the sign of
  /// E_save (write-intensive iff E_save < 0), which is the energy-consistent
  /// reading of the algorithm's "Wr_num > Th_rd" comparison: the two
  /// coincide when E_rd0-E_rd1 ~= E_wr1-E_wr0 (the paper's CNFET case,
  /// where Th_rd ~= W/2) and the sign test stays correct for arbitrary
  /// asymmetry.
  [[nodiscard]] bool is_write_intensive(usize wr_num) const noexcept {
    assert(wr_num <= w_);
    return table_[wr_num].write_intensive;
  }

  /// Eq. (6) breakeven N1 for the given write count (unclamped; may fall
  /// outside [0, L] or be NaN in degenerate windows -- use should_switch()
  /// for decisions).
  [[nodiscard]] double threshold(usize wr_num) const;

  /// Step 2 of Algorithm 1: table-driven switch decision for a stored unit
  /// currently holding `bit1num` ones after a window with `wr_num` writes.
  /// Exactly equivalent to the direct energy comparison
  /// E > E_bar + E_encode (+ hysteresis margin); tests assert this.
  /// Inline: a window boundary asks it once per partition. The table
  /// path covers delta_t == 0; hysteresis takes the direct comparison.
  [[nodiscard]] bool should_switch(usize wr_num, usize bit1num) const {
    assert(wr_num <= w_);
    assert(bit1num <= l_);
    if (delta_t_ != 0.0) return should_switch_hysteresis(wr_num, bit1num);
    const Entry& entry = table_[wr_num];
    const double n1 = static_cast<double>(bit1num);
    return entry.write_intensive ? n1 > entry.breakeven
                                 : n1 < entry.breakeven;
  }

  /// Direct evaluation of Eq. (4) for the window (reference path).
  [[nodiscard]] Energy window_energy(usize wr_num, usize bit1num) const;
  /// Eq. (5): the alternative encoding's window energy.
  [[nodiscard]] Energy window_energy_switched(usize wr_num,
                                              usize bit1num) const;
  /// Re-encode write cost for a unit currently holding `bit1num` ones.
  [[nodiscard]] Energy encode_cost(usize bit1num) const;

  /// E_save for the given write count (per stored bit).
  [[nodiscard]] Energy e_save(usize wr_num) const;

 private:
  /// should_switch() with a hysteresis margin: the direct profit test.
  [[nodiscard]] bool should_switch_hysteresis(usize wr_num,
                                              usize bit1num) const;

  BitEnergies e_;
  usize w_;
  usize l_;
  double delta_t_;
  double write_weight_;
  double th_rd_;
  /// Precomputed switch-decision table: entry [wr_num][0] = whether the
  /// window is write-intensive; switch happens when bit1num is strictly
  /// beyond `bound_[wr_num]` in the pattern's direction. We additionally
  /// precompute, per wr_num, the exact integer comparison the hardware
  /// would burn into the table.
  struct Entry {
    bool write_intensive;
    double breakeven;  ///< Eq. (6) value (may be out of range)
  };
  std::vector<Entry> table_;
};

}  // namespace cnt
