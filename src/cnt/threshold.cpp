#include "cnt/threshold.hpp"

#include <cassert>
#include <cmath>
#include <limits>

#include "energy/sram_cell.hpp"

namespace cnt {

ThresholdTable::ThresholdTable(const BitEnergies& e, usize window,
                               usize unit_bits, double delta_t,
                               double write_weight)
    : e_(e),
      w_(window),
      l_(unit_bits),
      delta_t_(delta_t),
      write_weight_(write_weight) {
  assert(window >= 1);
  assert(unit_bits >= 1);
  assert(delta_t >= 0.0);
  assert(write_weight > 0.0);

  const double drd = e_.read_delta().in_joules();
  const double dwr = e_.write_delta().in_joules();
  // Eq. (3). For value-symmetric cells (dwr == 0, e.g. CMOS) the breakeven
  // degenerates; report W/2 and let the per-entry decisions (which use the
  // exact profit sign) handle it.
  const double wdwr = write_weight_ * dwr;
  th_rd_ = (drd + wdwr) <= 0.0
               ? static_cast<double>(w_) / 2.0
               : static_cast<double>(w_) * wdwr / (drd + wdwr);

  // Precompute one entry per possible write count, exactly as the paper's
  // hardware table would be burned in. The Eq. (6) breakeven is clamped to
  // "never switch" in the degenerate windows where the profit function's
  // slope disagrees with the comparison direction (see threshold.hpp).
  table_.resize(w_ + 1);
  for (usize wr = 0; wr <= w_; ++wr) {
    const double g = e_save(wr).in_joules();  // per-bit window gain
    Entry& entry = table_[wr];
    entry.write_intensive = g < 0.0;
    const double denom = 2.0 * g - dwr;
    const double lbits = static_cast<double>(l_);
    const double ewr1 = e_.wr1.in_joules();
    if (g > 0.0) {
      // Read-intensive: switch iff N1 < breakeven, valid only while the
      // profit decreases with N1 (denom > 0); otherwise never profitable.
      entry.breakeven =
          denom > 0.0 ? lbits * (g - ewr1) / denom : -1.0;
    } else if (g < 0.0) {
      // Write-intensive: switch iff N1 > breakeven (denom < 0 always here).
      entry.breakeven = lbits * (g - ewr1) / denom;
    } else {
      // Balanced window: any switch costs E_encode for zero gain.
      entry.breakeven = -1.0;
    }
  }
}

double ThresholdTable::threshold(usize wr_num) const {
  assert(wr_num <= w_);
  return table_[wr_num].breakeven;
}

bool ThresholdTable::should_switch_hysteresis(usize wr_num,
                                              usize bit1num) const {
  // Direct profit test with relative margin.
  const Energy cur = window_energy(wr_num, bit1num);
  const Energy alt = window_energy_switched(wr_num, bit1num);
  const Energy profit = cur - alt - encode_cost(bit1num);
  return profit.in_joules() > delta_t_ * cur.in_joules();
}

Energy ThresholdTable::window_energy(usize wr_num, usize bit1num) const {
  assert(wr_num <= w_);
  assert(bit1num <= l_);
  const auto reads = static_cast<double>(w_ - wr_num);
  const double writes = static_cast<double>(wr_num) * write_weight_;
  return reads * read_energy_counts(e_, l_, bit1num) +
         writes * write_energy_counts(e_, l_, bit1num);
}

Energy ThresholdTable::window_energy_switched(usize wr_num,
                                              usize bit1num) const {
  return window_energy(wr_num, l_ - bit1num);
}

Energy ThresholdTable::encode_cost(usize bit1num) const {
  assert(bit1num <= l_);
  // Writing the inverted data back: the re-encoded unit holds L - N1 ones.
  return write_energy_counts(e_, l_, l_ - bit1num);
}

Energy ThresholdTable::e_save(usize wr_num) const {
  assert(wr_num <= w_);
  const auto reads = static_cast<double>(w_ - wr_num);
  const double writes = static_cast<double>(wr_num) * write_weight_;
  return reads * e_.read_delta() - writes * e_.write_delta();
}

}  // namespace cnt
