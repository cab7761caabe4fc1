#include "cnt/baseline_policies.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "energy/sram_cell.hpp"

namespace cnt {

// Each policy's per-event body (access) is inlined into both its on_access
// (direct dispatch) and the loop of its on_batch (the pipelined fan-out).
// Whole-word popcounts of the line images -- whole-line reads and fills,
// dirty-victim words, word-aligned stores -- come from the event's shipped
// word counts (AccessEvent::after_ones / before_ones).

// cnt-hot
CNT_ALWAYS_INLINE void PlainPolicy::access(const AccessEvent& ev) {
  charge_decode();
  charge_tag_lookup(ev);
  charge_ecc(ev);

  const usize line_bits = array_.geometry().line_bits();
  switch (ev.kind) {
    case AccessKind::kReadHit:
      ledger_.charge(EnergyCategory::kDataRead,
                     line_energy_.read(ev.after_ones(0, line_bits)));
      charge_output(transfer_bits(ev));
      break;

    case AccessKind::kWriteHit: {
      const auto [lo, hi] = written_bit_range(ev);
      ledger_.charge(EnergyCategory::kDataWrite,
                     write_energy_counts(tech_.cell, hi - lo,
                                         ev.after_ones(lo, hi)));
      charge_output(transfer_bits(ev));
      break;
    }

    case AccessKind::kReadMissFill:
    case AccessKind::kWriteMissFill: {
      if (ev.evicted_valid && ev.evicted_dirty) {
        // Writeback: a second array operation reads the victim's dirty
        // words out (all words unless sectored writebacks are on).
        charge_decode();
        Energy rd{};
        usize dirty_bits = 0;
        for_each_dirty_word(ev, [&](usize lo, usize hi) {
          rd += word_energy_.read(ev.before_ones(lo, hi));
          dirty_bits += hi - lo;
        });
        ledger_.charge(EnergyCategory::kDataRead, rd);
        charge_output(dirty_bits);
      }
      // Fill write (a second/third array operation).
      charge_decode();
      ledger_.charge(EnergyCategory::kDataWrite,
                     line_energy_.write(ev.after_ones(0, line_bits)));
      charge_tag_write(ev);
      charge_output(line_bits);
      break;
    }

    case AccessKind::kWriteAround:
      // The word bypasses this array; only the (missing) lookup was paid.
      break;
  }
}

// cnt-hot
void PlainPolicy::on_access(const AccessEvent& ev) { access(ev); }

// cnt-hot
void PlainPolicy::on_batch(std::span<const AccessEvent> events) {
  for (const AccessEvent& ev : events) access(ev);
}

// cnt-hot
CNT_ALWAYS_INLINE void StaticInvertPolicy::access(const AccessEvent& ev) {
  charge_decode();
  charge_tag_lookup(ev);
  charge_ecc(ev);

  const usize line_bits = array_.geometry().line_bits();
  const auto& cell = tech_.cell;
  // Stored image is the complement: stored ones = L - logical ones.
  const auto inv_ones = [&] { return line_bits - ev.after_ones(0, line_bits); };

  switch (ev.kind) {
    case AccessKind::kReadHit:
      ledger_.charge(EnergyCategory::kDataRead,
                     read_energy_counts(cell, line_bits, inv_ones()));
      ledger_.charge(EnergyCategory::kEncoderLogic, encoder_pass_);
      charge_output(transfer_bits(ev));
      break;

    case AccessKind::kWriteHit: {
      const auto [lo, hi] = written_bit_range(ev);
      const usize ones = (hi - lo) - ev.after_ones(lo, hi);
      ledger_.charge(EnergyCategory::kDataWrite,
                     write_energy_counts(cell, hi - lo, ones));
      ledger_.charge(EnergyCategory::kEncoderLogic, encoder_pass_);
      charge_output(transfer_bits(ev));
      break;
    }

    case AccessKind::kReadMissFill:
    case AccessKind::kWriteMissFill: {
      if (ev.evicted_valid && ev.evicted_dirty) {
        charge_decode();
        Energy rd{};
        usize dirty_bits = 0;
        for_each_dirty_word(ev, [&](usize lo, usize hi) {
          const usize ones = (hi - lo) - ev.before_ones(lo, hi);
          rd += read_energy_counts(cell, hi - lo, ones);
          dirty_bits += hi - lo;
        });
        ledger_.charge(EnergyCategory::kDataRead, rd);
        ledger_.charge(EnergyCategory::kEncoderLogic,
                       static_cast<double>(dirty_bits) *
                           tech_.periph.encoder_per_bit);
        charge_output(dirty_bits);
      }
      charge_decode();
      ledger_.charge(EnergyCategory::kDataWrite,
                     write_energy_counts(cell, line_bits, inv_ones()));
      ledger_.charge(EnergyCategory::kEncoderLogic, encoder_pass_);
      charge_tag_write(ev);
      charge_output(line_bits);
      break;
    }

    case AccessKind::kWriteAround:
      break;
  }
}

// cnt-hot
void StaticInvertPolicy::on_access(const AccessEvent& ev) { access(ev); }

// cnt-hot
void StaticInvertPolicy::on_batch(std::span<const AccessEvent> events) {
  for (const AccessEvent& ev : events) access(ev);
}

IdealPolicy::IdealPolicy(std::string name, const TechParams& tech,
                         const ArrayGeometry& geom, usize partitions,
                         WriteGranularity wg)
    : EnergyPolicyBase(std::move(name), tech, geom, wg),
      scheme_(geom.line_bytes, partitions) {}

// cnt-hot
CNT_ALWAYS_INLINE Energy IdealPolicy::best_read(
    const AccessEvent& ev) const noexcept {
  Energy total{};
  const usize pb = scheme_.partition_bits();
  for (usize p = 0; p < scheme_.partitions(); ++p) {
    const usize ones = ev.after_ones(scheme_.bit_begin(p), scheme_.bit_end(p));
    total += std::min(read_energy_counts(tech_.cell, pb, ones),
                      read_energy_counts(tech_.cell, pb, pb - ones));
  }
  return total;
}

// cnt-hot
CNT_ALWAYS_INLINE Energy IdealPolicy::best_write(const AccessEvent& ev,
                                                 usize bit_lo,
                                                 usize bit_hi) const noexcept {
  Energy total{};
  for (usize p = 0; p < scheme_.partitions(); ++p) {
    const usize lo = std::max(bit_lo, scheme_.bit_begin(p));
    const usize hi = std::min(bit_hi, scheme_.bit_end(p));
    if (lo >= hi) continue;
    const usize width = hi - lo;
    const usize ones = ev.after_ones(lo, hi);
    total += std::min(write_energy_counts(tech_.cell, width, ones),
                      write_energy_counts(tech_.cell, width, width - ones));
  }
  return total;
}

// cnt-hot
CNT_ALWAYS_INLINE void IdealPolicy::access(const AccessEvent& ev) {
  charge_decode();
  charge_tag_lookup(ev);
  charge_ecc(ev);

  switch (ev.kind) {
    case AccessKind::kReadHit:
      ledger_.charge(EnergyCategory::kDataRead, best_read(ev));
      charge_output(transfer_bits(ev));
      break;

    case AccessKind::kWriteHit: {
      const auto [lo, hi] = written_bit_range(ev);
      ledger_.charge(EnergyCategory::kDataWrite, best_write(ev, lo, hi));
      charge_output(transfer_bits(ev));
      break;
    }

    case AccessKind::kReadMissFill:
    case AccessKind::kWriteMissFill: {
      if (ev.evicted_valid && ev.evicted_dirty) {
        charge_decode();
        Energy rd{};
        usize dirty_bits = 0;
        for_each_dirty_word(ev, [&](usize lo, usize hi) {
          const usize width = hi - lo;
          const usize ones = ev.before_ones(lo, hi);
          rd += std::min(read_energy_counts(tech_.cell, width, ones),
                         read_energy_counts(tech_.cell, width, width - ones));
          dirty_bits += width;
        });
        ledger_.charge(EnergyCategory::kDataRead, rd);
        charge_output(dirty_bits);
      }
      charge_decode();
      ledger_.charge(EnergyCategory::kDataWrite,
                     best_write(ev, 0, array_.geometry().line_bits()));
      charge_tag_write(ev);
      charge_output(array_.geometry().line_bits());
      break;
    }

    case AccessKind::kWriteAround:
      break;
  }
}

// cnt-hot
void IdealPolicy::on_access(const AccessEvent& ev) { access(ev); }

// cnt-hot
void IdealPolicy::on_batch(std::span<const AccessEvent> events) {
  for (const AccessEvent& ev : events) access(ev);
}

}  // namespace cnt
