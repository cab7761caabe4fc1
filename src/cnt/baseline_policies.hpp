// Comparator policies: the baseline CNFET cache (no encoding), the CMOS
// cache (same class, CMOS parameters), a static always-invert encoder, and
// the unattainable per-access oracle.
#pragma once

#include "cnt/encoding.hpp"
#include "cnt/policy_base.hpp"
#include "energy/sram_cell.hpp"

namespace cnt {

/// Conventional cache: data stored as-is. Instantiate with
/// TechParams::cnfet() for the paper's baseline CNFET cache, or
/// TechParams::cmos() for the CMOS reference.
class PlainPolicy final : public EnergyPolicyBase {
 public:
  PlainPolicy(std::string name, const TechParams& tech,
              const ArrayGeometry& geom,
              WriteGranularity wg = WriteGranularity::kWord)
      : EnergyPolicyBase(std::move(name), tech, geom, wg),
        line_energy_(tech.cell, geom.line_bytes * 8),
        word_energy_(tech.cell, 64) {}

  void on_access(const AccessEvent& ev) override;
  void on_batch(std::span<const AccessEvent> events) override;

 private:
  /// The per-event body on_access and on_batch share.
  void access(const AccessEvent& ev);

  // Fixed-width energy lookup tables (see EnergyByOnes): the full line
  // (hits and fills) and one 64-bit dirty word (writeback pricing).
  EnergyByOnes line_energy_;
  EnergyByOnes word_energy_;
};

/// Static whole-line inversion: every line is stored complemented. Needs no
/// per-line metadata (the direction is global) but pays the encoder
/// data-path energy. Wins only when workload data is biased the right way
/// for the access mix -- the strawman that motivates *adaptive* encoding.
class StaticInvertPolicy final : public EnergyPolicyBase {
 public:
  StaticInvertPolicy(std::string name, const TechParams& tech,
                     const ArrayGeometry& geom,
                     WriteGranularity wg = WriteGranularity::kWord)
      : EnergyPolicyBase(std::move(name), tech, geom, wg),
        encoder_pass_(static_cast<double>(geom.line_bytes * 8) *
                      tech.periph.encoder_per_bit) {}

  void on_access(const AccessEvent& ev) override;
  void on_batch(std::span<const AccessEvent> events) override;

 private:
  /// The per-event body on_access and on_batch share.
  void access(const AccessEvent& ev);

  /// Encoder data-path energy of one pass over the whole line.
  Energy encoder_pass_;
};

/// Unattainable upper bound: every individual access magically uses the
/// cheaper of {raw, inverted} per partition, with zero switch, metadata,
/// or logic overhead. No real encoding scheme can beat it; CNT-Cache's
/// quality is measured as the fraction of this bound it captures.
class IdealPolicy final : public EnergyPolicyBase {
 public:
  IdealPolicy(std::string name, const TechParams& tech,
              const ArrayGeometry& geom, usize partitions,
              WriteGranularity wg = WriteGranularity::kWord);

  void on_access(const AccessEvent& ev) override;
  void on_batch(std::span<const AccessEvent> events) override;

 private:
  /// The per-event body on_access and on_batch share.
  void access(const AccessEvent& ev);

  /// Cheapest possible read of ev.line_after, choosing the better of
  /// raw/inverted independently per partition.
  [[nodiscard]] Energy best_read(const AccessEvent& ev) const noexcept;
  /// Cheapest possible write of the bit range [lo, hi) of ev.line_after,
  /// choosing the better of raw/inverted independently per overlapped
  /// partition.
  [[nodiscard]] Energy best_write(const AccessEvent& ev, usize bit_lo,
                                  usize bit_hi) const noexcept;

  PartitionScheme scheme_;
};

}  // namespace cnt
