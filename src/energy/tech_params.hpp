// Technology parameters: CNFET and CMOS SRAM per-bit access energies plus
// first-order peripheral-circuit parameters.
//
// This file reconstructs the paper's missing Table `tab:rw-analysis`.
// The paper states two quantitative anchors we must satisfy:
//   (1) "the energy consumption of writing 1 to an SRAM cell is almost 10X
//        higher than writing 0"                          (abstract), and
//   (2) "E_rd0 - E_rd1 is quite close to E_wr1 - E_wr0" (Section III.C),
//        which is what makes Th_rd ~= W/2 in Eq. (3).
// Absolute magnitudes are taken from published CNFET SRAM characterization
// (6T CNFET SRAM cells at a 16 nm-class node report sub-fJ to few-fJ per-bit
// dynamic energies, roughly 2-5x below CMOS at the same node). The asymmetry
// comes from the single-ended behaviour of the CNFET cell the paper builds
// on: driving the cell node high through the n-type CNFET pass path and
// discharging a precharged bitline on a stored '0' are the expensive cases.
#pragma once

#include <string>

#include "common/units.hpp"

namespace cnt {

/// Per-bit dynamic energy of one data-array column access, including the
/// cell core, bitline swing, and sense/write driver for that column. These
/// are the E_rd0/E_rd1/E_wr0/E_wr1 of the paper's Eqs. (1)-(6).
struct BitEnergies {
  Energy rd0;  ///< read a stored '0'
  Energy rd1;  ///< read a stored '1'
  Energy wr0;  ///< write a '0'
  Energy wr1;  ///< write a '1'

  /// Energy to read one bit of value `bit`.
  [[nodiscard]] constexpr Energy read(bool bit) const noexcept {
    return bit ? rd1 : rd0;
  }
  /// Energy to write one bit of value `bit`.
  [[nodiscard]] constexpr Energy write(bool bit) const noexcept {
    return bit ? wr1 : wr0;
  }

  /// The read asymmetry E_rd0 - E_rd1 (positive when '0' reads cost more).
  [[nodiscard]] constexpr Energy read_delta() const noexcept {
    return rd0 - rd1;
  }
  /// The write asymmetry E_wr1 - E_wr0 (positive when '1' writes cost more).
  [[nodiscard]] constexpr Energy write_delta() const noexcept {
    return wr1 - wr0;
  }

  friend bool operator==(const BitEnergies&, const BitEnergies&) = default;
};

/// Peripheral-circuit parameters for the CACTI-lite array model and the
/// CNT-Cache adaptive-encoding logic overhead.
struct PeripheralParams {
  /// Row-decoder energy per decoded address bit (covers predecode + final
  /// decode stage switching).
  Energy decoder_per_addr_bit = fJ(1.8);
  /// Wordline charge/discharge energy per cell hanging off the line.
  Energy wordline_per_cell = fJ(0.045);
  /// Tag comparator energy per compared tag bit per way.
  Energy tag_compare_per_bit = fJ(0.05);
  /// Output/IO driver energy per transferred data bit.
  Energy output_per_bit = fJ(0.12);
  /// Adaptive-encoder inverter+mux energy per data bit passing through it
  /// (charged on every CNT-Cache data access; the paper calls the encoder
  /// "a series of inverters with 2-to-1 multiplexers").
  Energy encoder_per_bit = fJ(0.018);
  /// Predictor counter-update energy per access (A_num/Wr_num increment).
  Energy predictor_update = fJ(3.0);
  /// Predictor window-boundary evaluation energy per data bit (popcount
  /// tree + threshold-table lookup + comparison), charged once every W
  /// accesses to a line.
  Energy predictor_eval_per_bit = fJ(0.01);
  /// FIFO push/pop energy per byte moved through the deferred-update queue.
  Energy fifo_per_byte = fJ(0.4);
  /// ECC syndrome/parity XOR-tree energy per covered payload bit, charged
  /// on every protected array read and write (the checker sees the whole
  /// codeword either way).
  Energy ecc_check_per_bit = fJ(0.004);
  /// Correction-path energy per corrected/detected event (syndrome decode
  /// + flip mux), on top of the per-bit check cost.
  Energy ecc_correct_per_event = fJ(30.0);
  /// Static leakage power per cell, in watts (used by the leakage report;
  /// dynamic-energy experiments follow the paper and exclude it).
  double leakage_per_cell_w = 2.0e-12;

  friend bool operator==(const PeripheralParams&,
                         const PeripheralParams&) = default;
};

/// A complete technology description for one cache implementation.
struct TechParams {
  std::string name;
  BitEnergies cell;
  PeripheralParams periph;
  /// Achievable clock for a cache built in this technology; CNFET's higher
  /// drive current supports a faster clock at the same node ("promises
  /// both higher clock speed and energy efficiency", abstract). Used by
  /// the EDP experiment.
  double clock_ghz = 2.0;

  /// CNFET 6T SRAM at a 16 nm-class technology node (reconstruction of the
  /// paper's Table `tab:rw-analysis`; see file comment).
  ///   wr1 / wr0  ~= 9.7x   -- abstract's "almost 10X"
  ///   rd0 - rd1 = 2.03 fJ vs wr1 - wr0 = 2.25 fJ -- "quite close",
  ///   giving Th_rd = W / (1 + 2.03/2.25) = 0.526 W ~= W/2 per Eq. (3).
  [[nodiscard]] static TechParams cnfet();

  /// Conventional CMOS 6T SRAM at the same node, for the CMOS-vs-CNFET
  /// comparison. Per-bit energies are nearly value-symmetric (differential
  /// bitlines), and 2-3x the CNFET magnitudes ("power-hungry CMOS cache").
  [[nodiscard]] static TechParams cmos();

  friend bool operator==(const TechParams&, const TechParams&) = default;
};

}  // namespace cnt
