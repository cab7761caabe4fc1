#include "cnt/predictor.hpp"

#include <cassert>

#include "common/bits.hpp"

namespace cnt {

Predictor::Predictor(const BitEnergies& cell, PartitionScheme scheme,
                     usize window, double delta_t, double write_weight)
    : scheme_(scheme),
      table_(cell, window, scheme.partition_bits(), delta_t, write_weight),
      window_(window),
      history_bits_(2 * bits_to_hold(window - 1)) {
  assert(window >= 1);
}

}  // namespace cnt
