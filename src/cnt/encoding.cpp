#include "cnt/encoding.hpp"

#include <bit>
#include <stdexcept>

namespace cnt {

// The hot kernels (encode/re-encode, stored_partition_ones, stored_ones,
// stored_ones_range) are defined inline in encoding.hpp; this file keeps
// construction-time validation and the allocating conveniences.

PartitionScheme::PartitionScheme(usize line_bytes, usize partitions)
    : line_bytes_(line_bytes), k_(partitions) {
  if (k_ == 0 || k_ > 64) {
    throw std::invalid_argument("PartitionScheme: K must be in [1, 64]");
  }
  const usize line_bits = line_bytes_ * 8;
  if (line_bits % k_ != 0 || (line_bits / k_) % 8 != 0) {
    throw std::invalid_argument(
        "PartitionScheme: K must divide the line into byte-aligned "
        "partitions");
  }
  part_bits_ = line_bits / k_;
  const usize words = part_bits_ / 64;
  word_packed_ = part_bits_ % 64 == 0 && std::has_single_bit(words);
  if (word_packed_) word_shift_ = static_cast<usize>(std::countr_zero(words));
}

std::vector<u8> encode_line(const PartitionScheme& ps,
                            std::span<const u8> logical, u64 directions) {
  std::vector<u8> out(ps.line_bytes());
  encode_line(ps, logical, directions, out);
  return out;
}

std::vector<usize> partition_ones(const PartitionScheme& ps,
                                  std::span<const u8> data) {
  std::vector<usize> ones(ps.partitions());
  for (usize p = 0; p < ps.partitions(); ++p) {
    ones[p] = detail::partition_raw_ones(ps, data.data(), p);
  }
  return ones;
}

}  // namespace cnt
