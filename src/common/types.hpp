// Fixed-width integer aliases used throughout the library.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cnt {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;
using usize = std::size_t;

}  // namespace cnt

/// Inline a sink's hot per-event body into each of its callers -- its
/// on_access and the loop of its on_batch -- where the compiler's size
/// heuristics would otherwise keep one out-of-line copy and call it per
/// event.
#if defined(__GNUC__)
#define CNT_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define CNT_ALWAYS_INLINE inline
#endif
