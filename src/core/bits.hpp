// Bit-twiddling helpers for the bitset kernels.
//
// The project builds for the baseline x86-64 ISA (no -mpopcnt), where
// std::popcount compiles to a call into libgcc's __popcountdi2.  The Mattson
// scan counts mark bits per request and the offline expansion kernel counts
// cache fill and faulting cores per state, so both use popcount64, the
// branch-free SWAR sum, which inlines to a dozen ALU operations.
#pragma once

#include <cstdint>

namespace mcp {

/// Number of set bits in `x`.
[[nodiscard]] constexpr int popcount64(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

}  // namespace mcp
