// Size arithmetic that saturates at SIZE_MAX instead of wrapping, so a
// sum or product too large for a size_t reads as huge, not as small.

#ifndef TSAD_COMMON_SATURATING_H_
#define TSAD_COMMON_SATURATING_H_

#include <cstddef>
#include <limits>

namespace tsad {

inline constexpr std::size_t kSizeMax = std::numeric_limits<std::size_t>::max();

constexpr std::size_t SaturatingAdd(std::size_t a, std::size_t b) {
  return a > kSizeMax - b ? kSizeMax : a + b;
}

constexpr std::size_t SaturatingMul(std::size_t a, std::size_t b) {
  return b != 0 && a > kSizeMax / b ? kSizeMax : a * b;
}

}  // namespace tsad

#endif  // TSAD_COMMON_SATURATING_H_
