#include "easycrash/memsim/scan.hpp"

#include <algorithm>
#include <cstring>

namespace easycrash::memsim::scan {

namespace {

// Sixteen u8 lanes. A lane-wise compare yields 0 or 0xFF per lane.
typedef std::uint8_t Lanes __attribute__((vector_size(16)));

constexpr std::size_t kLaneCount = sizeof(Lanes);
// A u8 lane counter wraps past 255, so the accumulator drains at least that
// often.
constexpr std::size_t kMaxStepsPerDrain = 255;

/// Sum of the sixteen u8 lane counters.
[[nodiscard]] std::uint64_t laneSum(Lanes acc) noexcept {
  std::uint64_t w[2];
  std::memcpy(w, &acc, sizeof w);
  // Widen adjacent u8 lanes into u16 lanes (each at most 4 * 255), then
  // gather the four u16 lanes into the top 16 bits with one multiply.
  constexpr std::uint64_t kLow = 0x00FF00FF00FF00FFULL;
  const std::uint64_t pairs = (w[0] & kLow) + ((w[0] >> 8) & kLow) +
                              (w[1] & kLow) + ((w[1] >> 8) & kLow);
  return (pairs * 0x0001000100010001ULL) >> 48;
}

}  // namespace

std::uint64_t countDiffBytes(const std::uint8_t* a, const std::uint8_t* b,
                             std::size_t n) noexcept {
  if (n == 0 || std::memcmp(a, b, n) == 0) return 0;
  std::uint64_t count = 0;
  std::size_t i = 0;
  while (n - i >= kLaneCount) {
    const std::size_t steps = std::min((n - i) / kLaneCount, kMaxStepsPerDrain);
    Lanes acc{};
    for (std::size_t s = 0; s < steps; ++s, i += kLaneCount) {
      Lanes va;
      Lanes vb;
      std::memcpy(&va, a + i, kLaneCount);
      std::memcpy(&vb, b + i, kLaneCount);
      acc += reinterpret_cast<Lanes>(va != vb) & 1;
    }
    count += laneSum(acc);
  }
  for (; i < n; ++i) count += a[i] != b[i] ? 1 : 0;
  return count;
}

}  // namespace easycrash::memsim::scan
