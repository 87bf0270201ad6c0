#include "easycrash/memsim/cache_level.hpp"

#include <algorithm>
#include <limits>

#include "easycrash/common/check.hpp"

namespace easycrash::memsim {

namespace {

[[nodiscard]] constexpr bool isPowerOfTwo(std::uint64_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

[[nodiscard]] std::uint32_t log2Exact(std::uint64_t v) {
  std::uint32_t shift = 0;
  while ((1ULL << shift) < v) ++shift;
  return shift;
}

}  // namespace

CacheLevel::CacheLevel(const CacheGeometry& geometry, std::uint32_t blockSize)
    : assoc_(geometry.associativity) {
  EC_CHECK(geometry.sizeBytes > 0);
  EC_CHECK(assoc_ > 0);
  EC_CHECK_MSG(isPowerOfTwo(blockSize), "block size must be a power of two");
  blockShift_ = log2Exact(blockSize);
  const std::uint64_t numLines = geometry.sizeBytes / blockSize;
  EC_CHECK_MSG(numLines * blockSize == geometry.sizeBytes,
               "cache size must be a multiple of the block size");
  EC_CHECK_MSG(numLines % assoc_ == 0, "lines must divide evenly into sets");
  EC_CHECK_MSG(numLines < std::numeric_limits<std::uint32_t>::max(),
               "line count must fit a 32-bit index");
  sets_ = numLines / assoc_;
  setsPow2_ = isPowerOfTwo(sets_);
  setMask_ = setsPow2_ ? sets_ - 1 : 0;
  tags_.assign(numLines, kInvalidTag);
  stamps_.assign(numLines, 0);
  dirty_.assign(numLines, 0);
}

void CacheLevel::invalidateAll() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(stamps_.begin(), stamps_.end(), 0);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  validCount_ = 0;
}

}  // namespace easycrash::memsim
