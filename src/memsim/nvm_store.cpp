#include "easycrash/memsim/nvm_store.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "easycrash/common/check.hpp"

namespace easycrash::memsim {

namespace {

constexpr std::uint64_t kWordKeys[8] = {
    0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL, 0xa4093822299f31d0ULL,
    0x082efa98ec4e6c89ULL, 0x452821e638d01377ULL, 0xbe5466cf34e90c6cULL,
    0xc0ac29b7c97c50ddULL, 0x3f84d5b5b5470917ULL};

}  // namespace

Digest128 blockDigest(std::uint64_t index, const std::uint8_t* bytes, std::size_t size) {
  // NH: each 16-byte word pair (a, b) adds the full 128-bit product
  // (a + ka) * (b + kb), under keys salted with the block index. One
  // multiply per 16 bytes keeps hashing at the pace the bytes are written;
  // the key salting makes equal contents at different indices, and
  // swapped words, hash apart.
  __extension__ using U128 = unsigned __int128;
  const std::uint64_t salt = (index + 1) * 0x9e3779b97f4a7c15ULL;
  const auto product = [salt](std::uint64_t a, std::uint64_t b, std::size_t w) {
    const std::uint64_t position = (w >> 3) * 0xd6e8feb86659fd93ULL;
    return static_cast<U128>(a + (kWordKeys[w & 7] ^ salt) + position) *
           (b + (kWordKeys[(w + 1) & 7] ^ salt) + position);
  };
  U128 acc = 0;
  std::uint64_t any = 0;
  if (size == 64) {  // the common block size, unrolled
    std::uint64_t w[8];
    std::memcpy(w, bytes, sizeof w);
    any = w[0] | w[1] | w[2] | w[3] | w[4] | w[5] | w[6] | w[7];
    if (any == 0) return {};
    acc = product(w[0], w[1], 0) + product(w[2], w[3], 2) + product(w[4], w[5], 4) +
          product(w[6], w[7], 6);
  } else {
    for (std::size_t off = 0; off + 16 <= size; off += 16) {
      std::uint64_t a = 0;
      std::uint64_t b = 0;
      std::memcpy(&a, bytes + off, 8);
      std::memcpy(&b, bytes + off + 8, 8);
      any |= a | b;
      acc += product(a, b, off / 8);
    }
    if (any == 0) return {};
  }
  return {static_cast<std::uint64_t>(acc), static_cast<std::uint64_t>(acc >> 64)};
}

NvmStore::NvmStore(std::uint32_t blockSize) : blockSize_(blockSize) {
  EC_CHECK(blockSize_ > 0 && (blockSize_ & (blockSize_ - 1)) == 0);
  while ((1u << blockShift_) < blockSize_) ++blockShift_;
}

void NvmStore::back(std::uint64_t endAddr) {
  // Back page-sized steps (whole blocks) and double the allocation: realloc
  // moves a large image's pages instead of copying its bytes, and an image
  // that backs only its first block — a direct run's cached iteration
  // bookmark — stays one page.
  const std::uint64_t chunk = std::max<std::uint64_t>(4096, blockSize_);
  EC_CHECK_MSG(endAddr <= std::numeric_limits<std::uint64_t>::max() - chunk,
               "NvmStore address range overflows");
  if (endAddr > imageBytes_) {
    const std::uint64_t target = (endAddr + chunk - 1) / chunk * chunk;
    if (target > capacity_) {
      const std::uint64_t capacity = std::max(target, 2 * capacity_);
      auto* grown = static_cast<std::uint8_t*>(std::realloc(image_, capacity));
      EC_CHECK_MSG(grown != nullptr, "NvmStore image allocation failed");
      image_ = grown;
      capacity_ = capacity;
    }
    std::memset(image_ + imageBytes_, 0, target - imageBytes_);
    imageBytes_ = target;
    if (digestArmed()) {
      dirtyMap_.resize((target + blockSize_ - 1) >> blockShift_, 0);
      dirty_ = dirtyMap_.data();
    }
  }
}

void NvmStore::readSlow(std::uint64_t addr, std::span<std::uint8_t> dst) const {
  if (dst.empty()) return;
  EC_CHECK_MSG(addr + dst.size() > addr, "NvmStore read range overflows");
  // Reads never materialise backing storage: bytes beyond the written image
  // are served as zeros, so scanning a large never-written object does not
  // balloon the store (reads of unbacked NVM are architecturally zero).
  const std::uint64_t backed =
      addr < imageBytes_
          ? std::min<std::uint64_t>(dst.size(), imageBytes_ - addr)
          : 0;
  if (backed > 0) std::memcpy(dst.data(), image_ + addr, backed);
  if (backed < dst.size()) std::memset(dst.data() + backed, 0, dst.size() - backed);
}

void NvmStore::writeBlock(std::uint64_t addr, std::span<const std::uint8_t> src) {
  EC_CHECK_MSG(addr % blockSize_ == 0, "block write must be block-aligned");
  EC_CHECK(src.size() == blockSize_);
  back(addr + blockSize_);
  if (digestArmed()) markDirty(addr, blockSize_);
  std::memcpy(image_ + addr, src.data(), blockSize_);
  ++blockWrites_;
  if (wearEnabled_) {
    const std::size_t block = static_cast<std::size_t>(addr / blockSize_);
    if (block >= wearProfile_.size()) wearProfile_.resize(block + 1, 0);
    ++wearProfile_[block];
  }
}

void NvmStore::enableWearProfile() { wearEnabled_ = true; }

void NvmStore::pokeSlow(std::uint64_t addr, std::span<const std::uint8_t> src) {
  if (src.empty()) return;
  EC_CHECK_MSG(addr + src.size() > addr, "NvmStore poke range overflows");
  back(addr + src.size());
  if (digestArmed()) markDirty(addr, src.size());
  std::memcpy(image_ + addr, src.data(), src.size());
}

void NvmStore::armDigest() {
  EC_CHECK_MSG(blockSize_ >= 16, "the state digest hashes 16-byte words");
  // Never empty, so dirty_ is non-null even over an empty image.
  dirtyMap_.assign(
      std::max<std::uint64_t>(1, (imageBytes_ + blockSize_ - 1) >> blockShift_), 0);
  dirty_ = dirtyMap_.data();
  dirtyBlocks_.clear();
  digest_ = digestFromScratch();
}

Digest128 NvmStore::hashBlock(std::uint64_t block) const {
  const std::uint64_t addr = block << blockShift_;
  if (addr + blockSize_ <= imageBytes_) {
    return blockDigest(block, image_ + addr, blockSize_);
  }
  if (addr >= imageBytes_) return {};  // unbacked: reads as zeros
  std::vector<std::uint8_t> padded(blockSize_, 0);
  read(addr, padded);
  return blockDigest(block, padded.data(), blockSize_);
}

void NvmStore::markDirtySlow(std::uint64_t addr, std::size_t size) {
  const std::uint64_t last = (addr + size - 1) >> blockShift_;
  for (std::uint64_t block = addr >> blockShift_; block <= last; ++block) {
    if (dirty_[block] != 0) continue;
    dirty_[block] = 1;
    dirtyBlocks_.push_back(block);
    digest_ -= hashBlock(block);  // the old bytes leave the digest
  }
}

Digest128 NvmStore::digest() {
  for (const std::uint64_t block : dirtyBlocks_) {
    digest_ += hashBlock(block);
    dirty_[block] = 0;
  }
  dirtyBlocks_.clear();
  return digest_;
}

Digest128 NvmStore::digestFromScratch(std::uint64_t limit) const {
  Digest128 total;
  const std::uint64_t end = std::min<std::uint64_t>(limit, imageBytes_);
  const std::uint64_t blocks = (end + blockSize_ - 1) >> blockShift_;
  for (std::uint64_t block = 0; block < blocks; ++block) total += hashBlock(block);
  return total;
}

}  // namespace easycrash::memsim
