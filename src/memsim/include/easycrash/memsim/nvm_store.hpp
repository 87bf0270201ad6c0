// NVM backing store: a byte-addressable image plus write accounting.
//
// This models app-direct-mode persistent memory (paper §2.3): bytes written
// here survive a crash; bytes still sitting dirty in the cache hierarchy do
// not. The store grows on demand so allocation order does not matter. A
// tracked run's value image (CacheHierarchy::values) is an NvmStore too,
// written only through uncounted pokes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

namespace easycrash::memsim {

/// A 128-bit state digest: a sum (mod 2^128) of per-block hashes, so a block
/// rewrite updates it by subtracting the old hash and adding the new one.
struct Digest128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Digest128&, const Digest128&) = default;
  Digest128& operator+=(const Digest128& o) {
    const std::uint64_t sum = lo + o.lo;
    hi += o.hi + (sum < lo ? 1 : 0);
    lo = sum;
    return *this;
  }
  Digest128& operator-=(const Digest128& o) {
    const std::uint64_t diff = lo - o.lo;
    hi -= o.hi + (lo < o.lo ? 1 : 0);
    lo = diff;
    return *this;
  }
};

/// Hash of `bytes` (a whole number of 16-byte words) as the block with index
/// `index`. An all-zero block hashes to {0, 0} at every index, so bytes
/// that were never written need no special case in a digest.
[[nodiscard]] Digest128 blockDigest(std::uint64_t index, const std::uint8_t* bytes,
                                    std::size_t size);

/// The caller's side of a tracked access: a load fills it, a store reads it.
template <bool kStore>
using AccessSpan =
    std::conditional_t<kStore, std::span<const std::uint8_t>, std::span<std::uint8_t>>;

class NvmStore {
 public:
  explicit NvmStore(std::uint32_t blockSize = 64);
  ~NvmStore() { std::free(image_); }
  // dirty_ points into dirtyMap_, and a CacheHierarchy holds the store by
  // reference: it stays where it was built.
  NvmStore(const NvmStore&) = delete;
  NvmStore& operator=(const NvmStore&) = delete;

  [[nodiscard]] std::uint32_t blockSize() const { return blockSize_; }

  /// Read `dst.size()` bytes starting at `addr` (zero-filled if never
  /// written). Reads never grow the materialised image: unbacked bytes are
  /// served as zeros without allocating backing storage. Inline fast path:
  /// direct-mode runs (the golden run and every restart) issue one of these
  /// per tracked element, so the fully-backed
  /// common case must stay a bounds check + memcpy. A zero-length request
  /// fails the comparison (its size - 1 wraps) and takes the slow side,
  /// which returns before memcpy could see a null pointer.
  void read(std::uint64_t addr, std::span<std::uint8_t> dst) const {
    if (addr < imageBytes_ && dst.size() - 1 < imageBytes_ - addr) [[likely]] {
      std::memcpy(dst.data(), image_ + addr, dst.size());
      return;
    }
    readSlow(addr, dst);
  }

  /// Zero-copy view of one block of the materialised image, or an empty
  /// span when the block is not fully backed (its bytes then read as zeros
  /// via read()). The post-mortem scan compares cached blocks against this
  /// view in place instead of copying every block through a scratch buffer;
  /// the pointer is invalidated by any write that grows the image.
  [[nodiscard]] std::span<const std::uint8_t> blockView(std::uint64_t addr) const {
    if (addr + blockSize_ <= imageBytes_) return {image_ + addr, blockSize_};
    return {};
  }

  /// Write one full cache block at block-aligned `addr`, counting the write.
  void writeBlock(std::uint64_t addr, std::span<const std::uint8_t> src);

  /// Direct (uncounted) write used for initial images and test setup. This is
  /// NOT a modelled NVM write; campaigns use it to materialise initial state.
  /// Same inline fast path rationale as read(): direct-mode stores land
  /// here once per tracked element; zero-length pokes take the
  /// slow side as in read().
  void poke(std::uint64_t addr, std::span<const std::uint8_t> src) {
    if (addr < imageBytes_ && src.size() - 1 < imageBytes_ - addr) [[likely]] {
      if (dirty_ != nullptr) markDirty(addr, src.size());
      std::memcpy(image_ + addr, src.data(), src.size());
      return;
    }
    pokeSlow(addr, src);
  }

  /// Back the image up to `endAddr` (zero-filled): every access below it
  /// then takes the in-image path, and the image pointer stays put until
  /// something writes past it. A direct run backs NVM up to the footprint
  /// at every allocation, so its image never grows after setup.
  void back(std::uint64_t endAddr);

  /// Typed access to one element at `addr` for a caller that has checked
  /// [addr, addr + sizeof(T)) lies in the backed image and that `addr` is
  /// aligned for T (a direct run's TrackedArray: objects are block-aligned
  /// and backed at allocation, and malloc aligns the image for every
  /// fundamental type). The image is malloc'd storage, so the element is an
  /// implicitly created T. The access is typed rather than a memcpy, which
  /// the compiler treats as aliasing everything: a double store then does
  /// not make the caller reload its crash clock. Stores mark the digest's
  /// dirty block as poke() does.
  template <typename T>
  [[nodiscard, gnu::always_inline]] T loadAt(std::uint64_t addr) const {
    return *std::launder(reinterpret_cast<const T*>(image_ + addr));
  }
  template <typename T>
  [[gnu::always_inline]] void storeAt(std::uint64_t addr, const T& v) {
    if (dirty_ != nullptr) markDirty(addr, sizeof(T));
    *std::launder(reinterpret_cast<T*>(image_ + addr)) = v;
  }

  /// The byte move of one tracked access: read() for a load, poke() for a
  /// store.
  template <bool kStore>
  void move(std::uint64_t addr, AccessSpan<kStore> bytes) {
    if constexpr (kStore) {
      poke(addr, bytes);
    } else {
      read(addr, bytes);
    }
  }

  /// Number of modelled block writes into NVM so far.
  [[nodiscard]] std::uint64_t blockWrites() const { return blockWrites_; }

  /// Enable per-block wear accounting: every modelled block write also bumps
  /// a per-block counter (flight recorder, docs/OBSERVABILITY.md). Off by
  /// default, so writeBlock() pays one predictable branch unless a campaign
  /// asks for it.
  void enableWearProfile();

  /// Block-write counts indexed by block number (addr / blockSize). Empty
  /// when profiling is off; sized to the highest profiled block + 1.
  [[nodiscard]] const std::vector<std::uint64_t>& wearProfile() const {
    return wearProfile_;
  }

  /// Size of the materialised image in bytes.
  [[nodiscard]] std::uint64_t imageBytes() const { return imageBytes_; }

  // ---- State digest (the convergence memo's key, docs/INTERNALS.md) ------

  /// Start maintaining digest() incrementally: from here on every poke and
  /// block write marks the blocks it touches, hashing each block's old
  /// bytes out of the digest the first time it is marked. Off by default;
  /// an unarmed store pays one predictable branch per write.
  void armDigest();
  [[nodiscard]] bool digestArmed() const { return dirty_ != nullptr; }
  /// Digest of the whole value image: the sum of blockDigest() over every
  /// block. Folds in the blocks marked since the last call (hashing each
  /// once), so its cost follows the bytes changed, not the image size.
  [[nodiscard]] Digest128 digest();
  /// The same value recomputed over the blocks below `limit` (default: the
  /// whole image) — the digest itself when nothing at or past `limit` was
  /// ever written. The incremental digest's oracle; armDigest() starts
  /// from it.
  [[nodiscard]] Digest128 digestFromScratch(std::uint64_t limit = ~std::uint64_t{0}) const;

 private:
  /// Mark the blocks of [addr, addr + size), which lie inside the image,
  /// dirty. Inline: a store within two already-marked blocks costs two
  /// byte tests.
  void markDirty(std::uint64_t addr, std::size_t size) {
    const std::uint64_t first = addr >> blockShift_;
    const std::uint64_t last = (addr + size - 1) >> blockShift_;
    if (last - first <= 1 && (dirty_[first] & dirty_[last]) != 0) return;
    markDirtySlow(addr, size);
  }
  void markDirtySlow(std::uint64_t addr, std::size_t size);
  [[nodiscard]] Digest128 hashBlock(std::uint64_t block) const;
  void readSlow(std::uint64_t addr, std::span<std::uint8_t> dst) const;
  void pokeSlow(std::uint64_t addr, std::span<const std::uint8_t> src);

  std::uint32_t blockSize_;
  std::uint32_t blockShift_ = 0;  ///< log2(blockSize_)
  /// The image: malloc'd rather than a vector so that growth can realloc,
  /// which moves a large image's pages instead of copying its bytes.
  std::uint8_t* image_ = nullptr;
  std::uint64_t imageBytes_ = 0;  ///< bytes backed, all initialised
  std::uint64_t capacity_ = 0;    ///< bytes allocated
  std::uint64_t blockWrites_ = 0;
  bool wearEnabled_ = false;
  std::vector<std::uint64_t> wearProfile_;

  Digest128 digest_;  ///< digest of the image minus the dirty blocks
  /// One byte per image block, non-zero while the block is dirty; dirty_
  /// is its data, null while the digest is not armed (one load and one
  /// predictable branch per store).
  std::vector<std::uint8_t> dirtyMap_;
  std::uint8_t* dirty_ = nullptr;
  std::vector<std::uint64_t> dirtyBlocks_;  ///< the marked blocks, in order
};

}  // namespace easycrash::memsim
