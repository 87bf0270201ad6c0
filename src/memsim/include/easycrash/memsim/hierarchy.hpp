// Multi-level inclusive write-back cache hierarchy with value tracking,
// backed by an NvmStore. This is the execution substrate every instrumented
// application runs on: all loads/stores of tracked data objects route through
// access(), flush instructions route through flushBlock()/flushRange(), and a
// crash is modelled by invalidateAll() — everything not written back to the
// NvmStore is lost, exactly as on app-direct-mode persistent memory.
//
// The levels hold metadata only (tags, LRU stamps, dirty bits); every
// byte's current value lives in one flat value image (values()). An access
// therefore moves bytes exactly once — between the caller and the image —
// and fills, evictions and back-invalidations move only metadata; only a
// write-back copies a block, from the image to NVM (see docs/INTERNALS.md
// "Simulator performance").
//
// Inclusion means every block cached anywhere sits in the LLC, so the LLC
// line is the home of everything a block's copies share. The upper levels
// are L1..L(n-1), numbered 0..n-2, and inclusion nests: a copy at upper
// level u implies copies at every level below it. Per LLC line the
// hierarchy keeps a holder mask (bit u: level u holds the block), a
// dirty-holder mask (bit u: that copy is dirty) and each holder's line
// index; each upper line in turn records its block's LLC line. A flat map,
// one entry per block, gives each block's LLC line (kNoLine when the block
// is cached nowhere). With the map and both links, an access that leaves
// the L1-MRU fast path finds every copy of its block without a tag probe,
// and evicting or flushing a block reaches every copy the same way.
//
// A block is "dirty anywhere" when its LLC line's own dirty bit or any bit
// of its dirty-holder mask is set. The invariant: the value image equals
// NVM in every block that is not dirty anywhere. A write-back — LLC
// eviction, flush, drain — copies a dirty-anywhere block from the value
// image to NVM, and a power loss copies NVM back into the value image for
// those blocks. The post-mortem scan therefore compares only the
// dirty-anywhere blocks, enumerated from the LLC lines in address order
// (rebuilt lazily after the dirty set changed).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "easycrash/common/check.hpp"
#include "easycrash/memsim/cache_level.hpp"
#include "easycrash/memsim/config.hpp"
#include "easycrash/memsim/events.hpp"
#include "easycrash/memsim/nvm_store.hpp"

namespace easycrash::memsim {

class CacheHierarchy {
 public:
  CacheHierarchy(CacheConfig config, NvmStore& nvm);

  CacheHierarchy(const CacheHierarchy&) = delete;
  CacheHierarchy& operator=(const CacheHierarchy&) = delete;

  /// Load `dst.size()` bytes from `addr` through the cache hierarchy.
  /// The header-level fast path covers the dominant case — a single-block
  /// access hitting L1's most-recently-used line — without leaving the
  /// caller's translation unit; everything else goes out of line. Written
  /// out for each direction: folding load() and store() into one template
  /// changes how the compiler inlines them into the apps' loops.
  /// Pinned inline (as the direct accessors are): how much of the out-of-line
  /// miss path sits in this unit must not change how GCC inlines these two
  /// into the apps' kernels.
  [[gnu::always_inline]] void load(std::uint64_t addr, std::span<std::uint8_t> dst) {
    const std::uint64_t inBlock = addr & blockMask_;
    if (!dst.empty() && inBlock + dst.size() <= config_.blockSize) {
      const std::int64_t line = levels_[0].mruLineOf(addr - inBlock);
      if (line >= 0) {
        const auto l1 = static_cast<std::uint32_t>(line);
        ++events_.hits[0];
        levels_[0].touch(l1);
        values_.read(addr, dst);
        ++events_.loads;
        return;
      }
    }
    accessSlow<false>(addr, dst);
  }
  /// Store `src.size()` bytes at `addr` through the cache hierarchy.
  [[gnu::always_inline]] void store(std::uint64_t addr, std::span<const std::uint8_t> src) {
    const std::uint64_t inBlock = addr & blockMask_;
    if (!src.empty() && inBlock + src.size() <= config_.blockSize) {
      const std::int64_t line = levels_[0].mruLineOf(addr - inBlock);
      if (line >= 0) {
        const auto l1 = static_cast<std::uint32_t>(line);
        ++events_.hits[0];
        levels_[0].touch(l1);
        values_.poke(addr, src);
        if (!levels_[0].dirty(l1)) markL1Dirty(l1);
        ++events_.stores;
        return;
      }
    }
    accessSlow<true>(addr, src);
  }

  /// Bulk range access: move [addr, addr+dst.size()) in one call, splitting
  /// at block boundaries and touching each block's tags/MRU/dirty state once
  /// with a single memcpy per block. `elemSize` is the logical element width
  /// the range is composed of; counters are byte-identical to issuing the
  /// same range as ascending element-wise load()/store() calls of that width
  /// (each block's first element pays the probe, the rest are L1 hits, and
  /// an element straddling two blocks counts one micro-access in each —
  /// exactly what the scalar chunk loop records). Only rangeLoads/rangeStores/
  /// rangeSplitBlocks, which are diagnostics excluded from equivalence, tell
  /// the two paths apart.
  void loadRange(std::uint64_t addr, std::span<std::uint8_t> dst,
                 std::uint32_t elemSize) {
    accessRange<false>(addr, dst, elemSize);
  }
  void storeRange(std::uint64_t addr, std::span<const std::uint8_t> src,
                  std::uint32_t elemSize) {
    accessRange<true>(addr, src, elemSize);
  }
  /// loadRange() or storeRange(), for callers generic over the direction.
  template <bool kStore>
  void accessRange(std::uint64_t addr, AccessSpan<kStore> bytes, std::uint32_t elemSize);

  /// Apply a flush instruction to the block containing `addr`.
  void flushBlock(std::uint64_t addr, FlushKind kind) { flush(addr, 1, kind); }
  /// Flush every block overlapping [addr, addr+size) — the paper's
  /// cache_block_flush() over a whole data object (§2.1: all blocks are
  /// flushed even when not resident, because hardware cannot tell).
  void flushRange(std::uint64_t addr, std::uint64_t size, FlushKind kind);

  /// Read the architecturally-current value from the value image, without
  /// perturbing cache state or counters.
  void peek(std::uint64_t addr, std::span<std::uint8_t> dst) const {
    values_.read(addr, dst);
  }
  /// The value image: every byte's current value (docs/INTERNALS.md
  /// "Memory-system invariants").
  [[nodiscard]] NvmStore& values() { return values_; }
  [[nodiscard]] const NvmStore& values() const { return values_; }

  /// Bytes in [addr, addr+size) whose cached value differs from the NVM
  /// image — the paper's per-object inconsistency measure (§3). The fast
  /// path compares only the dirty-anywhere blocks the LLC enumerates, with
  /// the vectorized scan kernel; setScanFastPath(false) restores the
  /// probe-every-level byte loop, the differential oracle.
  [[nodiscard]] std::uint64_t inconsistentBytes(std::uint64_t addr,
                                                std::uint64_t size) const;

  /// Post-mortem scan fast-path control (LLC dirty list + vectorized
  /// compare in inconsistentBytes). Both settings return bit-identical
  /// results; off exists as the differential oracle and for perf comparison.
  void setScanFastPath(bool on) noexcept { scanFast_ = on; }
  [[nodiscard]] bool scanFastPath() const noexcept { return scanFast_; }

  /// Number of blocks dirty in at least one level, and whether one block is
  /// (tests assert both against the levels' own dirty bits).
  [[nodiscard]] std::size_t dirtyBlockCount() const;
  [[nodiscard]] bool dirtyAnywhere(std::uint64_t blockAddr) const {
    const std::uint32_t line = llcLineOfBlock(blockAddr);
    return line != kNoLine && dirtyAnywhereLine(line);
  }

  /// Write every dirty block back to NVM (counted as modelled writes); lines
  /// stay resident and clean. Used by the coherent-snapshot ("verified")
  /// crash mode and by checkpoint modelling.
  void drainAll();

  /// Power loss: drop all cache contents without write-back.
  void invalidateAll();

  [[nodiscard]] const MemEvents& events() const { return events_; }
  void resetEvents() { events_ = MemEvents{}; }

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] NvmStore& nvm() { return nvm_; }
  [[nodiscard]] std::size_t levelCount() const { return levels_.size(); }
  [[nodiscard]] const CacheLevel& level(std::size_t i) const { return levels_[i]; }

  /// Internal consistency check (tests): inclusion at every level, every
  /// upper line linked both ways to an LLC line of the same block, masks
  /// mirroring the upper levels' valid and dirty bits, no masks on empty LLC
  /// lines, the block map naming exactly the valid LLC lines (both ways),
  /// and the value image equal to NVM in every block dirty nowhere, over the
  /// whole image. Throws std::logic_error on violation.
  void checkInvariants() const;

  /// Enable the sampled access profile: per-stride touch counters fed only by
  /// the out-of-line access paths (ensureInL1), so the header-level L1-MRU
  /// fast path above gains no branch. A "touch" is a block-granular access
  /// that left the fast path — L1 non-MRU hits, misses, and one per block
  /// segment of a range access — a cheap, stable sample of the true access
  /// distribution (flight recorder, docs/OBSERVABILITY.md). `strideBytes` is
  /// rounded up to a power of two and floored at the block size; 0 means one
  /// counter per block.
  void enableAccessProfile(std::uint32_t strideBytes = 0);
  [[nodiscard]] bool accessProfiling() const { return profileShift_ != 0; }
  /// Bytes of address range covered by one profile counter.
  [[nodiscard]] std::uint32_t accessProfileStride() const {
    return profileShift_ != 0 ? (1u << profileShift_) : 0;
  }
  /// Sampled touch counts indexed by addr >> log2(stride); empty when
  /// profiling is off, sized to the highest profiled stride + 1.
  [[nodiscard]] const std::vector<std::uint64_t>& accessProfile() const {
    return accessProfile_;
  }

 private:
  /// What a flush found, per block.
  struct FlushTally {
    std::uint64_t dirty = 0;        ///< written back to NVM
    std::uint64_t clean = 0;        ///< resident, every copy clean
    std::uint64_t nonResident = 0;  ///< cached nowhere
  };

  [[nodiscard]] std::uint64_t blockBase(std::uint64_t addr) const {
    return addr & ~blockMask_;
  }
  [[nodiscard]] std::size_t llcLevel() const { return levels_.size() - 1; }
  /// The LLC line holding `addr`'s block, kNoLine when it is cached nowhere.
  [[nodiscard]] std::uint32_t llcLineOfBlock(std::uint64_t addr) const {
    const std::uint64_t block = addr >> blockShift_;
    return block < llcLineOfBlock_.size() ? llcLineOfBlock_[block] : kNoLine;
  }

  /// First store to a clean L1 line: set its dirty bit (and the LLC's
  /// dirty-holder bit, unless L1 is the LLC).
  void markL1Dirty(std::uint32_t l1) {
    if (levels_.size() == 1) {
      markLlcDirty(l1);
    } else {
      markUpperDirty(0, l1);
    }
  }

  /// Move one block segment's bytes between the caller and the value image,
  /// once L1 line `l1` holds the block, and count `touches` micro-accesses.
  template <bool kStore>
  void moveSegment(std::uint32_t l1, std::uint64_t addr, AccessSpan<kStore> bytes,
                   std::uint64_t touches) {
    values_.move<kStore>(addr, bytes);
    if constexpr (kStore) {
      if (!levels_[0].dirty(l1)) markL1Dirty(l1);
      events_.stores += touches;
    } else {
      events_.loads += touches;
    }
  }

  /// Out-of-line half of load()/store(): multi-block accesses and
  /// single-block accesses that miss the L1 MRU entry.
  template <bool kStore>
  void accessSlow(std::uint64_t addr, AccessSpan<kStore> bytes);
  /// The block walk behind every access that leaves the single-block paths:
  /// for each block of [addr, addr+bytes.size()) in ascending order, make it
  /// resident in L1 (fills, evictions, write-backs), then move its bytes and
  /// count one micro-access per `elemSize`-byte element overlapping it.
  /// Returns the number of blocks walked.
  template <bool kStore>
  std::uint64_t walk(std::uint64_t addr, AccessSpan<kStore> bytes, std::uint64_t elemSize);

  /// Flush every block overlapping [addr, addr+size) (size > 0) in
  /// ascending order and count the flushes: write a block's value to NVM if
  /// any copy is dirty (every copy is clean afterwards); unless `kind` is
  /// CLWB, remove every copy too.
  FlushTally flush(std::uint64_t addr, std::uint64_t size, FlushKind kind);

  /// Make `blockAddr` resident in L1; returns the L1 line index.
  std::uint32_t ensureInL1(std::uint64_t blockAddr);
  /// Miss path of ensureInL1: the block's LLC line is `llcLine` (kNoLine
  /// when it is cached nowhere, and then this fills the LLC from NVM).
  std::uint32_t fillToL1(std::uint64_t blockAddr, std::uint32_t llcLine);
  /// Install `blockAddr` (LLC line `llcLine`) at upper level `level`,
  /// evicting that set's victim first; returns the filled line.
  std::uint32_t fillUpper(std::size_t level, std::uint64_t blockAddr,
                          std::uint32_t llcLine);

  // ---- The LLC lines' holder state (see the header comment) ---------------

  /// Line of upper level `u` holding the LLC line's block (its holder bit
  /// must be set).
  [[nodiscard]] std::uint32_t upperLine(std::uint32_t llcLine, std::uint32_t u) const {
    EC_DCHECK_MSG((holders_[llcLine] >> u & 1) != 0, "upper level does not hold the block");
    return upperLine_[static_cast<std::size_t>(llcLine) * llcLevel() + u];
  }
  [[nodiscard]] bool dirtyAnywhereLine(std::uint32_t llcLine) const {
    return levels_.back().dirty(llcLine) || dirtyHolders_[llcLine] != 0;
  }
  /// Drop every copy of the LLC block, writing its value back when any copy
  /// was dirty.
  void evictLlc(std::uint32_t llcLine);
  /// Install `blockAddr`, resident in the LLC at `llcLine`, in the invalid
  /// `line` of upper level `u` (clean, most recently used).
  void installUpper(std::uint32_t u, std::uint32_t line, std::uint64_t blockAddr,
                    std::uint32_t llcLine);
  /// Drop the block in `line` of upper level `u` and its copies at every
  /// level above it, without write-back. When any dropped copy was dirty,
  /// the copy at the level below (level u + 1, or the LLC) becomes dirty:
  /// the block stays dirty anywhere, and its bytes stay in the value image.
  void dropUpper(std::uint32_t u, std::uint32_t line);
  /// A store reached the clean copy in `line` of upper level `u`.
  void markUpperDirty(std::uint32_t u, std::uint32_t line);
  /// A store reached the clean LLC copy (the LLC is the only level).
  void markLlcDirty(std::uint32_t llcLine);
  /// Copy the block from the value image to NVM and count the write.
  void writeBack(std::uint64_t blockAddr);
  /// Clear every dirty bit of the LLC block.
  void clean(std::uint32_t llcLine);
  /// The scalar side of inconsistentBytes(): probe the LLC and every level's
  /// own dirty bit per block (no masks, no dirty list) and compare byte by
  /// byte — the differential oracle. It probes every level's tags and reads
  /// neither the block map nor the holder masks, so it never shares the
  /// structure it checks.
  [[nodiscard]] std::uint64_t diffScalar(std::uint64_t addr, std::uint64_t size) const;
  /// Visit the dirty-anywhere blocks in [first, last] in ascending address
  /// order: fn(blockBase).
  template <typename Fn>
  void forEachDirtyIn(std::uint64_t first, std::uint64_t last, Fn&& fn) const;
  void refreshDirtyList() const;

  static constexpr std::uint32_t kNoLine = ~std::uint32_t{0};

  CacheConfig config_;
  std::uint64_t blockMask_ = 0;  ///< blockSize - 1 (blockSize is power of two)
  std::uint32_t blockShift_ = 0;  ///< log2(blockSize)
  NvmStore& nvm_;
  std::vector<CacheLevel> levels_;  ///< never resized after construction
  NvmStore values_;                 ///< the value image

  std::vector<std::uint64_t> holders_;       ///< per LLC line
  std::vector<std::uint64_t> dirtyHolders_;  ///< per LLC line
  std::vector<std::uint32_t> upperLine_;     ///< LLC lines × upper levels
  std::vector<std::vector<std::uint32_t>> llcLineOf_;  ///< per upper: line → LLC line
  /// Block index (addr >> blockShift_) → LLC line, kNoLine when the block is
  /// cached nowhere. Set on an LLC fill and cleared on an LLC eviction; it
  /// grows only on a fill, and an index past its end reads kNoLine.
  std::vector<std::uint32_t> llcLineOfBlock_;

  // Dirty-anywhere blocks, sorted. Mutable so the const post-mortem paths
  // can rebuild it after the set changed.
  mutable std::vector<std::uint64_t> dirtyList_;
  mutable bool dirtyListStale_ = false;
  // Scratch block: NVM bytes for the scans (blocks NVM does not fully
  // back) and for invalidateAll's copy-back.
  mutable std::vector<std::uint8_t> scanImage_;
  // Mutable so the const inconsistentBytes can record its postmortem_*
  // diagnostics.
  mutable MemEvents events_;
  bool scanFast_ = true;

  // Sampled access profile (enableAccessProfile). profileShift_ == 0 means
  // off; the slow path then skips one well-predicted branch and nothing else.
  std::uint32_t profileShift_ = 0;
  std::vector<std::uint64_t> accessProfile_;
};

}  // namespace easycrash::memsim
