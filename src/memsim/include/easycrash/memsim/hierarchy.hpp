// Multi-level inclusive write-back cache hierarchy with value tracking,
// backed by an NvmStore. This is the execution substrate every instrumented
// application runs on: all loads/stores of tracked data objects route through
// access(), flush instructions route through flushBlock()/flushRange(), and a
// crash is modelled by invalidateAll() — everything not written back to the
// NvmStore is lost, exactly as on app-direct-mode persistent memory.
//
// The levels hold metadata only (tags, LRU stamps, dirty bits); every
// byte's current value lives in one flat value image (LlcDirectory::values),
// and every L1..L(n-1) line links to its block's LLC line. An access
// therefore moves bytes exactly once — between the caller and the image —
// and fills, evictions and back-invalidations move only metadata; only a
// write-back copies a block, from the image to NVM (see docs/INTERNALS.md
// "Simulator performance").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "easycrash/memsim/cache_level.hpp"
#include "easycrash/memsim/config.hpp"
#include "easycrash/memsim/events.hpp"
#include "easycrash/memsim/llc_directory.hpp"
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
  void load(std::uint64_t addr, std::span<std::uint8_t> dst) {
    const std::uint64_t inBlock = addr & blockMask_;
    if (!dst.empty() && inBlock + dst.size() <= config_.blockSize) {
      const std::int64_t line = levels_[0].mruLineOf(addr - inBlock);
      if (line >= 0) {
        const auto l1 = static_cast<std::uint32_t>(line);
        ++events_.hits[0];
        levels_[0].touch(l1);
        dir_.values().read(addr, dst);
        ++events_.loads;
        return;
      }
    }
    accessSlow<false>(addr, dst);
  }
  /// Store `src.size()` bytes at `addr` through the cache hierarchy.
  void store(std::uint64_t addr, std::span<const std::uint8_t> src) {
    const std::uint64_t inBlock = addr & blockMask_;
    if (!src.empty() && inBlock + src.size() <= config_.blockSize) {
      const std::int64_t line = levels_[0].mruLineOf(addr - inBlock);
      if (line >= 0) {
        const auto l1 = static_cast<std::uint32_t>(line);
        ++events_.hits[0];
        levels_[0].touch(l1);
        dir_.values().poke(addr, src);
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
    dir_.values().read(addr, dst);
  }
  /// The value image: every byte's current value (docs/INTERNALS.md
  /// "Memory-system invariants").
  [[nodiscard]] NvmStore& values() { return dir_.values(); }
  [[nodiscard]] const NvmStore& values() const { return dir_.values(); }

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
  [[nodiscard]] std::size_t dirtyBlockCount() const { return dir_.dirtyBlockCount(); }
  [[nodiscard]] bool dirtyAnywhere(std::uint64_t blockAddr) const {
    return dir_.dirtyAnywhereBlock(blockBase(blockAddr));
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

  /// Internal consistency check (inclusion at every level, the LLC
  /// directory's links and masks, and the value image equal to NVM in every
  /// block dirty nowhere).
  /// Intended for tests; throws std::logic_error on violation.
  void checkInvariants() const;

  /// Enable the sampled access profile: per-stride touch counters fed only by
  /// the out-of-line access paths (ensureInL1), so the header-level L1-MRU
  /// fast path above gains no branch. A "touch" is a block-granular access
  /// that left the fast path — L1 non-MRU hits, misses, and one per block
  /// segment of a range access — a cheap, stable sample of the true access
  /// distribution (flight recorder, docs/OBSERVABILITY.md). `strideBytes` is
  /// rounded up to a power of two and floored at the block size; 0 means one
  /// counter per block. Compiled out under -DEASYCRASH_TELEMETRY=OFF.
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
  [[nodiscard]] std::uint64_t blockBase(std::uint64_t addr) const {
    return addr & ~blockMask_;
  }
  [[nodiscard]] std::size_t llcLevel() const { return levels_.size() - 1; }

  /// First store to a clean L1 line: set its dirty bit (and the LLC's
  /// dirty-holder bit, unless L1 is the LLC).
  void markL1Dirty(std::uint32_t l1) {
    if (levels_.size() == 1) {
      dir_.markLlcDirty(l1);
    } else {
      dir_.markUpperDirty(0, l1);
    }
  }

  /// Move one block segment's bytes between the caller and the value image,
  /// once L1 line `l1` holds the block, and count `touches` micro-accesses.
  template <bool kStore>
  void moveSegment(std::uint32_t l1, std::uint64_t addr, AccessSpan<kStore> bytes,
                   std::uint64_t touches) {
    dir_.values().move<kStore>(addr, bytes);
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

  /// Flush every block overlapping [addr, addr+size) (size > 0) and count
  /// the flushes. Inline, so flushBlock() costs one out-of-line call.
  LlcDirectory::FlushTally flush(std::uint64_t addr, std::uint64_t size, FlushKind kind) {
    const LlcDirectory::FlushTally t = dir_.flush(addr, size, kind != FlushKind::Clwb);
    events_.flushDirty += t.dirty;
    events_.flushClean += t.clean;
    events_.flushNonResident += t.nonResident;
    events_.nvmBlockWrites += t.dirty;
    events_.flushInducedNvmWrites += t.dirty;
    return t;
  }

  /// Make `blockAddr` resident in L1; returns the L1 line index.
  std::uint32_t ensureInL1(std::uint64_t blockAddr);
  /// Miss path of ensureInL1 (kept out of line so the L1-hit fast path stays
  /// small enough to inline into load()/store()).
  std::uint32_t fillToL1(std::uint64_t blockAddr);
  /// Install `blockAddr` (LLC line `llcLine`) at upper level `level`,
  /// evicting that set's victim first; returns the filled line.
  std::uint32_t fillUpper(std::size_t level, std::uint64_t blockAddr,
                          std::uint32_t llcLine);

  CacheConfig config_;
  std::uint64_t blockMask_ = 0;  ///< blockSize - 1 (blockSize is power of two)
  NvmStore& nvm_;
  std::vector<CacheLevel> levels_;  ///< never resized after construction
  LlcDirectory dir_;
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
