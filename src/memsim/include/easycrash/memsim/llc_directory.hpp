// The last-level cache's directory of the inclusive cache hierarchy: which
// upper levels hold each resident block where, plus the run's value image.
//
// The caches keep metadata only. Every byte's current value — what a load
// observes — lives in one flat value image (an NvmStore the directory owns),
// and the NVM store holds what survives a crash. Inclusion means every block
// cached anywhere sits in the LLC, so the LLC line is the natural home for
// everything a block's copies share. The upper caches are the hierarchy's
// L1..L(n-1), numbered 0..n-2, and inclusion nests: a copy at upper level u
// implies copies at every level below it. Per LLC line the directory keeps a
// holder mask (bit u: level u holds the block), a dirty-holder mask (bit u:
// that copy is dirty) and each holder's line index. Each upper line in turn
// records its block's LLC line. With both links, evicting or flushing a
// block reaches every copy without a probe, and fills and evictions move no
// block bytes.
//
// A block is "dirty anywhere" when its LLC line's own dirty bit or any bit
// of its dirty-holder mask is set. The invariant: the value image equals NVM
// in every block that is not dirty anywhere. A write-back — LLC eviction,
// flush, drain — copies a dirty-anywhere block from the value image to NVM,
// and a power loss copies NVM back into the value image for those blocks.
// The post-mortem scan therefore compares only the dirty-anywhere blocks,
// enumerated from the LLC lines in address order (rebuilt lazily after the
// dirty set changed).
#pragma once

#include <cstdint>
#include <vector>

#include "easycrash/common/check.hpp"
#include "easycrash/memsim/cache_level.hpp"
#include "easycrash/memsim/nvm_store.hpp"

namespace easycrash::memsim {

class LlcDirectory {
 public:
  /// `llc` and every `uppers[u]` (level u, L1 first) must outlive the
  /// directory and never move.
  LlcDirectory(CacheLevel& llc, std::vector<CacheLevel*> uppers, NvmStore& nvm,
               std::uint32_t blockSize);

  LlcDirectory(const LlcDirectory&) = delete;
  LlcDirectory& operator=(const LlcDirectory&) = delete;

  // ---- Values and links ------------------------------------------------------

  /// The value image: a load reads it, a store pokes it (uncounted), and a
  /// write-back copies a block of it to NVM.
  [[nodiscard]] NvmStore& values() { return values_; }
  [[nodiscard]] const NvmStore& values() const { return values_; }
  [[nodiscard]] std::uint64_t holders(std::uint32_t llcLine) const {
    return holders_[llcLine];
  }
  /// Line of upper cache `u` holding the block (its holder bit must be set).
  [[nodiscard]] std::uint32_t upperLine(std::uint32_t llcLine, std::uint32_t u) const {
    EC_DCHECK_MSG((holders_[llcLine] >> u & 1) != 0, "upper cache does not hold the block");
    return upperLine_[static_cast<std::size_t>(llcLine) * uppers_.size() + u];
  }
  [[nodiscard]] bool dirtyAnywhere(std::uint32_t llcLine) const {
    return llc_.dirty(llcLine) || dirtyHolders_[llcLine] != 0;
  }

  // ---- Transitions -----------------------------------------------------------

  struct LlcFill {
    std::uint32_t line = 0;
    bool wroteBack = false;  ///< the displaced block was dirty and went to NVM
  };
  /// Make `blockAddr` (absent from the LLC) resident, evicting the set's
  /// victim first: every copy of it is dropped, and its value is written to
  /// NVM when any copy was dirty.
  LlcFill fillLlc(std::uint64_t blockAddr);

  /// Install `blockAddr`, resident in the LLC at `llcLine`, in the invalid
  /// `line` of upper cache `u` (clean, most recently used).
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

  /// What a flush found, per block.
  struct FlushTally {
    std::uint64_t dirty = 0;        ///< written back to NVM
    std::uint64_t clean = 0;        ///< resident, every copy clean
    std::uint64_t nonResident = 0;  ///< cached nowhere
  };
  /// Flush every block overlapping [addr, addr+size) in ascending order:
  /// write its value to NVM if any copy is dirty (every copy is clean
  /// afterwards); with `drop`, remove every copy too.
  FlushTally flush(std::uint64_t addr, std::uint64_t size, bool drop);

  /// Write every dirty-anywhere block to NVM in LLC line order and clean all
  /// copies; lines stay resident. Returns the number of blocks written.
  std::uint64_t drainAll();

  /// Power loss: every cache registered here loses everything, and the value
  /// image takes back NVM's bytes wherever a copy was dirty.
  void invalidateAll();

  // ---- Post-mortem -----------------------------------------------------------

  /// Number of dirty-anywhere blocks.
  [[nodiscard]] std::size_t dirtyBlockCount() const;
  /// Is `blockAddr` resident and dirty anywhere?
  [[nodiscard]] bool dirtyAnywhereBlock(std::uint64_t blockAddr) const {
    const auto line = llc_.find(blockAddr);
    return line.has_value() && dirtyAnywhere(*line);
  }

  struct Diff {
    std::uint64_t bytes = 0;  ///< bytes differing from the NVM image
    /// Fast path only: blocks compared, blocks skipped (dirty nowhere) and
    /// bytes compared.
    std::uint64_t blocksCompared = 0;
    std::uint64_t blocksSkipped = 0;
    std::uint64_t bytesCompared = 0;
  };
  /// Bytes in [addr, addr+size) whose value differs from the NVM image. The
  /// fast path compares only the dirty-anywhere blocks, with the vectorized
  /// scan kernel, and traces a `postmortem_scan` event; `fast` false probes
  /// the LLC and every cache's own dirty bit per block (no masks, no dirty
  /// list) and compares byte by byte — the differential oracle.
  [[nodiscard]] Diff diff(std::uint64_t addr, std::uint64_t size, bool fast) const;

  /// Structural check (tests): every upper line is linked both ways to an
  /// LLC line of the same block, masks mirror the upper caches' valid and
  /// dirty bits, empty LLC lines carry no masks, and the value image equals
  /// NVM in every block dirty nowhere, over the whole image. Throws
  /// std::logic_error on violation.
  void checkInvariants() const;

 private:
  [[nodiscard]] std::uint64_t blockBase(std::uint64_t addr) const {
    return addr & ~static_cast<std::uint64_t>(blockSize_ - 1);
  }
  std::uint32_t& upperLineSlot(std::uint32_t llcLine, std::uint32_t u) {
    return upperLine_[static_cast<std::size_t>(llcLine) * uppers_.size() + u];
  }
  /// Drop every copy of the LLC block, writing its value back when any copy
  /// was dirty; returns whether it wrote.
  bool evictLlc(std::uint32_t llcLine);
  /// Copy the block from the value image to NVM (a counted block write).
  void writeBack(std::uint64_t blockAddr);
  /// Clear every dirty bit of the LLC block.
  void clean(std::uint32_t llcLine);
  /// The scalar side of diff().
  [[nodiscard]] std::uint64_t diffScalar(std::uint64_t addr, std::uint64_t size) const;
  /// Visit the dirty-anywhere blocks in [first, last] in ascending address
  /// order: fn(blockBase).
  template <typename Fn>
  void forEachDirtyIn(std::uint64_t first, std::uint64_t last, Fn&& fn) const;
  void refreshDirtyList() const;

  CacheLevel& llc_;
  std::vector<CacheLevel*> uppers_;
  NvmStore& nvm_;
  std::uint32_t blockSize_;

  NvmStore values_;                               ///< the value image
  std::vector<std::uint64_t> holders_;            ///< per LLC line
  std::vector<std::uint64_t> dirtyHolders_;       ///< per LLC line
  std::vector<std::uint32_t> upperLine_;          ///< LLC lines × uppers
  std::vector<std::vector<std::uint32_t>> llcLineOf_;  ///< per upper: line → LLC line

  // Dirty-anywhere blocks, sorted. Mutable so the const post-mortem paths
  // can rebuild it after the set changed.
  mutable std::vector<std::uint64_t> dirtyList_;
  mutable bool dirtyListStale_ = false;
  // Scratch block: NVM bytes for the scans (blocks NVM does not fully
  // back) and for invalidateAll's copy-back.
  mutable std::vector<std::uint8_t> scanImage_;
};

}  // namespace easycrash::memsim
