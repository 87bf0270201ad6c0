// Event counters exposed by the memory-system simulation.
//
// Everything the performance and write-count models (perfmodel/) consume is
// derived from these counters, so they are the single source of truth for
// Table 4 and Figures 7, 8 and 9.
#pragma once

#include <array>
#include <cstdint>

#include "easycrash/common/check.hpp"

namespace easycrash::memsim {

constexpr std::size_t kMaxLevels = 4;

/// Monotonic counters for one CacheHierarchy.
struct MemEvents {
  std::uint64_t loads = 0;   ///< load micro-accesses (one per block touched)
  std::uint64_t stores = 0;  ///< store micro-accesses

  std::array<std::uint64_t, kMaxLevels> hits{};    ///< per-level hits
  std::array<std::uint64_t, kMaxLevels> misses{};  ///< per-level misses

  std::uint64_t nvmBlockReads = 0;   ///< block fills from NVM (LLC misses)
  std::uint64_t nvmBlockWrites = 0;  ///< dirty block write-backs into NVM

  std::uint64_t flushDirty = 0;        ///< flushes that wrote a dirty block back
  std::uint64_t flushClean = 0;        ///< flushes of resident-but-clean blocks
  std::uint64_t flushNonResident = 0;  ///< flushes of blocks not in any cache

  /// NVM writes caused specifically by flush instructions (subset of
  /// nvmBlockWrites); the remainder are natural LLC evictions.
  std::uint64_t flushInducedNvmWrites = 0;

  /// Diagnostics for the range fast path: bulk loadRange/storeRange calls
  /// and the block segments they were split into. These count *calls*, not
  /// logical accesses — the logical accesses land in loads/stores exactly as
  /// the element-wise path would record them, so every semantic counter
  /// above stays byte-identical across bulk on/off.
  std::uint64_t rangeLoads = 0;
  std::uint64_t rangeStores = 0;
  std::uint64_t rangeSplitBlocks = 0;

  /// Diagnostics for the post-mortem scan fast path (inconsistentBytes with
  /// the LLC dirty list on): blocks skipped because no level held them
  /// dirty, blocks handed to the compare kernel, and the bytes it compared.
  /// Like the range counters these describe *how* the answer was computed,
  /// not the answer itself — they are zero with setScanFastPath(false) and
  /// excluded from the bit-identity equivalence contract.
  std::uint64_t postmortemBlocksSkipped = 0;
  std::uint64_t postmortemBlocksCompared = 0;
  std::uint64_t postmortemBytesCompared = 0;

  [[nodiscard]] std::uint64_t totalFlushes() const {
    return flushDirty + flushClean + flushNonResident;
  }

  /// Counter-wise difference against an earlier snapshot of the same
  /// hierarchy. Counters are monotonic, so every term must be >= its
  /// `earlier` counterpart; a violation means the snapshot came from a
  /// different (or reset) hierarchy and would silently underflow.
  [[nodiscard]] MemEvents delta(const MemEvents& earlier) const {
    EC_DCHECK_MSG(loads >= earlier.loads, "MemEvents::delta: loads not monotonic");
    EC_DCHECK_MSG(stores >= earlier.stores, "MemEvents::delta: stores not monotonic");
    for (std::size_t i = 0; i < kMaxLevels; ++i) {
      EC_DCHECK_MSG(hits[i] >= earlier.hits[i], "MemEvents::delta: hits not monotonic");
      EC_DCHECK_MSG(misses[i] >= earlier.misses[i],
                    "MemEvents::delta: misses not monotonic");
    }
    EC_DCHECK_MSG(nvmBlockReads >= earlier.nvmBlockReads,
                  "MemEvents::delta: nvmBlockReads not monotonic");
    EC_DCHECK_MSG(nvmBlockWrites >= earlier.nvmBlockWrites,
                  "MemEvents::delta: nvmBlockWrites not monotonic");
    EC_DCHECK_MSG(flushDirty >= earlier.flushDirty,
                  "MemEvents::delta: flushDirty not monotonic");
    EC_DCHECK_MSG(flushClean >= earlier.flushClean,
                  "MemEvents::delta: flushClean not monotonic");
    EC_DCHECK_MSG(flushNonResident >= earlier.flushNonResident,
                  "MemEvents::delta: flushNonResident not monotonic");
    EC_DCHECK_MSG(flushInducedNvmWrites >= earlier.flushInducedNvmWrites,
                  "MemEvents::delta: flushInducedNvmWrites not monotonic");
    EC_DCHECK_MSG(rangeLoads >= earlier.rangeLoads,
                  "MemEvents::delta: rangeLoads not monotonic");
    EC_DCHECK_MSG(rangeStores >= earlier.rangeStores,
                  "MemEvents::delta: rangeStores not monotonic");
    EC_DCHECK_MSG(rangeSplitBlocks >= earlier.rangeSplitBlocks,
                  "MemEvents::delta: rangeSplitBlocks not monotonic");
    EC_DCHECK_MSG(postmortemBlocksSkipped >= earlier.postmortemBlocksSkipped,
                  "MemEvents::delta: postmortemBlocksSkipped not monotonic");
    EC_DCHECK_MSG(postmortemBlocksCompared >= earlier.postmortemBlocksCompared,
                  "MemEvents::delta: postmortemBlocksCompared not monotonic");
    EC_DCHECK_MSG(postmortemBytesCompared >= earlier.postmortemBytesCompared,
                  "MemEvents::delta: postmortemBytesCompared not monotonic");
    MemEvents d;
    d.loads = loads - earlier.loads;
    d.stores = stores - earlier.stores;
    for (std::size_t i = 0; i < kMaxLevels; ++i) {
      d.hits[i] = hits[i] - earlier.hits[i];
      d.misses[i] = misses[i] - earlier.misses[i];
    }
    d.nvmBlockReads = nvmBlockReads - earlier.nvmBlockReads;
    d.nvmBlockWrites = nvmBlockWrites - earlier.nvmBlockWrites;
    d.flushDirty = flushDirty - earlier.flushDirty;
    d.flushClean = flushClean - earlier.flushClean;
    d.flushNonResident = flushNonResident - earlier.flushNonResident;
    d.flushInducedNvmWrites = flushInducedNvmWrites - earlier.flushInducedNvmWrites;
    d.rangeLoads = rangeLoads - earlier.rangeLoads;
    d.rangeStores = rangeStores - earlier.rangeStores;
    d.rangeSplitBlocks = rangeSplitBlocks - earlier.rangeSplitBlocks;
    d.postmortemBlocksSkipped = postmortemBlocksSkipped - earlier.postmortemBlocksSkipped;
    d.postmortemBlocksCompared = postmortemBlocksCompared - earlier.postmortemBlocksCompared;
    d.postmortemBytesCompared = postmortemBytesCompared - earlier.postmortemBytesCompared;
    return d;
  }
};

}  // namespace easycrash::memsim
