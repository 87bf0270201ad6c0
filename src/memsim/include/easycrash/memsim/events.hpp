// Event counters exposed by the memory-system simulation.
//
// Everything the performance and write-count models (perfmodel/) consume is
// derived from these counters, so they are the single source of truth for
// Table 4 and Figures 7, 8 and 9.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>

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
  [[nodiscard]] MemEvents delta(const MemEvents& earlier) const;
};

/// The scalar counters with their `memsim.*` metric names (--metrics-out):
/// one row per counter drives MemEvents::delta and the campaign's registry
/// mirror.
inline constexpr std::array<std::pair<std::uint64_t MemEvents::*, const char*>, 14>
    kMemEventCounters{{
        {&MemEvents::loads, "memsim.loads"},
        {&MemEvents::stores, "memsim.stores"},
        {&MemEvents::nvmBlockReads, "memsim.nvmBlockReads"},
        {&MemEvents::nvmBlockWrites, "memsim.nvmBlockWrites"},
        {&MemEvents::flushDirty, "memsim.flushDirty"},
        {&MemEvents::flushClean, "memsim.flushClean"},
        {&MemEvents::flushNonResident, "memsim.flushNonResident"},
        {&MemEvents::flushInducedNvmWrites, "memsim.flushInducedNvmWrites"},
        {&MemEvents::rangeLoads, "memsim.range_loads"},
        {&MemEvents::rangeStores, "memsim.range_stores"},
        {&MemEvents::rangeSplitBlocks, "memsim.range_split_blocks"},
        {&MemEvents::postmortemBlocksSkipped, "memsim.postmortem_blocks_skipped"},
        {&MemEvents::postmortemBlocksCompared, "memsim.postmortem_blocks_compared"},
        {&MemEvents::postmortemBytesCompared, "memsim.postmortem_bytes_compared"},
    }};

inline MemEvents MemEvents::delta(const MemEvents& earlier) const {
  MemEvents d;
  for (std::size_t i = 0; i < kMaxLevels; ++i) {
    EC_DCHECK_MSG(hits[i] >= earlier.hits[i], "MemEvents::delta: hits not monotonic");
    EC_DCHECK_MSG(misses[i] >= earlier.misses[i], "MemEvents::delta: misses not monotonic");
    d.hits[i] = hits[i] - earlier.hits[i];
    d.misses[i] = misses[i] - earlier.misses[i];
  }
  for (const auto& [counter, name] : kMemEventCounters) {
    EC_DCHECK_MSG(this->*counter >= earlier.*counter,
                  std::string("MemEvents::delta: ") + name + " not monotonic");
    d.*counter = this->*counter - earlier.*counter;
  }
  return d;
}

}  // namespace easycrash::memsim
