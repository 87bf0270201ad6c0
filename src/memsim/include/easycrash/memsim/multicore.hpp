// Multi-core coherent memory system: per-core private caches kept coherent
// with a MESI protocol over a shared, inclusive last-level cache, backed by
// the NVM store.
//
// NVCT simulates a *coherent* cache hierarchy because the paper also runs
// the benchmarks multi-threaded (§4.1; the conclusions match the
// single-thread results it reports). This module provides that substrate:
// value tracking with MESI states, snooping invalidations and
// ownership transfers, per-core event counters, and the same crash/flush
// semantics as the single-core hierarchy — a flush or a crash interacts
// with every cached copy, wherever it lives.
//
// As in CacheHierarchy, the caches hold metadata only: the shared LLC's
// directory (LlcDirectory) names the cores caching each block, and one flat
// value image holds every byte's current value. MESI allows one writer at a
// time and invalidates every other copy before a write, so that image is
// the coherent value every core observes.
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

struct MulticoreConfig {
  int cores = 4;
  CacheGeometry privateCache{8ULL * 1024, 8};  ///< per-core L1
  CacheGeometry sharedLlc{64ULL * 1024, 16};   ///< shared inclusive LLC
  std::uint32_t blockSize = 64;

  void validate() const;
};

/// Per-core and coherence-specific counters.
struct CoherenceEvents {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t privateHits = 0;
  std::uint64_t privateMisses = 0;
  std::uint64_t llcHits = 0;
  std::uint64_t llcMisses = 0;
  std::uint64_t invalidationsSent = 0;     ///< write upgrades invalidating peers
  std::uint64_t ownershipTransfers = 0;    ///< dirty data moved between cores
  std::uint64_t nvmBlockWrites = 0;
  std::uint64_t nvmBlockReads = 0;
  std::uint64_t flushDirty = 0;
  std::uint64_t flushClean = 0;
  std::uint64_t flushNonResident = 0;
};

class MulticoreSystem {
 public:
  MulticoreSystem(MulticoreConfig config, NvmStore& nvm);

  MulticoreSystem(const MulticoreSystem&) = delete;
  MulticoreSystem& operator=(const MulticoreSystem&) = delete;

  /// Load/store issued by one core. MESI: a store invalidates every other
  /// core's copy; a load of another core's Modified line transfers the data.
  void load(int core, std::uint64_t addr, std::span<std::uint8_t> dst);
  void store(int core, std::uint64_t addr, std::span<const std::uint8_t> src);

  /// Bulk range access (the multicore mirror of CacheHierarchy::loadRange/
  /// storeRange): one coherence acquire per block touched, with the
  /// per-element counters reconstructed so CoherenceEvents are identical to
  /// issuing the same range as ascending element-wise accesses of width
  /// `elemSize` — each block's first element pays the acquire, the rest are
  /// private hits.
  void loadRange(int core, std::uint64_t addr, std::span<std::uint8_t> dst,
                 std::uint32_t elemSize);
  void storeRange(int core, std::uint64_t addr, std::span<const std::uint8_t> src,
                  std::uint32_t elemSize);

  /// Flush the block wherever it is cached (any core, the LLC): write the
  /// freshest copy to NVM; Clwb keeps copies resident, others invalidate.
  void flushBlock(std::uint64_t addr, FlushKind kind) { flushRange(addr, 1, kind); }
  void flushRange(std::uint64_t addr, std::uint64_t size, FlushKind kind);

  /// Architecturally-current value, read from the value image.
  void peek(std::uint64_t addr, std::span<std::uint8_t> dst) const {
    dir_.values().read(addr, dst);
  }

  /// Bytes in [addr, addr+size) whose freshest cached value differs from
  /// the NVM image (same definition as the single-core hierarchy). The fast
  /// path compares only the dirty-anywhere blocks the LLC enumerates, with
  /// the vectorized scan kernel; setScanFastPath(false) restores the
  /// probe-every-cache byte loop.
  [[nodiscard]] std::uint64_t inconsistentBytes(std::uint64_t addr,
                                                std::uint64_t size) const;

  /// Post-mortem scan fast-path control — same contract as
  /// CacheHierarchy::setScanFastPath: both settings are bit-identical, off
  /// is the differential oracle.
  void setScanFastPath(bool on) noexcept { scanFast_ = on; }
  [[nodiscard]] bool scanFastPath() const noexcept { return scanFast_; }

  /// Number of blocks dirty in some private cache or the LLC, and whether
  /// one block is.
  [[nodiscard]] std::size_t dirtyBlockCount() const { return dir_.dirtyBlockCount(); }
  [[nodiscard]] bool dirtyAnywhere(std::uint64_t blockAddr) const {
    return dir_.dirtyAnywhereBlock(blockBase(blockAddr));
  }

  /// Power loss: every cache on every core is gone.
  void invalidateAll();
  /// Write back all dirty state (checkpoint semantics).
  void drainAll();

  [[nodiscard]] const CoherenceEvents& coreEvents(int core) const;
  [[nodiscard]] CoherenceEvents totalEvents() const;
  [[nodiscard]] int cores() const { return static_cast<int>(private_.size()); }

  /// Coherence invariant check: every private line present in the inclusive
  /// LLC and linked from it; a Modified copy is the block's only private
  /// copy; the value image equals NVM in every block dirty nowhere.
  void checkInvariants() const;

 private:
  [[nodiscard]] std::uint64_t blockBase(std::uint64_t addr) const {
    return addr & ~static_cast<std::uint64_t>(config_.blockSize - 1);
  }

  /// Make `blockAddr` usable by `core` (exclusive if `forWrite`); returns
  /// the private-cache line index.
  std::uint32_t acquire(int core, std::uint64_t blockAddr, bool forWrite);
  /// The block walk behind every access: for each block of
  /// [addr, addr+bytes.size()) in ascending order, acquire it for `core`,
  /// then move its bytes and count one micro-access per `elemSize`-byte
  /// element overlapping it.
  template <bool kStore>
  void walk(int core, std::uint64_t addr, AccessSpan<kStore> bytes, std::uint64_t elemSize);

  MulticoreConfig config_;
  NvmStore& nvm_;
  std::vector<CacheLevel> private_;  // one per core, never resized
  CacheLevel llc_;
  LlcDirectory dir_;
  std::vector<CoherenceEvents> events_;
  bool scanFast_ = true;
};

}  // namespace easycrash::memsim
