// Data-object metadata tracked by the runtime.
//
// The paper (§2.2) studies heap and global data objects. Candidates of
// critical data objects are the non-read-only objects whose lifetime is the
// main computation loop (§5.1); everything else is restored by the
// application's own initialisation on restart.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace easycrash::runtime {

using ObjectId = std::uint32_t;

struct DataObjectInfo {
  ObjectId id = 0;
  std::string name;
  std::uint64_t addr = 0;   ///< base address in the simulated address space
  std::uint64_t bytes = 0;  ///< object size in bytes
  /// True when the object qualifies as a candidate critical data object:
  /// lifetime spans the main loop and it is not read-only.
  bool candidate = false;
  /// True for objects never written inside the main loop (restored by
  /// re-initialisation, never persisted).
  bool readOnly = false;
};

/// Per-data-object access/wear profile derived at export time from the memory
/// system's sampled stride counters (Runtime::objectProfiles) — the raw
/// signal for the flight recorder's heatmaps and for future access-aware
/// object selection. Counts are sampled block touches, not raw accesses: the
/// L1-MRU fast path does not feed the profile (docs/OBSERVABILITY.md).
struct ObjectProfile {
  ObjectId id = 0;
  std::string name;
  std::uint64_t bytes = 0;
  std::uint64_t accesses = 0;   ///< sampled block touches in the object's range
  std::uint64_t nvmWrites = 0;  ///< modelled NVM block writes (wear)
  /// Touches/wear folded into equal-width spatial bins across the object.
  std::vector<std::uint64_t> accessBins;
  std::vector<std::uint64_t> wearBins;
};

}  // namespace easycrash::runtime
