// The tracked-memory runtime: EasyCrash's substitute for PIN instrumentation.
//
// Applications allocate data objects here and perform all loads/stores of
// those objects through the Runtime, which routes them into the simulated
// cache hierarchy + NVM store, counts dynamic accesses (the crash-point
// clock), tracks the active code region, and executes the persistence plan
// (cache_block_flush calls) at region/main-loop persist points.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "easycrash/memsim/hierarchy.hpp"
#include "easycrash/memsim/nvm_store.hpp"
#include "easycrash/memsim/region_monitor.hpp"
#include "easycrash/runtime/data_object.hpp"
#include "easycrash/runtime/persistence_plan.hpp"

namespace easycrash::runtime {

/// Thrown when the armed crash point is reached. Models power loss /
/// processor failure: everything in the caches is gone, the NVM image stays.
struct CrashEvent {
  std::uint64_t accessIndex = 0;  ///< dynamic access index at which we crashed
  PointId activeRegion = kMainLoopEnd;  ///< innermost region, or kMainLoopEnd
  int iteration = 0;                    ///< main-loop iteration of the crash
  /// Full region stack at the crash instant, outermost first — the analogue
  /// of NVCT's CCTLib call-path information (paper §3): it distinguishes
  /// crash tests that stop in the same statement under different contexts.
  std::vector<PointId> regionPath;
};

/// Thrown by applications when corrupted state makes continued execution
/// impossible (the simulated analogue of a segmentation fault — paper
/// response class S3 "Interruption").
struct AppInterrupt {
  std::string reason;
};

class Runtime {
 public:
  explicit Runtime(memsim::CacheConfig config = memsim::CacheConfig::scaledDefault());

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // ---- Data object registry -------------------------------------------------

  /// Allocate a data object of `bytes` bytes, block-aligned.
  ObjectId allocate(std::string name, std::uint64_t bytes, bool candidate,
                    bool readOnly = false);

  [[nodiscard]] const DataObjectInfo& object(ObjectId id) const;
  [[nodiscard]] std::optional<ObjectId> findObject(const std::string& name) const;
  [[nodiscard]] const std::vector<DataObjectInfo>& objects() const { return objects_; }
  [[nodiscard]] std::vector<ObjectId> candidateObjects() const;
  [[nodiscard]] std::uint64_t footprintBytes() const { return nextAddr_; }

  // ---- Tracked access (the instrumented load/store path) --------------------

  /// Tracked load/store: one simulated access plus one crash-clock tick.
  /// Inline so the memory system's header-level L1 fast path and the
  /// crash-window guard stay visible to the instrumented app's loops.
  void load(std::uint64_t addr, std::span<std::uint8_t> dst) {
    if (direct_) {
      nvm_.read(addr, dst);
    } else if (routesDirect(addr)) {
      nvm_.read(addr, dst);
      hierarchy_.touchRange(addr, dst.size());
    } else {
      hierarchy_.load(addr, dst);
    }
    if (monitor_ != nullptr) {
      monitor_->onRange(addr, static_cast<std::uint32_t>(dst.size()), 1,
                        /*write=*/false);
    }
    onAccess(1);
  }
  void store(std::uint64_t addr, std::span<const std::uint8_t> src) {
    if (direct_) {
      nvm_.poke(addr, src);
    } else if (routesDirect(addr)) {
      nvm_.poke(addr, src);
      hierarchy_.touchRange(addr, src.size());
    } else {
      hierarchy_.store(addr, src);
    }
    if (monitor_ != nullptr) {
      monitor_->onRange(addr, static_cast<std::uint32_t>(src.size()), 1,
                        /*write=*/true);
    }
    onAccess(1);
  }
  /// Bulk tracked access: move a whole span of `dst.size() / elemSize`
  /// logical elements in one call. Observationally identical to issuing the
  /// same range as ascending element-wise load()/store() calls of width
  /// `elemSize` — the crash clock advances by exactly that element count,
  /// region access attribution is unchanged, and armed captures/crashes fire
  /// at the same 1-based window index with the same memory state (each bulk
  /// chunk is clamped so its LAST element is the trigger; the scalar path
  /// also applies the triggering access before its clock tick). With the
  /// bulk fast path disabled (setBulk(false)) these literally lower to the
  /// element-wise loop. The span must be a whole number of elements.
  void loadRange(std::uint64_t addr, std::span<std::uint8_t> dst,
                 std::uint32_t elemSize);
  void storeRange(std::uint64_t addr, std::span<const std::uint8_t> src,
                  std::uint32_t elemSize);

  /// Architecturally-current value without counters or cache perturbation.
  void peek(std::uint64_t addr, std::span<std::uint8_t> dst) const;
  /// Read straight from the NVM image (what survives a crash).
  void readNvm(std::uint64_t addr, std::span<std::uint8_t> dst) const;

  template <typename T>
  [[nodiscard]] T loadValue(std::uint64_t addr) {
    T v{};
    load(addr, {reinterpret_cast<std::uint8_t*>(&v), sizeof(T)});
    return v;
  }
  template <typename T>
  void storeValue(std::uint64_t addr, const T& v) {
    store(addr, {reinterpret_cast<const std::uint8_t*>(&v), sizeof(T)});
  }
  /// Read-modify-write of one value: a tracked load, the mutation, and a
  /// tracked store (two clock ticks, exactly like loadValue + storeValue),
  /// but with the address computed once. Backs TrackedArray::Ref's compound
  /// assignments. Returns the stored value.
  template <typename T, typename Mutator>
  T updateValue(std::uint64_t addr, Mutator&& mutate) {
    T v = loadValue<T>(addr);
    v = mutate(v);
    storeValue(addr, v);
    return v;
  }
  template <typename T>
  [[nodiscard]] T peekValue(std::uint64_t addr) const {
    T v{};
    peek(addr, {reinterpret_cast<std::uint8_t*>(&v), sizeof(T)});
    return v;
  }

  // ---- Persistence (paper's cache_block_flush / load_value APIs) ------------

  /// Flush every cache block of an object (paper Figure 2a lines 20-22).
  void persistObject(ObjectId id, memsim::FlushKind kind = memsim::FlushKind::Clflushopt);
  /// Restore an object's bytes by storing `bytes` through the hierarchy
  /// (paper Figure 2b load_value): used on restart.
  void restoreObject(ObjectId id, std::span<const std::uint8_t> bytes);
  /// Snapshot the object's surviving NVM bytes (the post-crash dump file).
  [[nodiscard]] std::vector<std::uint8_t> dumpObjectNvm(ObjectId id) const;
  /// Snapshot the object's architecturally-current bytes (coherent snapshot,
  /// used by the physical-machine "verified" methodology of Figure 6).
  [[nodiscard]] std::vector<std::uint8_t> dumpObjectCurrent(ObjectId id) const;

  /// Inconsistency rate of an object: differing-dirty bytes / object size.
  [[nodiscard]] double inconsistentRate(ObjectId id) const;

  // ---- Region & main-loop structure -----------------------------------------

  void beginRegion(PointId region);
  void endRegion(PointId region);
  /// End of one iteration of the region's inner loop: persist point.
  void regionIterationEnd(PointId region);
  /// End of one main-loop iteration: persist point + iterator bookmark flush.
  void mainLoopIterationEnd(int iteration);
  /// Record the current main-loop iteration (bookmark object, always
  /// persisted — paper footnote 3).
  void bookmarkIteration(int iteration);
  [[nodiscard]] int bookmarkedIteration() const;
  /// Iteration bookmark surviving in NVM (what a restart would see).
  [[nodiscard]] int bookmarkedIterationNvm() const;

  [[nodiscard]] PointId activeRegion() const;
  [[nodiscard]] std::uint32_t regionCount() const { return regionCount_; }
  /// Declared by the application during setup (Table 1 "# of code regions").
  void declareRegionCount(std::uint32_t count) { regionCount_ = count; }

  /// Dynamic accesses attributed to each region during the crash window
  /// (region kMainLoopEnd collects accesses outside any region). Used to
  /// compute the paper's a_k time ratios. The hot-path counter is a flat
  /// vector indexed by point slot; this materialises the historical map view
  /// (keys present iff the region was ever charged an access).
  [[nodiscard]] std::map<PointId, std::uint64_t> regionAccesses() const {
    return pointMapView(regionAccesses_);
  }

  /// Number of iteration-end persist points reached per region (and per
  /// main loop, keyed kMainLoopEnd) — the denominator of the paper's
  /// flush-frequency model (Equation 5).
  [[nodiscard]] std::map<PointId, std::uint64_t> regionIterationEnds() const {
    return pointMapView(regionIterationEnds_);
  }

  // ---- Persistence plan ------------------------------------------------------

  void setPlan(PersistencePlan plan);
  [[nodiscard]] const PersistencePlan& plan() const { return plan_; }
  /// Number of executed persistence operations (Table 4 column 3).
  [[nodiscard]] std::uint64_t persistenceOps() const { return persistenceOps_; }

  // ---- Crash injection --------------------------------------------------------

  /// Arm a crash at the `accessIndex`-th tracked access inside the crash
  /// window (1-based). Throws CrashEvent from the access that reaches it.
  void armCrash(std::uint64_t accessIndex);
  void disarmCrash();

  /// Observes one would-be crash point without crashing: receives exactly the
  /// context a CrashEvent thrown at that access would carry, then the run
  /// continues. May itself throw to end the run early.
  using CaptureHook = std::function<void(const CrashEvent&)>;
  /// Arm read-only captures at the given 1-based window access indices
  /// (strictly increasing, all beyond the current clock). This is the
  /// multi-arm sibling of armCrash backing the campaign's single-sweep
  /// evaluator: one crashing run visits every pending crash point. The hook
  /// must only use non-perturbing reads (peek/readNvm/dumpObject*/
  /// inconsistentRate/regionPath) so the run it observes stays bit-identical
  /// to an unobserved one. A capture armed at the same index as armCrash
  /// fires before the CrashEvent is thrown.
  void armCaptures(std::vector<std::uint64_t> indices, CaptureHook hook);
  void disarmCaptures();
  /// Arm a deterministic fault at the `accessIndex`-th tracked access
  /// (1-based, strictly ahead of the clock, same clock as armCrash). The hook
  /// runs once, after the access's bytes and clock tick are applied but
  /// before any capture or armed crash at the same index fires — a fault is
  /// process-fatal, so when fault and crash/capture collide the fault must
  /// win identically on the per-trial and sweep paths. The hook is expected
  /// to terminate the process (`nvct --inject`); if it returns, execution
  /// simply continues. Bulk ranges clamp their chunks to the fault index, so
  /// the hook observes exactly the element-wise memory state.
  using FaultHook = std::function<void()>;
  void armFault(std::uint64_t accessIndex, FaultHook hook);
  void disarmFault();
  /// Region stack at this instant, outermost first (what CrashEvent carries
  /// as regionPath). Valid between tracked accesses, e.g. inside a capture
  /// hook or after catching an app exception.
  [[nodiscard]] const std::vector<PointId>& regionPath() const { return regionStack_; }
  /// Region stack at the most recent throw site. RegionScope destructors pop
  /// the live stack during unwinding, so by the time a harness-level catch
  /// observes an escaped exception regionPath() is already empty; this
  /// returns the stack as the innermost unwound scope saw it (falling back
  /// to the live stack when nothing has unwound). Used by the campaign to
  /// name the crash site of a trial that died before its armed crash fired.
  [[nodiscard]] const std::vector<PointId>& throwRegionPath() const {
    return unwindPath_.empty() ? regionStack_ : unwindPath_;
  }
  /// Crash window control: only accesses inside the window tick the clock
  /// (the paper triggers crashes during the main computation loop).
  void setCrashWindow(bool active) {
    crashWindowActive_ = active;
    if (monitor_ != nullptr) monitor_->setWindow(active);
  }
  [[nodiscard]] std::uint64_t windowAccesses() const { return windowAccesses_; }

  /// Simulate the power loss itself: drop all cache contents.
  void powerLoss();

  /// Direct-access mode: tracked loads/stores bypass the cache simulation
  /// and read/write the NVM image itself. With the caches never populated,
  /// the NVM image IS the architectural state, so every load returns exactly
  /// what the simulated hierarchy would have returned — values, control flow
  /// and therefore campaign results are bit-identical — while the simulation
  /// cost of a run collapses to raw memory traffic. Restarts run in this
  /// mode: the paper's restarts execute natively on the machine under study;
  /// only the crashing run (whose cache-vs-NVM divergence is the object of
  /// measurement) needs the hierarchy simulated. Crash-clock ticks and armed
  /// crashes/captures behave identically in both modes; MemEvents and NVM
  /// wear counters record (by design) nothing.
  void setDirect(bool on) noexcept { direct_ = on; }
  [[nodiscard]] bool direct() const noexcept { return direct_; }

  /// Bulk fast-path control: when off, loadRange/storeRange lower to the
  /// element-wise accesses they are equivalent to. A reference hook: the
  /// per-trial campaign reference model (tests/reference_campaign.hpp) runs
  /// with it off to prove the equivalence on real workloads, and the
  /// microbenchmarks A/B it.
  void setBulk(bool on) noexcept { bulk_ = on; }
  [[nodiscard]] bool bulk() const noexcept { return bulk_; }

  /// Post-mortem scan fast-path control: when off, inconsistentRate and the
  /// snapshot dumps fall back to the probe-every-level scalar walk. Both
  /// settings are bit-identical (the campaign reference model runs with it
  /// off, and the scan equivalence tests prove it); the state lives on the
  /// hierarchy, not the runtime.
  void setScan(bool on) noexcept { hierarchy_.setScanFastPath(on); }
  [[nodiscard]] bool scan() const noexcept { return hierarchy_.scanFastPath(); }

  // ---- Adaptive region monitor & demotion routing ----------------------------

  /// Attach a region monitor: every tracked access (setup included) feeds its
  /// countdown sampler; the crash-window flag is mirrored so window totals
  /// line up with the crash clock. Already-allocated objects are attached
  /// immediately, later allocations as they happen. nullptr detaches (the
  /// default — full mode pays one predictable branch per access). The monitor
  /// must outlive the runtime or a later setMonitor(nullptr).
  void setMonitor(memsim::RegionMonitor* monitor);

  /// Demote data objects (by name, effective for objects allocated after the
  /// call — campaigns install the set before app setup): their values route
  /// straight to the NVM image (reads and writes, so the image IS their
  /// architectural state), while the cache hierarchy still simulates their
  /// block residency metadata-only (CacheHierarchy::touchRange) — occupancy,
  /// LRU order and evictions are bit-identical to full tracking, demoted
  /// lines just carry no payload and are never dirty. Tracked candidates
  /// therefore see exactly the cache pressure they would under full
  /// tracking: crash-time inconsistency rates, NVM snapshots and restart
  /// outcomes of sampled-mode campaigns match full mode bit-for-bit, which
  /// is what makes the Spearman selection provably mode-independent. Only
  /// payload work is skipped; demotion never touches candidates (campaign
  /// policy), so no post-mortem scan ever reads a demoted byte.
  void setDemotedNames(std::vector<std::string> names);
  [[nodiscard]] bool objectDemoted(ObjectId id) const { return object(id).demoted; }

  // ---- Telemetry ---------------------------------------------------------------

  /// Label this runtime's trace events (crash injections, region spans,
  /// persists) with a run id, e.g. "golden" or "trial:17". The app name is a
  /// sink-wide common field (TraceSink::setCommonField) since one process
  /// studies one app at a time.
  void setTraceRun(std::string run) { traceRun_ = std::move(run); }
  [[nodiscard]] const std::string& traceRun() const { return traceRun_; }

  /// Enable the sampled access/wear profile on the underlying memory system
  /// (flight recorder). No-op when telemetry is compiled out or in direct
  /// mode, where the hierarchy records nothing by design. Campaigns enable
  /// this on the simulated runs only.
  void enableProfile();
  [[nodiscard]] bool profiling() const;
  /// Fold the memory system's sampled stride counters onto the tracked data
  /// objects (objects are contiguous block-aligned allocations, so this is a
  /// zero-cost-at-access-time range walk). `bins` caps the spatial resolution
  /// per object; objects spanning fewer strides get one bin per stride.
  /// Empty when profiling is off.
  [[nodiscard]] std::vector<ObjectProfile> objectProfiles(std::size_t bins = 16) const;

  // ---- Introspection -----------------------------------------------------------

  [[nodiscard]] memsim::CacheHierarchy& hierarchy() { return hierarchy_; }
  [[nodiscard]] const memsim::CacheHierarchy& hierarchy() const { return hierarchy_; }
  [[nodiscard]] memsim::NvmStore& nvm() { return nvm_; }
  [[nodiscard]] const memsim::MemEvents& events() const { return hierarchy_.events(); }

 private:
  /// Crash-clock tick. Outside the crash window this is a single predictable
  /// branch; inside it the out-of-line slow path handles counting, captures,
  /// fault and crash injection.
  void onAccess(std::uint64_t count) {
    if (!crashWindowActive_) return;
    onAccessSlow(count);
  }
  void onAccessSlow(std::uint64_t count);
  void fireCaptures();

  /// True when a per-object demotion routes this address straight to NVM.
  /// Objects are block-aligned, so the block-granular bitmap is exact; with
  /// no demotions installed (full mode) this is one predictable branch.
  [[nodiscard]] bool routesDirect(std::uint64_t addr) const {
    if (demotedBits_.empty()) return false;
    const std::uint64_t block = addr >> demotedShift_;
    if ((block >> 6) >= demotedBits_.size()) return false;
    return (demotedBits_[block >> 6] >> (block & 63)) & 1ull;
  }
  void markDemoted(const DataObjectInfo& info);

  /// Drive `count` logical accesses through `access(firstElem, nElems)`
  /// chunks. Each chunk is clamped so the next armed capture/crash index is
  /// the chunk's LAST element: the chunk's bytes are applied first, then
  /// onAccess(n) fires the hook / throws CrashEvent at exactly the
  /// element-wise window index with exactly the element-wise memory state.
  /// After a capture fires, captureNext_ has advanced, so the next loop
  /// iteration re-clamps against the new trigger.
  template <typename AccessFn>
  void forEachRangeChunk(std::uint64_t count, AccessFn&& access) {
    std::uint64_t done = 0;
    while (done < count) {
      std::uint64_t n = count - done;
      if (crashWindowActive_) {
        std::uint64_t next =
            crashAt_ != 0 ? std::min(crashAt_, captureNext_) : captureNext_;
        if (faultAt_ != 0) next = std::min(next, faultAt_);
        if (next != kNoCapture) {
          // Both triggers are strictly ahead of the clock (armCrash checks,
          // fireCaptures advances past fired indices), so toTrigger >= 1.
          const std::uint64_t toTrigger = next - windowAccesses_;
          if (toTrigger < n) n = toTrigger;
        }
      }
      access(done, n);
      onAccess(n);
      done += n;
    }
  }
  void executeDirective(const PersistDirective& directive, PointId point);

  /// Per-point counters are flat vectors indexed by `point + 1` (slot 0 is
  /// kMainLoopEnd), sized by beginRegion() before any hot-path increment —
  /// the per-access path is a single indexed add, no map lookup.
  [[nodiscard]] static std::size_t pointSlot(PointId point) {
    return static_cast<std::size_t>(point + 1);
  }
  void growPointSlots(std::size_t minSize);
  [[nodiscard]] static std::map<PointId, std::uint64_t> pointMapView(
      const std::vector<std::uint64_t>& counters);

  memsim::NvmStore nvm_;
  memsim::CacheHierarchy hierarchy_;

  std::vector<DataObjectInfo> objects_;
  std::uint64_t nextAddr_ = 0;

  PersistencePlan plan_;
  std::vector<std::uint64_t> pointCounters_;
  std::vector<std::uint64_t> regionIterationEnds_;
  std::uint64_t persistenceOps_ = 0;

  std::vector<PointId> regionStack_;
  /// Throw-site snapshot for throwRegionPath(): the region stack when the
  /// current exception's unwind first passed endRegion, keyed by the
  /// std::uncaught_exceptions() depth that recorded it.
  std::vector<PointId> unwindPath_;
  int unwindSeen_ = 0;
  std::uint32_t regionCount_ = 0;
  std::vector<std::uint64_t> regionAccesses_;

  /// Telemetry bookkeeping parallel to regionStack_: entry wall-clock and
  /// (when tracing) the MemEvents snapshot used for the per-region delta.
  struct RegionSpan {
    std::uint64_t startNs = 0;
    bool traced = false;
    memsim::MemEvents snapshot;
  };
  std::vector<RegionSpan> regionSpans_;
  std::string traceRun_;

  ObjectId iterObject_ = 0;  ///< the always-persisted loop-iterator bookmark

  bool crashWindowActive_ = false;
  bool direct_ = false;  ///< bypass the hierarchy, touch NVM bytes directly
  bool bulk_ = true;     ///< route loadRange/storeRange through the fast path

  /// Adaptive region monitor (sampled monitoring pre-pass) and the demoted
  /// routing bitmap (sampled crashing runs). Empty/null in full mode.
  memsim::RegionMonitor* monitor_ = nullptr;
  std::vector<std::string> demotedNames_;
  std::vector<std::uint64_t> demotedBits_;  ///< one bit per block
  std::uint32_t demotedShift_ = 0;          ///< log2(blockSize)
  std::uint64_t windowAccesses_ = 0;
  std::uint64_t crashAt_ = 0;  ///< 0 = disarmed
  std::uint64_t faultAt_ = 0;  ///< 0 = disarmed (deterministic fault injection)
  FaultHook faultHook_;

  /// Multi-arm capture state. captureNext_ mirrors captureAt_[captureCursor_]
  /// (kNoCapture when disarmed/exhausted) so the per-access check in
  /// onAccessSlow stays a single compare against a resident value.
  static constexpr std::uint64_t kNoCapture = ~std::uint64_t{0};
  std::vector<std::uint64_t> captureAt_;
  std::size_t captureCursor_ = 0;
  std::uint64_t captureNext_ = kNoCapture;
  CaptureHook captureHook_;
};

}  // namespace easycrash::runtime
