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

#include "easycrash/common/check.hpp"
#include "easycrash/memsim/hierarchy.hpp"
#include "easycrash/memsim/nvm_store.hpp"
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

/// What a run keeps (docs/INTERNALS.md "Runtime protocol"). Set once per
/// Runtime, before the first allocation.
enum class RunKind : std::uint8_t {
  /// Accesses enter the simulated cache hierarchy; the crash clock ticks.
  /// Crashing runs, and golden runs that want MemEvents.
  Tracked,
  /// Accesses read and write the NVM image directly; the crash clock and
  /// the region access counters tick as in a tracked run. Golden runs: their
  /// counts define the crash-point space and the memo stride.
  Direct,
  /// Direct, with no crash clock and no region access counters: the crash
  /// window never opens, so windowAccesses() stays 0, and crashes, captures
  /// and faults cannot be armed. Restarts, which never crash (their
  /// deadline is the parent's SIGKILL) and whose outcome no count feeds.
  Restart,
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
    if (direct()) {
      nvm_.read(addr, dst);
    } else {
      hierarchy_.load(addr, dst);
    }
    onAccess(1);
  }
  void store(std::uint64_t addr, std::span<const std::uint8_t> src) {
    if (direct()) {
      nvm_.poke(addr, src);
    } else {
      hierarchy_.store(addr, src);
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
                 std::uint32_t elemSize) {
    accessRange<false>(addr, dst, elemSize);
  }
  void storeRange(std::uint64_t addr, std::span<const std::uint8_t> src,
                  std::uint32_t elemSize) {
    accessRange<true>(addr, src, elemSize);
  }

  /// Architecturally-current value without counters or cache perturbation:
  /// a read of the value image.
  void peek(std::uint64_t addr, std::span<std::uint8_t> dst) const {
    values().read(addr, dst);
  }
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
  /// A direct run's element access (TrackedArray/TrackedScalar's inline
  /// path): one typed access to the NVM image plus the clock tick, in the
  /// order load()/store() apply them. Only for direct kinds, at an address
  /// inside an allocated object — the image is backed up to the footprint
  /// at every allocation, so no bounds check is needed past the caller's
  /// element-index check.
  template <typename T>
  [[nodiscard, gnu::always_inline]] T directLoad(std::uint64_t addr) {
    const T v = nvm_.loadAt<T>(addr);
    onAccess(1);
    return v;
  }
  template <typename T>
  [[gnu::always_inline]] void directStore(std::uint64_t addr, const T& v) {
    nvm_.storeAt(addr, v);
    onAccess(1);
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
  /// (the paper triggers crashes during the main computation loop). A
  /// restart-kind runtime keeps the window shut.
  void setCrashWindow(bool active) {
    crashWindowActive_ = active && kind_ != RunKind::Restart;
  }
  [[nodiscard]] std::uint64_t windowAccesses() const { return windowAccesses_; }

  /// Simulate the power loss itself: drop all cache contents.
  void powerLoss();

  /// Choose the run kind. In the direct kinds, tracked loads/stores bypass
  /// the cache simulation and read/write the NVM image itself, which is then
  /// the run's value image. Only the iteration bookmark still enters the
  /// caches (stored, then flushed at once), so NVM holds every byte's
  /// current value: every load returns exactly what the simulated hierarchy
  /// would have returned — values, control flow and therefore campaign
  /// results are bit-identical — while the simulation cost of a run
  /// collapses to raw memory traffic, and MemEvents record only the
  /// bookmark's store and the flush instructions. The paper's restarts
  /// execute natively on the machine under study; only the crashing run
  /// (whose cache-vs-NVM divergence is the object of measurement) needs the
  /// hierarchy simulated. A Direct run's crash clock, region counters and
  /// armed crashes/captures/faults behave exactly as a tracked run's; a
  /// Restart run has none of them (RunKind). Set before the first
  /// allocation.
  void setRunKind(RunKind kind);
  /// setRunKind(on ? Direct : Tracked), for callers written against the
  /// two-valued switch (nvbench/probe.cpp).
  void setDirect(bool on) { setRunKind(on ? RunKind::Direct : RunKind::Tracked); }
  /// True in both direct kinds.
  [[nodiscard]] bool direct() const noexcept { return kind_ != RunKind::Tracked; }

  /// The value image (docs/INTERNALS.md "Memory-system invariants"): every
  /// tracked byte's current value — NVM itself in a direct run, the
  /// hierarchy's image in a tracked one.
  [[nodiscard]] memsim::NvmStore& values() {
    return direct() ? nvm_ : hierarchy_.values();
  }
  [[nodiscard]] const memsim::NvmStore& values() const {
    return direct() ? nvm_ : hierarchy_.values();
  }

  /// State digest (docs/INTERNALS.md "Convergence memo"): the value image
  /// is the whole tracked state, so its memsim::NvmStore digest names it,
  /// in direct and tracked runs alike. Armed before setup(), stateDigest()
  /// costs a hash per block written since the last call, for runs that key
  /// many iteration ends; unarmed, it hashes the footprint, and stores pay
  /// nothing. Both give the same value: tracked accesses never reach past
  /// the footprint.
  void armStateDigest() { values().armDigest(); }
  [[nodiscard]] memsim::Digest128 stateDigest() {
    memsim::NvmStore& image = values();
    return image.digestArmed() ? image.digest() : image.digestFromScratch(nextAddr_);
  }

  /// Bulk fast-path control: when off, loadRange/storeRange lower to the
  /// element-wise accesses they are equivalent to. A reference hook: the
  /// per-trial campaign reference model (tests/reference_campaign.hpp) runs
  /// with it off to prove the equivalence on real workloads, and the
  /// microbenchmarks A/B it.
  void setBulk(bool on) noexcept { bulk_ = on; }
  [[nodiscard]] bool bulk() const noexcept { return bulk_; }

  /// Post-mortem scan fast-path control: when off, inconsistentRate falls
  /// back to the probe-every-level scalar walk. Both
  /// settings are bit-identical (the campaign reference model runs with it
  /// off, and the scan equivalence tests prove it); the state lives on the
  /// hierarchy, not the runtime.
  void setScan(bool on) noexcept { hierarchy_.setScanFastPath(on); }
  [[nodiscard]] bool scan() const noexcept { return hierarchy_.scanFastPath(); }

  // ---- Telemetry ---------------------------------------------------------------

  /// Label this runtime's trace events (crash injections, region spans,
  /// persists) with a run id, e.g. "golden" or "trial:17". The app name is a
  /// sink-wide common field (TraceSink::setCommonField) since one process
  /// studies one app at a time.
  void setTraceRun(std::string run) { traceRun_ = std::move(run); }
  [[nodiscard]] const std::string& traceRun() const { return traceRun_; }

  /// Enable the sampled access/wear profile on the underlying memory system
  /// (flight recorder). No-op in direct mode, where the hierarchy records
  /// nothing by design. Campaigns enable this on the simulated runs only.
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
  /// Crash-clock tick, inline on every tracked access. Outside the crash
  /// window this is one predictable branch. Inside it, the access is charged
  /// to the active region through a cached counter pointer, and a single
  /// compare against nextTrigger_ — the nearest armed fault, capture or
  /// crash — decides whether anything fires.
  void onAccess(std::uint64_t count) {
    if (!crashWindowActive_) return;
    *regionCounter_ += count;
    windowAccesses_ += count;
    if (windowAccesses_ >= nextTrigger_) onTrigger();
  }
  /// The clock reached nextTrigger_: fire the fault, then the captures, then
  /// the crash due at this index.
  void onTrigger();
  void fireCaptures();
  /// nextTrigger_ = the nearest armed trigger (kNever when none); called on
  /// every arm, disarm and fire.
  void updateTrigger();
  /// Point regionCounter_ at the active region's slot; called whenever the
  /// region stack changes or the slot vector grows.
  void updateRegionCounter() {
    regionCounter_ = &regionAccesses_[pointSlot(activeRegion())];
  }

  /// loadRange() or storeRange().
  template <bool kStore>
  void accessRange(std::uint64_t addr, memsim::AccessSpan<kStore> bytes,
                   std::uint32_t elemSize);
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
  /// &regionAccesses_[slot of the active region]; re-pointed on region
  /// enter/exit and whenever regionAccesses_ reallocates.
  std::uint64_t* regionCounter_ = nullptr;

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
  RunKind kind_ = RunKind::Tracked;
  bool bulk_ = true;  ///< route loadRange/storeRange through the fast path

  std::uint64_t windowAccesses_ = 0;
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  /// min(captureNext_, crashAt_, faultAt_) over the armed ones, kNever when
  /// none is armed: the one value the per-access clock compares against.
  std::uint64_t nextTrigger_ = kNever;
  std::uint64_t crashAt_ = 0;  ///< 0 = disarmed
  std::uint64_t faultAt_ = 0;  ///< 0 = disarmed (deterministic fault injection)
  FaultHook faultHook_;

  /// Multi-arm capture state. captureNext_ mirrors captureAt_[captureCursor_]
  /// (kNever when disarmed/exhausted).
  std::vector<std::uint64_t> captureAt_;
  std::size_t captureCursor_ = 0;
  std::uint64_t captureNext_ = kNever;
  CaptureHook captureHook_;
};

}  // namespace easycrash::runtime
