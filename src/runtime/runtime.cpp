#include "easycrash/runtime/runtime.hpp"

#include <algorithm>
#include <exception>

#include "easycrash/common/check.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "easycrash/telemetry/timer.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash::runtime {

namespace {

/// Registry handles resolved once; hot paths hold references.
struct RuntimeMetrics {
  telemetry::Histogram& regionUs;
  telemetry::Histogram& persistUs;
  telemetry::Counter& persistOps;
  telemetry::Counter& crashInjections;

  static RuntimeMetrics& get() {
    static RuntimeMetrics m{
        telemetry::MetricsRegistry::instance().histogram(
            "runtime.region_us",
            telemetry::Histogram::exponentialBounds(1.0, 4.0, 12)),
        telemetry::MetricsRegistry::instance().histogram(
            "runtime.persist_us",
            telemetry::Histogram::exponentialBounds(0.5, 4.0, 12)),
        telemetry::MetricsRegistry::instance().counter("runtime.persistence_ops"),
        telemetry::MetricsRegistry::instance().counter("runtime.crash_injections")};
    return m;
  }
};

}  // namespace

Runtime::Runtime(memsim::CacheConfig config)
    : nvm_(config.blockSize), hierarchy_(std::move(config), nvm_) {
  // Slot 0 (kMainLoopEnd) must exist before any access; region slots are
  // grown by beginRegion() so the per-access increment never bounds-checks.
  growPointSlots(1);
  // Object 0 is the loop-iterator bookmark (paper footnote 3: always
  // persisted; almost zero cost).
  iterObject_ = allocate("__iter", sizeof(int), /*candidate=*/false);
}

void Runtime::growPointSlots(std::size_t minSize) {
  if (regionAccesses_.size() < minSize) {
    regionAccesses_.resize(minSize, 0);
    regionIterationEnds_.resize(minSize, 0);
    pointCounters_.resize(minSize, 0);
    updateRegionCounter();
  }
}

std::map<PointId, std::uint64_t> Runtime::pointMapView(
    const std::vector<std::uint64_t>& counters) {
  std::map<PointId, std::uint64_t> out;
  for (std::size_t slot = 0; slot < counters.size(); ++slot) {
    if (counters[slot] != 0) {
      out.emplace(static_cast<PointId>(slot) - 1, counters[slot]);
    }
  }
  return out;
}

ObjectId Runtime::allocate(std::string name, std::uint64_t bytes, bool candidate,
                           bool readOnly) {
  EC_CHECK_MSG(bytes > 0, "cannot allocate empty data object");
  EC_CHECK_MSG(!findObject(name).has_value(), "duplicate data object name: " + name);
  const std::uint32_t blockSize = hierarchy_.config().blockSize;
  DataObjectInfo info;
  info.id = static_cast<ObjectId>(objects_.size());
  info.name = std::move(name);
  info.addr = nextAddr_;
  info.bytes = bytes;
  info.candidate = candidate;
  info.readOnly = readOnly;
  objects_.push_back(info);
  // Block-align the next allocation so objects never share a cache block
  // (flushing one object must not persist another's bytes).
  nextAddr_ += (bytes + blockSize - 1) / blockSize * blockSize;
  if (direct()) nvm_.back(nextAddr_);
  return info.id;
}

void Runtime::setRunKind(RunKind kind) {
  EC_CHECK_MSG(objects_.size() == 1, "setRunKind after an allocation");
  kind_ = kind;
  if (direct()) nvm_.back(nextAddr_);
}

const DataObjectInfo& Runtime::object(ObjectId id) const {
  EC_CHECK(id < objects_.size());
  return objects_[id];
}

std::optional<ObjectId> Runtime::findObject(const std::string& name) const {
  for (const auto& o : objects_) {
    if (o.name == name) return o.id;
  }
  return std::nullopt;
}

std::vector<ObjectId> Runtime::candidateObjects() const {
  std::vector<ObjectId> ids;
  for (const auto& o : objects_) {
    if (o.candidate) ids.push_back(o.id);
  }
  return ids;
}

void Runtime::onTrigger() {
  const PointId region = activeRegion();
  // An armed fault is process-fatal and must pre-empt captures and the armed
  // crash at the same index on the per-trial AND sweep paths alike, so it is
  // checked before either. The hook normally never returns.
  if (faultAt_ != 0 && windowAccesses_ >= faultAt_) {
    FaultHook hook = std::move(faultHook_);
    faultAt_ = 0;
    faultHook_ = nullptr;
    updateTrigger();
    if (hook) hook();
  }
  // Captures observe the crash point without ending the run, and must fire
  // before the armed crash so a sweep's final index is both captured and
  // crashed on the very same access.
  if (windowAccesses_ >= captureNext_) fireCaptures();
  if (crashAt_ != 0 && windowAccesses_ >= crashAt_) {
    CrashEvent crash;
    crash.accessIndex = windowAccesses_;
    crash.activeRegion = region;
    crash.iteration = bookmarkedIteration();
    crash.regionPath = regionStack_;
    crashAt_ = 0;
    updateTrigger();
    RuntimeMetrics::get().crashInjections.add();
    if (telemetry::tracing()) {
      telemetry::TraceEvent("crash_injected")
          .field("run", traceRun_)
          .field("access_index", crash.accessIndex)
          .field("region", crash.activeRegion)
          .field("iteration", crash.iteration)
          .emit();
    }
    // Deliberately do NOT invalidate the caches here: the campaign first
    // performs the post-mortem inconsistency analysis (comparing cache state
    // against the NVM image, as NVCT does), then calls powerLoss().
    throw crash;
  }
}

void Runtime::updateTrigger() {
  std::uint64_t next = captureNext_;
  if (crashAt_ != 0) next = std::min(next, crashAt_);
  if (faultAt_ != 0) next = std::min(next, faultAt_);
  nextTrigger_ = next;
}

void Runtime::readNvm(std::uint64_t addr, std::span<std::uint8_t> dst) const {
  nvm_.read(addr, dst);
}

template <bool kStore>
void Runtime::accessRange(std::uint64_t addr, memsim::AccessSpan<kStore> bytes,
                          std::uint32_t elemSize) {
  const char* op = kStore ? "storeRange" : "loadRange";
  EC_CHECK_MSG(elemSize > 0, std::string(op) + ": zero element size");
  EC_CHECK_MSG(bytes.size() % elemSize == 0,
               std::string(op) + ": span is not a whole number of elements");
  if (bytes.empty()) return;
  if (!bulk_) {
    for (std::uint64_t off = 0; off < bytes.size(); off += elemSize) {
      if constexpr (kStore) {
        store(addr + off, bytes.subspan(off, elemSize));
      } else {
        load(addr + off, bytes.subspan(off, elemSize));
      }
    }
    return;
  }
  // Each chunk is clamped so the next armed fault/capture/crash index is its
  // LAST element: the chunk's bytes are applied first, then onAccess(n)
  // fires the hook / throws CrashEvent at exactly the element-wise window
  // index with exactly the element-wise memory state. After a capture
  // fires, the next trigger has advanced, so the next chunk re-clamps.
  const std::uint64_t count = bytes.size() / elemSize;
  for (std::uint64_t done = 0; done < count;) {
    std::uint64_t n = count - done;
    // An armed trigger is strictly ahead of the clock (arming checks it,
    // firing advances past it), so the clamped chunk is never empty.
    if (crashWindowActive_ && nextTrigger_ != kNever) {
      n = std::min(n, nextTrigger_ - windowAccesses_);
    }
    const auto part = bytes.subspan(done * elemSize, n * elemSize);
    if (direct()) {
      nvm_.move<kStore>(addr + done * elemSize, part);
    } else {
      hierarchy_.accessRange<kStore>(addr + done * elemSize, part, elemSize);
    }
    onAccess(n);
    done += n;
  }
}
template void Runtime::accessRange<false>(std::uint64_t, memsim::AccessSpan<false>,
                                          std::uint32_t);
template void Runtime::accessRange<true>(std::uint64_t, memsim::AccessSpan<true>,
                                         std::uint32_t);

void Runtime::persistObject(ObjectId id, memsim::FlushKind kind) {
  const DataObjectInfo& info = object(id);
  hierarchy_.flushRange(info.addr, info.bytes, kind);
}

void Runtime::restoreObject(ObjectId id, std::span<const std::uint8_t> bytes) {
  const DataObjectInfo& info = object(id);
  EC_CHECK_MSG(bytes.size() == info.bytes, "restore size mismatch for " + info.name);
  if (direct()) {
    nvm_.poke(info.addr, bytes);
  } else {
    hierarchy_.store(info.addr, bytes);
  }
}

std::vector<std::uint8_t> Runtime::dumpObjectNvm(ObjectId id) const {
  const DataObjectInfo& info = object(id);
  std::vector<std::uint8_t> out(info.bytes);
  nvm_.read(info.addr, out);
  return out;
}

std::vector<std::uint8_t> Runtime::dumpObjectCurrent(ObjectId id) const {
  const DataObjectInfo& info = object(id);
  std::vector<std::uint8_t> out(info.bytes);
  peek(info.addr, out);
  return out;
}

double Runtime::inconsistentRate(ObjectId id) const {
  const DataObjectInfo& info = object(id);
  const std::uint64_t bad = hierarchy_.inconsistentBytes(info.addr, info.bytes);
  return static_cast<double>(bad) / static_cast<double>(info.bytes);
}

void Runtime::beginRegion(PointId region) {
  EC_CHECK(region >= 0);
  growPointSlots(pointSlot(region) + 1);
  regionStack_.push_back(region);
  updateRegionCounter();
  RegionSpan span;
  span.startNs = telemetry::nowNs();
  span.traced = telemetry::tracing();
  if (span.traced) {
    span.snapshot = hierarchy_.events();
    telemetry::TraceEvent("region_enter")
        .field("run", traceRun_)
        .field("region", region)
        .field("depth", static_cast<std::uint64_t>(regionStack_.size()))
        .emit();
  }
  regionSpans_.push_back(std::move(span));
}

void Runtime::endRegion(PointId region) {
  EC_CHECK_MSG(!regionStack_.empty() && regionStack_.back() == region,
               "unbalanced region markers");
  // When an exception unwinds through the region scopes, remember the stack
  // as the first (innermost) scope saw it: that is the throw site, and the
  // live stack will be empty by the time a harness-level catch can look.
  const int unwinding = std::uncaught_exceptions();
  if (unwinding == 0) {
    unwindSeen_ = 0;
  } else if (unwinding != unwindSeen_) {
    unwindSeen_ = unwinding;
    unwindPath_ = regionStack_;
  }
  regionStack_.pop_back();
  updateRegionCounter();
  const RegionSpan span = regionSpans_.back();
  regionSpans_.pop_back();
  RuntimeMetrics::get().regionUs.observe(
      static_cast<double>(telemetry::nowNs() - span.startNs) / 1000.0);
  if (span.traced && telemetry::tracing()) {
    // Per-region MemEvents delta: the memory-system cost of this activation.
    const memsim::MemEvents d = hierarchy_.events().delta(span.snapshot);
    telemetry::TraceEvent("region_exit")
        .field("run", traceRun_)
        .field("region", region)
        .field("loads", d.loads)
        .field("stores", d.stores)
        .field("nvm_block_writes", d.nvmBlockWrites)
        .field("flushes", d.totalFlushes())
        .field("duration_ns", telemetry::nowNs() - span.startNs)
        .emit();
  }
  const auto it = plan_.points.find(region);
  if (it != plan_.points.end() && it->second.atRegionEnd) {
    executeDirective(it->second, region);
  }
}

void Runtime::regionIterationEnd(PointId region) {
  EC_CHECK_MSG(!regionStack_.empty() && regionStack_.back() == region,
               "iteration end outside its region");
  ++regionIterationEnds_[pointSlot(region)];
  const auto it = plan_.points.find(region);
  if (it == plan_.points.end() || it->second.everyN == 0) return;
  if (++pointCounters_[pointSlot(region)] % it->second.everyN == 0) {
    executeDirective(it->second, region);
  }
}

void Runtime::mainLoopIterationEnd(int iteration) {
  bookmarkIteration(iteration);
  ++regionIterationEnds_[pointSlot(kMainLoopEnd)];
  const auto it = plan_.points.find(kMainLoopEnd);
  if (it == plan_.points.end() || it->second.everyN == 0) return;
  if (++pointCounters_[pointSlot(kMainLoopEnd)] % it->second.everyN == 0) {
    executeDirective(it->second, kMainLoopEnd);
  }
}

void Runtime::bookmarkIteration(int iteration) {
  const DataObjectInfo& info = object(iterObject_);
  hierarchy_.store(info.addr,
                   {reinterpret_cast<const std::uint8_t*>(&iteration), sizeof(int)});
  hierarchy_.flushRange(info.addr, info.bytes, plan_.flushKind);
}

int Runtime::bookmarkedIteration() const {
  return peekValue<int>(object(iterObject_).addr);
}

int Runtime::bookmarkedIterationNvm() const {
  int v = 0;
  nvm_.read(object(iterObject_).addr, {reinterpret_cast<std::uint8_t*>(&v), sizeof(int)});
  return v;
}

PointId Runtime::activeRegion() const {
  return regionStack_.empty() ? kMainLoopEnd : regionStack_.back();
}

void Runtime::setPlan(PersistencePlan plan) {
  plan_ = std::move(plan);
  std::fill(pointCounters_.begin(), pointCounters_.end(), 0);
}

void Runtime::executeDirective(const PersistDirective& directive, PointId point) {
  const bool trace = telemetry::tracing();
  const memsim::MemEvents before = trace ? hierarchy_.events() : memsim::MemEvents{};
  {
    telemetry::ScopedTimer timer(RuntimeMetrics::get().persistUs);
    for (ObjectId id : directive.objects) {
      persistObject(id, plan_.flushKind);
    }
  }
  ++persistenceOps_;
  RuntimeMetrics::get().persistOps.add();
  if (trace) {
    const memsim::MemEvents d = hierarchy_.events().delta(before);
    telemetry::TraceEvent("persist")
        .field("run", traceRun_)
        .field("point", point)
        .field("objects", static_cast<std::uint64_t>(directive.objects.size()))
        .field("nvm_writes", d.nvmBlockWrites)
        .field("flush_dirty", d.flushDirty)
        .field("flush_clean", d.flushClean)
        .emit();
  }
}

void Runtime::powerLoss() {
  hierarchy_.invalidateAll();
  if (telemetry::tracing()) {
    telemetry::TraceEvent("power_loss").field("run", traceRun_).emit();
  }
}

void Runtime::armCrash(std::uint64_t accessIndex) {
  EC_CHECK_MSG(kind_ != RunKind::Restart, "armCrash on a restart-kind runtime");
  EC_CHECK_MSG(accessIndex > 0, "crash index is 1-based");
  EC_CHECK_MSG(accessIndex > windowAccesses_, "crash point already passed");
  crashAt_ = accessIndex;
  updateTrigger();
}

void Runtime::disarmCrash() {
  crashAt_ = 0;
  updateTrigger();
}

void Runtime::armCaptures(std::vector<std::uint64_t> indices, CaptureHook hook) {
  EC_CHECK_MSG(kind_ != RunKind::Restart, "armCaptures on a restart-kind runtime");
  EC_CHECK_MSG(!indices.empty(), "armCaptures needs at least one index");
  EC_CHECK_MSG(static_cast<bool>(hook), "armCaptures needs a hook");
  EC_CHECK_MSG(indices.front() > windowAccesses_, "capture point already passed");
  EC_CHECK_MSG(std::is_sorted(indices.begin(), indices.end()) &&
                   std::adjacent_find(indices.begin(), indices.end()) == indices.end(),
               "capture indices must be strictly increasing");
  captureAt_ = std::move(indices);
  captureCursor_ = 0;
  captureNext_ = captureAt_.front();
  captureHook_ = std::move(hook);
  updateTrigger();
}

void Runtime::armFault(std::uint64_t accessIndex, FaultHook hook) {
  EC_CHECK_MSG(kind_ != RunKind::Restart, "armFault on a restart-kind runtime");
  EC_CHECK_MSG(accessIndex > 0, "fault index is 1-based");
  EC_CHECK_MSG(accessIndex > windowAccesses_, "fault point already passed");
  EC_CHECK_MSG(static_cast<bool>(hook), "armFault needs a hook");
  faultAt_ = accessIndex;
  faultHook_ = std::move(hook);
  updateTrigger();
}

void Runtime::disarmCaptures() {
  captureAt_.clear();
  captureCursor_ = 0;
  captureNext_ = kNever;
  captureHook_ = nullptr;
  updateTrigger();
}

void Runtime::fireCaptures() {
  while (captureCursor_ < captureAt_.size() &&
         windowAccesses_ >= captureAt_[captureCursor_]) {
    CrashEvent at;
    at.accessIndex = windowAccesses_;
    at.activeRegion = activeRegion();
    at.iteration = bookmarkedIteration();
    at.regionPath = regionStack_;
    // Advance before invoking: the hook may throw to abort the run, and a
    // re-entered fireCaptures must not replay this index.
    ++captureCursor_;
    captureNext_ =
        captureCursor_ < captureAt_.size() ? captureAt_[captureCursor_] : kNever;
    updateTrigger();
    captureHook_(at);
  }
}

void Runtime::enableProfile() {
  // Direct-mode runs bypass the hierarchy and record nothing by design, so
  // there is no profile to collect (campaign restarts stay free).
  if (direct()) return;
  hierarchy_.enableAccessProfile();
  nvm_.enableWearProfile();
}

bool Runtime::profiling() const { return hierarchy_.accessProfiling(); }

std::vector<ObjectProfile> Runtime::objectProfiles(std::size_t bins) const {
  std::vector<ObjectProfile> profiles;
  if (!hierarchy_.accessProfiling()) return profiles;
  const std::vector<std::uint64_t>& touches = hierarchy_.accessProfile();
  const std::vector<std::uint64_t>& wear = nvm_.wearProfile();
  const std::uint64_t stride = hierarchy_.accessProfileStride();
  const std::uint64_t blockSize = nvm_.blockSize();

  // Fold a flat per-bucket counter vector onto one object's bucket span,
  // accumulating the total and equal-width spatial bins. Objects are
  // block-aligned, so at the default stride (= block size) the attribution
  // is exact; with a coarser stride a boundary bucket is attributed to the
  // object owning its first byte.
  const auto fold = [bins](const std::vector<std::uint64_t>& counters,
                           std::uint64_t firstBucket, std::uint64_t endBucket,
                           std::uint64_t& total, std::vector<std::uint64_t>& out) {
    if (endBucket <= firstBucket) return;
    const std::uint64_t span = endBucket - firstBucket;
    const std::uint64_t binCount =
        std::max<std::uint64_t>(1, std::min<std::uint64_t>(bins, span));
    out.assign(binCount, 0);
    const std::uint64_t cap = std::min<std::uint64_t>(endBucket, counters.size());
    for (std::uint64_t b = firstBucket; b < cap; ++b) {
      const std::uint64_t count = counters[b];
      if (count == 0) continue;
      total += count;
      out[(b - firstBucket) * binCount / span] += count;
    }
  };

  profiles.reserve(objects_.size());
  for (const DataObjectInfo& object : objects_) {
    ObjectProfile profile;
    profile.id = object.id;
    profile.name = object.name;
    profile.bytes = object.bytes;
    const std::uint64_t end = object.addr + object.bytes;
    fold(touches, object.addr / stride, (end + stride - 1) / stride,
         profile.accesses, profile.accessBins);
    fold(wear, object.addr / blockSize, (end + blockSize - 1) / blockSize,
         profile.nvmWrites, profile.wearBins);
    profiles.push_back(std::move(profile));
  }
  return profiles;
}

}  // namespace easycrash::runtime
