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
  // Block size is power-of-two-validated by the cache config, so the demoted
  // routing bitmap indexes by shift.
  const std::uint32_t blockSize = hierarchy_.config().blockSize;
  while ((1u << demotedShift_) < blockSize) ++demotedShift_;
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
  if (std::find(demotedNames_.begin(), demotedNames_.end(), info.name) !=
      demotedNames_.end()) {
    info.demoted = true;
    markDemoted(info);
  }
  objects_.push_back(info);
  if (monitor_ != nullptr) {
    monitor_->attach(info.id, info.name, info.addr, info.bytes);
  }
  // Block-align the next allocation so objects never share a cache block
  // (flushing one object must not persist another's bytes).
  nextAddr_ += (bytes + blockSize - 1) / blockSize * blockSize;
  return info.id;
}

void Runtime::setMonitor(memsim::RegionMonitor* monitor) {
  monitor_ = monitor;
  if (monitor_ == nullptr) return;
  monitor_->setWindow(crashWindowActive_);
  for (const auto& object : objects_) {
    monitor_->attach(object.id, object.name, object.addr, object.bytes);
  }
}

void Runtime::setDemotedNames(std::vector<std::string> names) {
  demotedNames_ = std::move(names);
  for (auto& object : objects_) {
    if (object.demoted) continue;
    if (std::find(demotedNames_.begin(), demotedNames_.end(), object.name) ==
        demotedNames_.end()) {
      continue;
    }
    // Only legal before the object has been touched through the hierarchy:
    // campaigns install the set before app setup. A cached block switching
    // to direct routing would leave a stale dirty copy behind.
    object.demoted = true;
    markDemoted(object);
  }
}

void Runtime::markDemoted(const DataObjectInfo& info) {
  const std::uint64_t first = info.addr >> demotedShift_;
  const std::uint64_t last = (info.addr + info.bytes - 1) >> demotedShift_;
  if (demotedBits_.size() <= (last >> 6)) demotedBits_.resize((last >> 6) + 1, 0);
  for (std::uint64_t block = first; block <= last; ++block) {
    demotedBits_[block >> 6] |= 1ull << (block & 63);
  }
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

void Runtime::onAccessSlow(std::uint64_t count) {
  const PointId region = activeRegion();
  regionAccesses_[pointSlot(region)] += count;
  windowAccesses_ += count;
  // An armed fault is process-fatal and must pre-empt captures and the armed
  // crash at the same index on the per-trial AND sweep paths alike, so it is
  // checked before either. The hook normally never returns.
  if (faultAt_ != 0 && windowAccesses_ >= faultAt_) {
    FaultHook hook = std::move(faultHook_);
    faultAt_ = 0;
    faultHook_ = nullptr;
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

void Runtime::peek(std::uint64_t addr, std::span<std::uint8_t> dst) const {
  hierarchy_.peek(addr, dst);
}

void Runtime::readNvm(std::uint64_t addr, std::span<std::uint8_t> dst) const {
  nvm_.read(addr, dst);
}

void Runtime::loadRange(std::uint64_t addr, std::span<std::uint8_t> dst,
                        std::uint32_t elemSize) {
  EC_CHECK_MSG(elemSize > 0, "loadRange: zero element size");
  EC_CHECK_MSG(dst.size() % elemSize == 0,
               "loadRange: span is not a whole number of elements");
  if (dst.empty()) return;
  if (!bulk_) {
    for (std::uint64_t off = 0; off < dst.size(); off += elemSize) {
      load(addr + off, dst.subspan(off, elemSize));
    }
    return;
  }
  // One monitor feed for the whole span: the countdown sampler visits the
  // same logical elements the element-wise path would, so bulk on/off (and
  // any chunking below) produce bit-identical region stats.
  if (monitor_ != nullptr) {
    monitor_->onRange(addr, elemSize, dst.size() / elemSize, /*write=*/false);
  }
  // Objects never share a cache block, so one routing decision covers the
  // whole range (TrackedArray ranges stay inside one object).
  const bool demoted = !direct_ && routesDirect(addr);
  const bool direct = direct_ || demoted;
  forEachRangeChunk(dst.size() / elemSize,
                    [&](std::uint64_t first, std::uint64_t n) {
                      const std::uint64_t byteOff = first * elemSize;
                      const auto part = dst.subspan(byteOff, n * elemSize);
                      if (direct) {
                        nvm_.read(addr + byteOff, part);
                        if (demoted) {
                          hierarchy_.touchRange(addr + byteOff, part.size());
                        }
                      } else {
                        hierarchy_.loadRange(addr + byteOff, part, elemSize);
                      }
                    });
}

void Runtime::storeRange(std::uint64_t addr, std::span<const std::uint8_t> src,
                         std::uint32_t elemSize) {
  EC_CHECK_MSG(elemSize > 0, "storeRange: zero element size");
  EC_CHECK_MSG(src.size() % elemSize == 0,
               "storeRange: span is not a whole number of elements");
  if (src.empty()) return;
  if (!bulk_) {
    for (std::uint64_t off = 0; off < src.size(); off += elemSize) {
      store(addr + off, src.subspan(off, elemSize));
    }
    return;
  }
  if (monitor_ != nullptr) {
    monitor_->onRange(addr, elemSize, src.size() / elemSize, /*write=*/true);
  }
  const bool demoted = !direct_ && routesDirect(addr);
  const bool direct = direct_ || demoted;
  forEachRangeChunk(src.size() / elemSize,
                    [&](std::uint64_t first, std::uint64_t n) {
                      const std::uint64_t byteOff = first * elemSize;
                      const auto part = src.subspan(byteOff, n * elemSize);
                      if (direct) {
                        nvm_.poke(addr + byteOff, part);
                        if (demoted) {
                          hierarchy_.touchRange(addr + byteOff, part.size());
                        }
                      } else {
                        hierarchy_.storeRange(addr + byteOff, part, elemSize);
                      }
                    });
}

void Runtime::persistObject(ObjectId id, memsim::FlushKind kind) {
  const DataObjectInfo& info = object(id);
  hierarchy_.flushRange(info.addr, info.bytes, kind);
}

void Runtime::restoreObject(ObjectId id, std::span<const std::uint8_t> bytes) {
  const DataObjectInfo& info = object(id);
  EC_CHECK_MSG(bytes.size() == info.bytes, "restore size mismatch for " + info.name);
  if (direct_ || info.demoted) {
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
  hierarchy_.peek(info.addr, out);
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
  EC_CHECK_MSG(accessIndex > 0, "crash index is 1-based");
  EC_CHECK_MSG(accessIndex > windowAccesses_, "crash point already passed");
  crashAt_ = accessIndex;
}

void Runtime::disarmCrash() { crashAt_ = 0; }

void Runtime::armCaptures(std::vector<std::uint64_t> indices, CaptureHook hook) {
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
}

void Runtime::armFault(std::uint64_t accessIndex, FaultHook hook) {
  EC_CHECK_MSG(accessIndex > 0, "fault index is 1-based");
  EC_CHECK_MSG(accessIndex > windowAccesses_, "fault point already passed");
  EC_CHECK_MSG(static_cast<bool>(hook), "armFault needs a hook");
  faultAt_ = accessIndex;
  faultHook_ = std::move(hook);
}

void Runtime::disarmFault() {
  faultAt_ = 0;
  faultHook_ = nullptr;
}

void Runtime::disarmCaptures() {
  captureAt_.clear();
  captureCursor_ = 0;
  captureNext_ = kNoCapture;
  captureHook_ = nullptr;
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
        captureCursor_ < captureAt_.size() ? captureAt_[captureCursor_] : kNoCapture;
    captureHook_(at);
  }
}

void Runtime::enableProfile() {
  // Direct-mode runs bypass the hierarchy and record nothing by design, so
  // there is no profile to collect (campaign restarts stay free).
  if (direct_) return;
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
