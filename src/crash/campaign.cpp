#include "easycrash/crash/campaign.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "easycrash/common/check.hpp"
#include "easycrash/common/rng.hpp"
#include "easycrash/memsim/region_monitor.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/crash/status.hpp"
#include "easycrash/crash/worker_pool.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/telemetry/log.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "easycrash/telemetry/phase_span.hpp"
#include "easycrash/telemetry/progress.hpp"
#include "easycrash/telemetry/timer.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash::crash {

using runtime::CrashEvent;
using runtime::Driver;
using runtime::Runtime;

namespace {

/// Mirrors of the MemEvents counters, accumulated over every run a campaign
/// simulates (golden + each trial's crashing and restart runs). These are
/// the `memsim.*` counters in --metrics-out; their names match the
/// MemEvents fields so a metrics snapshot correlates 1:1 with Table 4.
struct CampaignMetrics {
  telemetry::Counter& loads;
  telemetry::Counter& stores;
  telemetry::Counter& nvmBlockReads;
  telemetry::Counter& nvmBlockWrites;
  telemetry::Counter& flushDirty;
  telemetry::Counter& flushClean;
  telemetry::Counter& flushNonResident;
  telemetry::Counter& flushInducedNvmWrites;
  telemetry::Counter& rangeLoads;
  telemetry::Counter& rangeStores;
  telemetry::Counter& rangeSplitBlocks;
  telemetry::Counter& rangeAccesses;
  telemetry::Counter& postmortemBlocksSkipped;
  telemetry::Counter& postmortemBlocksCompared;
  telemetry::Counter& postmortemBytesCompared;
  /// Adaptive region monitor (sampled mode only; all zero under --monitor
  /// full, so they never feed equivalence comparisons).
  telemetry::Counter& regionSamples;
  telemetry::Counter& regionSplits;
  telemetry::Counter& regionMerges;
  telemetry::Counter& monitorRuns;
  telemetry::Counter& monitorDemotedObjects;
  telemetry::Counter& monitorDemotedBytes;
  telemetry::Counter& monitorTrackedObjects;
  telemetry::Counter& trials;
  std::array<telemetry::Counter*, 4> responses;
  telemetry::Histogram& trialUs;
  telemetry::Counter& trialFailures;
  telemetry::Counter& trialRetries;
  telemetry::Counter& trialTimeouts;
  telemetry::Counter& resumedTrials;
  /// Sharded campaigns (--shard i/k): trials this shard owns out of the
  /// campaign's planned N. Zero when unsharded, so it never feeds
  /// equivalence comparisons.
  telemetry::Counter& shardOwnedTrials;
  telemetry::Counter& sweepRuns;
  telemetry::Counter& sweepCaptures;
  telemetry::Counter& sweepFallbacks;
  /// Restart grouping: trials decided by another trial's restart (hits) and
  /// restarts executed from sweep captures (misses).
  telemetry::Counter& restartMemoHits;
  telemetry::Counter& restartMemoMisses;
  /// Fork evaluator: worker forks (initial + respawns), deaths the campaign
  /// consumed (split kill vs crash/oom/protocol), and respawns alone.
  telemetry::Counter& workerSpawns;
  telemetry::Counter& workerCrashes;
  telemetry::Counter& workerKills;
  telemetry::Counter& workerRespawns;
  /// Backoff slept between trial retries (resilience.retryBackoffMs).
  telemetry::Histogram& retryBackoff;
  /// Flight-recorder phase latencies (telemetry::PhaseSpan): the crashing
  /// run up to the armed crash, the S1–S4 post-mortem capture, the restart.
  telemetry::Histogram& crashRunUs;
  telemetry::Histogram& postmortemUs;
  telemetry::Histogram& restartUs;
  /// Live depth of the sweep's restart hand-off queue.
  telemetry::Gauge& sweepQueueDepth;

  static CampaignMetrics& get() {
    auto& reg = telemetry::MetricsRegistry::instance();
    static CampaignMetrics m{
        reg.counter("memsim.loads"),
        reg.counter("memsim.stores"),
        reg.counter("memsim.nvmBlockReads"),
        reg.counter("memsim.nvmBlockWrites"),
        reg.counter("memsim.flushDirty"),
        reg.counter("memsim.flushClean"),
        reg.counter("memsim.flushNonResident"),
        reg.counter("memsim.flushInducedNvmWrites"),
        reg.counter("memsim.range_loads"),
        reg.counter("memsim.range_stores"),
        reg.counter("memsim.range_split_blocks"),
        reg.counter("campaign.range_accesses"),
        reg.counter("memsim.postmortem_blocks_skipped"),
        reg.counter("memsim.postmortem_blocks_compared"),
        reg.counter("memsim.postmortem_bytes_compared"),
        reg.counter("memsim.region_samples"),
        reg.counter("memsim.region_splits"),
        reg.counter("memsim.region_merges"),
        reg.counter("campaign.monitor_runs"),
        reg.counter("campaign.monitor_demoted_objects"),
        reg.counter("campaign.monitor_demoted_bytes"),
        reg.counter("campaign.monitor_tracked_objects"),
        reg.counter("campaign.trials"),
        {&reg.counter("campaign.responses.s1"), &reg.counter("campaign.responses.s2"),
         &reg.counter("campaign.responses.s3"), &reg.counter("campaign.responses.s4")},
        reg.histogram("campaign.trial_us",
                      telemetry::Histogram::exponentialBounds(100.0, 4.0, 12)),
        reg.counter("campaign.trial_failures"),
        reg.counter("campaign.trial_retries"),
        reg.counter("campaign.trial_timeouts"),
        reg.counter("campaign.resumed_trials"),
        reg.counter("campaign.shard_owned_trials"),
        reg.counter("campaign.sweep_runs"),
        reg.counter("campaign.sweep_captures"),
        reg.counter("campaign.sweep_fallbacks"),
        reg.counter("campaign.restart_memo_hits"),
        reg.counter("campaign.restart_memo_misses"),
        reg.counter("campaign.worker_spawns"),
        reg.counter("campaign.worker_crashes"),
        reg.counter("campaign.worker_kills"),
        reg.counter("campaign.worker_respawns"),
        reg.histogram("campaign.retry_backoff_ms",
                      telemetry::Histogram::exponentialBounds(1.0, 2.0, 12)),
        reg.histogram("campaign.crash_run_us",
                      telemetry::Histogram::exponentialBounds(50.0, 4.0, 12)),
        reg.histogram("campaign.postmortem_us",
                      telemetry::Histogram::exponentialBounds(10.0, 4.0, 12)),
        reg.histogram("campaign.restart_us",
                      telemetry::Histogram::exponentialBounds(50.0, 4.0, 12)),
        reg.gauge("campaign.sweep_queue_depth")};
    return m;
  }

  void recordRun(const memsim::MemEvents& ev) {
    loads.add(ev.loads);
    stores.add(ev.stores);
    nvmBlockReads.add(ev.nvmBlockReads);
    nvmBlockWrites.add(ev.nvmBlockWrites);
    flushDirty.add(ev.flushDirty);
    flushClean.add(ev.flushClean);
    flushNonResident.add(ev.flushNonResident);
    flushInducedNvmWrites.add(ev.flushInducedNvmWrites);
    // Diagnostics of the bulk fast path (call counts, not logical accesses):
    // zero when --bulk off, so they never feed equivalence comparisons.
    rangeLoads.add(ev.rangeLoads);
    rangeStores.add(ev.rangeStores);
    rangeSplitBlocks.add(ev.rangeSplitBlocks);
    rangeAccesses.add(ev.rangeLoads + ev.rangeStores);
    // Diagnostics of the post-mortem scan fast path: zero when --scan off,
    // so they never feed equivalence comparisons either.
    postmortemBlocksSkipped.add(ev.postmortemBlocksSkipped);
    postmortemBlocksCompared.add(ev.postmortemBlocksCompared);
    postmortemBytesCompared.add(ev.postmortemBytesCompared);
  }
};

/// Adjacent sweep captures whose restart inputs — restartIteration plus every
/// candidate snapshot, id and bytes — are byte-identical. A restart is a pure
/// function of that input, so the leader's restart decides every member
/// (docs/INTERNALS.md "Restart grouping"). Only the leader's capture keeps
/// its snapshot bytes; every member's capture keeps its own crash context.
/// Trials that drew the same crash index share one capture.
struct RestartGroup {
  struct Member {
    std::size_t trial = 0;
    std::shared_ptr<const SweepCapture> capture;
  };
  std::vector<Member> members;  ///< crash-index order; front() is the leader

  [[nodiscard]] const SweepCapture& input() const { return *members.front().capture; }
};

bool sameRestartInput(const SweepCapture& a, const SweepCapture& b) {
  return a.restartIteration == b.restartIteration && a.snapshots == b.snapshots;
}

/// Thrown by the sweep's capture hook to end the crashing run early: a stop
/// was requested, or the restart pipeline went away (abort/budget).
struct SweepAbort {};

/// Bounded hand-off between the sweep producer (the single crashing run) and
/// the restart workers, grouping as it goes. push() adds one capture's
/// trials to the open tail group when the capture's restart input equals the
/// group leader's (dropping the capture's snapshot bytes); otherwise it
/// hands the open group to the workers and opens a new one. The hand-off
/// blocks while the queue is full — that backpressure bounds how many
/// snapshots are alive at once. close() flushes the open group, so every
/// pushed trial's restart runs unless the queue is aborted. push() and
/// close() belong to the one producer thread, which alone touches the open
/// group. pop() blocks for a group and drains what was already queued after
/// close(); abort() drops everything and wakes both sides; push() returns
/// false once the queue is aborted.
class RestartQueue {
 public:
  explicit RestartQueue(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] bool push(std::shared_ptr<SweepCapture> capture,
                          const std::vector<std::size_t>& trials) {
    const bool joins =
        !open_.members.empty() && sameRestartInput(open_.input(), *capture);
    if (!handOver(joins ? RestartGroup{} : std::exchange(open_, RestartGroup{}))) {
      return false;
    }
    if (joins) capture->snapshots.clear();  // the leader's bytes restart it
    for (const std::size_t t : trials) open_.members.push_back({t, capture});
    return true;
  }

  [[nodiscard]] std::optional<RestartGroup> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    groupCv_.wait(lock, [&] { return !groups_.empty() || closed_ || aborted_; });
    if (aborted_ || groups_.empty()) return std::nullopt;
    RestartGroup group = std::move(groups_.front());
    groups_.pop_front();
    CampaignMetrics::get().sweepQueueDepth.set(static_cast<double>(groups_.size()));
    spaceCv_.notify_one();
    return group;
  }

  void close() {
    (void)handOver(std::exchange(open_, RestartGroup{}));
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    groupCv_.notify_all();
  }

  void abort() {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
    groups_.clear();
    CampaignMetrics::get().sweepQueueDepth.set(0.0);
    groupCv_.notify_all();
    spaceCv_.notify_all();
  }

 private:
  /// Queue one finished group (nothing when it is empty); blocks while
  /// full. False once aborted.
  bool handOver(RestartGroup group) {
    std::unique_lock<std::mutex> lock(mutex_);
    spaceCv_.wait(lock, [&] {
      return group.members.empty() || groups_.size() < capacity_ || aborted_;
    });
    if (aborted_) return false;
    if (group.members.empty()) return true;
    groups_.push_back(std::move(group));
    CampaignMetrics::get().sweepQueueDepth.set(static_cast<double>(groups_.size()));
    groupCv_.notify_one();
    return true;
  }

  RestartGroup open_;  ///< producer-only: the tail group still taking members
  std::mutex mutex_;
  std::condition_variable groupCv_;
  std::condition_variable spaceCv_;
  std::deque<RestartGroup> groups_;
  const std::size_t capacity_;
  bool closed_ = false;
  bool aborted_ = false;
};

// ---- Fork evaluator wire protocol ------------------------------------------
//
// Requests (parent -> worker):  'R' restart {trial, restart input}
//                               'S' sweep {n, n x (index, trialCount)}
//                               'A' ack of one streamed sweep capture
// Responses (worker -> parent): 'r' restart outcome or error
//                               'c' one streamed sweep capture (await 'A')
//                               'e' sweep end {completed, captured, failure}
// Integers are little-endian; snapshot payloads ride the slot's shared
// arena when they fit (the common case — the arena is sized off the app's
// candidate bytes) and fall back to inline frame bytes when they don't.

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    buf_.append(s);
  }
  void raw(const void* data, std::size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over one received frame. Every overrun throws — the
/// campaign maps a malformed frame to a protocol worker death.
class WireReader {
 public:
  explicit WireReader(const std::string& buf) : buf_(buf) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(buf_[pos_++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf_[pos_++])) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf_[pos_++])) << (8 * i);
    }
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t len = u64();
    need(len);
    std::string out(buf_.data() + pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return out;
  }
  void raw(void* out, std::size_t len) {
    need(len);
    std::memcpy(out, buf_.data() + pos_, len);
    pos_ += len;
  }

 private:
  void need(std::uint64_t n) const {
    if (n > buf_.size() - pos_) {
      throw std::runtime_error("wire: truncated frame");
    }
  }

  const std::string& buf_;
  std::size_t pos_ = 0;
};

void addEvents(memsim::MemEvents& total, const memsim::MemEvents& run) {
  total.loads += run.loads;
  total.stores += run.stores;
  for (std::size_t i = 0; i < memsim::kMaxLevels; ++i) {
    total.hits[i] += run.hits[i];
    total.misses[i] += run.misses[i];
  }
  total.nvmBlockReads += run.nvmBlockReads;
  total.nvmBlockWrites += run.nvmBlockWrites;
  total.flushDirty += run.flushDirty;
  total.flushClean += run.flushClean;
  total.flushNonResident += run.flushNonResident;
  total.flushInducedNvmWrites += run.flushInducedNvmWrites;
  total.rangeLoads += run.rangeLoads;
  total.rangeStores += run.rangeStores;
  total.rangeSplitBlocks += run.rangeSplitBlocks;
  total.postmortemBlocksSkipped += run.postmortemBlocksSkipped;
  total.postmortemBlocksCompared += run.postmortemBlocksCompared;
  total.postmortemBytesCompared += run.postmortemBytesCompared;
}

void encodeEvents(WireWriter& w, const memsim::MemEvents& ev) {
  w.u64(ev.loads);
  w.u64(ev.stores);
  for (std::size_t i = 0; i < memsim::kMaxLevels; ++i) w.u64(ev.hits[i]);
  for (std::size_t i = 0; i < memsim::kMaxLevels; ++i) w.u64(ev.misses[i]);
  w.u64(ev.nvmBlockReads);
  w.u64(ev.nvmBlockWrites);
  w.u64(ev.flushDirty);
  w.u64(ev.flushClean);
  w.u64(ev.flushNonResident);
  w.u64(ev.flushInducedNvmWrites);
  w.u64(ev.rangeLoads);
  w.u64(ev.rangeStores);
  w.u64(ev.rangeSplitBlocks);
  w.u64(ev.postmortemBlocksSkipped);
  w.u64(ev.postmortemBlocksCompared);
  w.u64(ev.postmortemBytesCompared);
}

memsim::MemEvents decodeEvents(WireReader& r) {
  memsim::MemEvents ev;
  ev.loads = r.u64();
  ev.stores = r.u64();
  for (std::size_t i = 0; i < memsim::kMaxLevels; ++i) ev.hits[i] = r.u64();
  for (std::size_t i = 0; i < memsim::kMaxLevels; ++i) ev.misses[i] = r.u64();
  ev.nvmBlockReads = r.u64();
  ev.nvmBlockWrites = r.u64();
  ev.flushDirty = r.u64();
  ev.flushClean = r.u64();
  ev.flushNonResident = r.u64();
  ev.flushInducedNvmWrites = r.u64();
  ev.rangeLoads = r.u64();
  ev.rangeStores = r.u64();
  ev.rangeSplitBlocks = r.u64();
  ev.postmortemBlocksSkipped = r.u64();
  ev.postmortemBlocksCompared = r.u64();
  ev.postmortemBytesCompared = r.u64();
  return ev;
}

void encodeProfile(WireWriter& w, const CampaignProfile& p) {
  w.u32(p.strideBytes);
  w.u64(p.runs);
  w.u64(p.objects.size());
  for (const runtime::ObjectProfile& o : p.objects) {
    w.u32(o.id);
    w.str(o.name);
    w.u64(o.bytes);
    w.u64(o.accesses);
    w.u64(o.nvmWrites);
    w.u64(o.accessBins.size());
    for (const std::uint64_t b : o.accessBins) w.u64(b);
    w.u64(o.wearBins.size());
    for (const std::uint64_t b : o.wearBins) w.u64(b);
  }
  w.u64(p.regionAccesses.size());
  for (const auto& [region, accesses] : p.regionAccesses) {
    w.u32(static_cast<std::uint32_t>(region));
    w.u64(accesses);
  }
}

CampaignProfile decodeProfile(WireReader& r) {
  CampaignProfile p;
  p.strideBytes = r.u32();
  p.runs = r.u64();
  const std::uint64_t nObjects = r.u64();
  p.objects.resize(static_cast<std::size_t>(nObjects));
  for (runtime::ObjectProfile& o : p.objects) {
    o.id = r.u32();
    o.name = r.str();
    o.bytes = r.u64();
    o.accesses = r.u64();
    o.nvmWrites = r.u64();
    o.accessBins.resize(static_cast<std::size_t>(r.u64()));
    for (std::uint64_t& b : o.accessBins) b = r.u64();
    o.wearBins.resize(static_cast<std::size_t>(r.u64()));
    for (std::uint64_t& b : o.wearBins) b = r.u64();
  }
  const std::uint64_t nRegions = r.u64();
  for (std::uint64_t i = 0; i < nRegions; ++i) {
    const auto region =
        static_cast<runtime::PointId>(static_cast<std::int32_t>(r.u32()));
    p.regionAccesses[region] = r.u64();
  }
  return p;
}

/// Crash "black box": the first page-independent bytes of every slot's
/// arena. A worker about to execute an injected fault records where it is
/// dying (fault kind, access index, formatted region path) and publishes
/// with a release-fenced magic write; after the death the parent reads it
/// back so the TrialFailure names the real crash site — the same region-path
/// feature in-process failures get from throwRegionPath().
struct BlackBox {
  std::uint64_t magic = 0;  ///< written last
  std::uint64_t accessIndex = 0;
  char kind[16] = {};
  char regionPath[224] = {};
};
constexpr std::uint64_t kBlackBoxMagic = 0x4e56435442420001ull;
constexpr std::size_t kBlackBoxBytes = 256;
static_assert(sizeof(BlackBox) <= kBlackBoxBytes, "black box must fit its slot");

/// A capture's restart input: restartIteration plus the candidate snapshots
/// (the 'R' request body and the tail of a 'c' frame).
void encodeRestartInput(WireWriter& w, const SweepCapture& c, std::uint8_t* arena,
                        std::size_t arenaBytes) {
  w.i64(c.restartIteration);
  std::size_t total = 0;
  for (const auto& [id, bytes] : c.snapshots) total += bytes.size();
  const bool inArena =
      arena != nullptr && arenaBytes >= kBlackBoxBytes &&
      total <= arenaBytes - kBlackBoxBytes;
  w.u8(inArena ? 1 : 0);
  w.u64(c.snapshots.size());
  std::size_t offset = kBlackBoxBytes;
  for (const auto& [id, bytes] : c.snapshots) {
    w.u32(id);
    w.u64(bytes.size());
    if (bytes.empty()) continue;
    if (inArena) {
      std::memcpy(arena + offset, bytes.data(), bytes.size());
      offset += bytes.size();
    } else {
      w.raw(bytes.data(), bytes.size());
    }
  }
}

void decodeRestartInput(WireReader& r, SweepCapture& c, const std::uint8_t* arena,
                        std::size_t arenaBytes) {
  c.restartIteration = static_cast<int>(r.i64());
  const bool inArena = r.u8() != 0;
  const std::uint64_t nSnaps = r.u64();
  std::size_t offset = kBlackBoxBytes;
  for (std::uint64_t i = 0; i < nSnaps; ++i) {
    const runtime::ObjectId id = r.u32();
    const std::uint64_t size = r.u64();
    std::vector<std::uint8_t>& bytes = c.snapshots[id];
    if (inArena) {
      if (arena == nullptr || size > arenaBytes || offset > arenaBytes - size) {
        throw std::runtime_error("wire: capture overruns the arena");
      }
      bytes.assign(arena + offset, arena + offset + size);
      offset += static_cast<std::size_t>(size);
    } else {
      bytes.resize(static_cast<std::size_t>(size));
      if (!bytes.empty()) r.raw(bytes.data(), bytes.size());
    }
  }
}

/// A whole capture (the 'c' frame body): crash context, then restart input.
void encodeCapture(WireWriter& w, const SweepCapture& c, std::uint8_t* arena,
                   std::size_t arenaBytes) {
  w.u64(c.crashAccessIndex);
  w.u32(static_cast<std::uint32_t>(c.region));
  w.u64(c.regionPath.size());
  for (const runtime::PointId p : c.regionPath) {
    w.u32(static_cast<std::uint32_t>(p));
  }
  w.i64(c.crashIteration);
  w.u64(c.inconsistentRate.size());
  for (const auto& [id, rate] : c.inconsistentRate) {
    w.u32(id);
    w.f64(rate);
  }
  encodeRestartInput(w, c, arena, arenaBytes);
}

SweepCapture decodeCapture(WireReader& r, const std::uint8_t* arena,
                           std::size_t arenaBytes) {
  SweepCapture c;
  c.crashAccessIndex = r.u64();
  c.region = static_cast<runtime::PointId>(static_cast<std::int32_t>(r.u32()));
  const std::uint64_t pathLen = r.u64();
  c.regionPath.resize(static_cast<std::size_t>(pathLen));
  for (runtime::PointId& p : c.regionPath) {
    p = static_cast<runtime::PointId>(static_cast<std::int32_t>(r.u32()));
  }
  c.crashIteration = static_cast<int>(r.i64());
  const std::uint64_t nRates = r.u64();
  for (std::uint64_t i = 0; i < nRates; ++i) {
    const runtime::ObjectId id = r.u32();
    c.inconsistentRate[id] = r.f64();
  }
  decodeRestartInput(r, c, arena, arenaBytes);
  return c;
}

/// Copy a restart's outcome — the part of a record the restart decides —
/// onto a record already stamped with its own capture.
void copyOutcome(const CrashTestRecord& from, CrashTestRecord& to) {
  to.response = from.response;
  to.extraIterations = from.extraIterations;
  to.note = from.note;
}

// ---- Fork-worker child state -----------------------------------------------

/// The forked child's trace buffer: TraceSink is redirected here right after
/// the fork, and each response frame ships-and-clears the accumulated lines
/// for the parent to splice into the real trace via writeRaw().
std::ostringstream* g_childTraceBuf = nullptr;

std::string takeChildTrace() {
  if (g_childTraceBuf == nullptr) return {};
  std::string out = g_childTraceBuf->str();
  g_childTraceBuf->str("");
  return out;
}

/// The phase histograms a worker child's spans observe into, in wire order.
std::array<telemetry::Histogram*, 3> childPhaseHistograms() {
  CampaignMetrics& m = CampaignMetrics::get();
  return {&m.crashRunUs, &m.postmortemUs, &m.restartUs};
}

/// Per-request run collector inside a worker child: noteRun() lands events
/// and profile increments here instead of the (discarded) child metrics
/// registry, and the response frame ships them to the parent.
struct ChildRunCollector {
  memsim::MemEvents events;
  CampaignProfile profile;
  /// runtime.crash_injections value at request start: the child registry is
  /// discarded, so each reply ships the per-request delta for the parent to
  /// re-add — keeping the counter identical to an in-process run.
  std::uint64_t crashInjectionsBase = telemetry::MetricsRegistry::instance()
                                          .counter("runtime.crash_injections")
                                          .value();

  /// The phase histograms start each request empty — the child inherits the
  /// parent's counts at fork — so a reply ships exactly its own spans.
  ChildRunCollector() {
    for (telemetry::Histogram* h : childPhaseHistograms()) h->reset();
  }

  /// Ship what the request's runs left in this child: buffered trace lines,
  /// MemEvents, the crash-injection delta, the profile increment and the
  /// phase histograms. The parent folds them in with absorbChildRuns.
  void encode(WireWriter& w) const {
    w.str(takeChildTrace());
    encodeEvents(w, events);
    w.u64(telemetry::MetricsRegistry::instance()
              .counter("runtime.crash_injections")
              .value() -
          crashInjectionsBase);
    if (profile.runs > 0) {
      w.u8(1);
      encodeProfile(w, profile);
    } else {
      w.u8(0);
    }
    for (const telemetry::Histogram* h : childPhaseHistograms()) {
      w.f64(h->sum());
      w.u64(h->bounds().size() + 1);
      for (std::size_t i = 0; i <= h->bounds().size(); ++i) w.u64(h->bucketCount(i));
    }
  }
};
ChildRunCollector* g_childRunCollector = nullptr;

/// Installed in a worker child while a crashing run may host an injected
/// fault: where to write the black box and which fd a wild write tears.
struct ChildFaultContext {
  FaultPlan plan;
  std::uint8_t* blackBox = nullptr;
  int responseFd = -1;
};
ChildFaultContext* g_childFault = nullptr;

/// Execute one injected fault for real. Segv and hang never return; a wild
/// write tears the response stream then exits; OOM throws the bad_alloc the
/// worker main loop converts to kWorkerOomExit.
void executeFault(FaultPlan::Kind kind, int responseFd) {
  switch (kind) {
    case FaultPlan::Kind::Segv: {
      // The volatile address keeps the bogus pointer out of constant
      // propagation, so -Werror=array-bounds accepts the deliberate wild
      // store (GCC 12 rejects a literal reinterpret_cast'ed address).
      volatile std::uintptr_t target = 8;
      *reinterpret_cast<volatile int*>(target) = 42;  // SIGSEGV
      std::abort();    // unreachable belt-and-braces (still a Crashed death)
    }
    case FaultPlan::Kind::WildWrite: {
      // A garbage length prefix (~2 GiB) followed by a torn tail: the parent
      // rejects the length and classifies a protocol death.
      const unsigned char junk[] = {0xff, 0xff, 0xff, 0x7f, 0xde, 0xad};
      (void)!::write(responseFd, junk, sizeof junk);
      ::_exit(2);
    }
    case FaultPlan::Kind::Oom: {
      // nothrow + explicit throw, not throwing operator new: GCC's libasan
      // hard-aborts a failed throwing new even with allocator_may_return_null,
      // while the nothrow form returns null under both plain and ASan builds.
      void* p = ::operator new(std::size_t{1} << 62, std::nothrow);
      if (p == nullptr) throw std::bad_alloc();
      ::operator delete(p);  // unreachable on any real machine
      throw std::bad_alloc();
    }
    case FaultPlan::Kind::Hang: {
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    case FaultPlan::Kind::None: break;
  }
}

}  // namespace

// ---- Failure accounting ----------------------------------------------------

/// Why one evaluation attempt — a sweep crashing run or a restart — died:
/// the fields a TrialFailure records for every trial the death is charged
/// to. Thrown by the fork transport for a worker death; deliberately NOT
/// std::exception-derived, so currentFailure() never maps it to kind
/// "exception".
struct AttemptFailure {
  std::string kind = "protocol";
  bool timeout = false;
  std::string reason;
  std::string regionPath;
};

struct SweepOutcome {
  std::size_t captured = 0;  ///< points captured, a prefix of the planned ones
  bool completed = false;    ///< every point captured and the armed crash fired
  std::optional<AttemptFailure> failure;  ///< set when the run died early
};

namespace {

/// The failure fields of the exception in flight; call only from a catch
/// block. A worker death passes through; a watchdog cancel and any
/// std::exception name `regionPath`, where the attempt stood when it died.
/// Anything else propagates.
AttemptFailure currentFailure(const std::vector<runtime::PointId>& regionPath,
                              std::uint64_t timeoutMs) {
  try {
    throw;
  } catch (const AttemptFailure& f) {
    return f;
  } catch (const runtime::TrialCancelled&) {
    return {"timeout", true,
            "watchdog: trial exceeded its " + std::to_string(timeoutMs) +
                " ms deadline",
            formatRegionPath(regionPath)};
  } catch (const std::exception& e) {
    return {"exception", false, e.what(), formatRegionPath(regionPath)};
  }
}

/// Map one classified worker death onto the failure the retry loop records,
/// folding in the black box when the worker published one.
AttemptFailure classifyDeath(const WorkerPool::Reply& reply,
                             std::uint64_t timeoutMs, const std::uint8_t* arena) {
  AttemptFailure f;
  f.kind = toString(reply.death);
  f.timeout = reply.timedOut;
  if (reply.timedOut) {
    f.reason = "watchdog: trial exceeded its " + std::to_string(timeoutMs) +
               " ms deadline";
  } else {
    switch (reply.death) {
      case WorkerDeath::Crashed:
        f.reason = "worker killed by signal " + std::to_string(reply.signal);
        break;
      case WorkerDeath::Killed:
        f.reason = "worker killed (SIGKILL)";
        break;
      case WorkerDeath::Oom:
        f.reason = "worker out of memory (std::bad_alloc)";
        break;
      default:
        f.reason = "worker protocol error (exit status " +
                   std::to_string(reply.exitStatus) + ")";
        break;
    }
  }
  const auto* bb = reinterpret_cast<const BlackBox*>(arena);
  if (bb != nullptr && bb->magic == kBlackBoxMagic) {
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::string kind(bb->kind, strnlen(bb->kind, sizeof bb->kind));
    f.regionPath.assign(bb->regionPath,
                        strnlen(bb->regionPath, sizeof bb->regionPath));
    f.reason += "; fault '" + kind + "' injected at access " +
                std::to_string(bb->accessIndex);
  }
  return f;
}

std::string responseTally(const std::array<int, 4>& counts) {
  std::string out;
  for (int s = 0; s < 4; ++s) {
    if (s) out += ' ';
    out += 'S';
    out += static_cast<char>('1' + s);
    out += ':';
    out += std::to_string(counts[s]);
  }
  return out;
}

}  // namespace

const char* toString(Response response) {
  switch (response) {
    case Response::S1: return "S1";
    case Response::S2: return "S2";
    case Response::S3: return "S3";
    case Response::S4: return "S4";
  }
  return "?";
}

const char* toString(FaultPlan::Kind kind) {
  switch (kind) {
    case FaultPlan::Kind::None: return "none";
    case FaultPlan::Kind::Segv: return "segv";
    case FaultPlan::Kind::WildWrite: return "wild-write";
    case FaultPlan::Kind::Oom: return "oom";
    case FaultPlan::Kind::Hang: return "hang";
  }
  return "?";
}

std::vector<std::string> MonitorSummary::demotedNames() const {
  std::vector<std::string> names;
  for (const auto& object : objects) {
    if (object.demoted) names.push_back(object.name);
  }
  return names;
}

double CampaignResult::recomputability() const {
  if (tests.empty()) return 0.0;
  const auto counts = responseCounts();
  return static_cast<double>(counts[0]) / static_cast<double>(tests.size());
}

double CampaignResult::successWithExtra() const {
  if (tests.empty()) return 0.0;
  const auto counts = responseCounts();
  return static_cast<double>(counts[0] + counts[1]) /
         static_cast<double>(tests.size());
}

std::array<int, 4> CampaignResult::responseCounts() const {
  std::array<int, 4> counts{};
  for (const auto& t : tests) counts[static_cast<int>(t.response)] += 1;
  return counts;
}

double CampaignResult::averageExtraIterations() const {
  int n = 0;
  long long total = 0;
  for (const auto& t : tests) {
    if (t.response == Response::S2) {
      total += t.extraIterations;
      ++n;
    }
  }
  return n == 0 ? 0.0 : static_cast<double>(total) / n;
}

std::map<runtime::PointId, double> CampaignResult::regionRecomputability() const {
  std::map<runtime::PointId, int> s1, all;
  for (const auto& t : tests) {
    all[t.region] += 1;
    if (t.response == Response::S1) s1[t.region] += 1;
  }
  std::map<runtime::PointId, double> out;
  for (const auto& [region, n] : all) {
    out[region] = static_cast<double>(s1[region]) / static_cast<double>(n);
  }
  return out;
}

std::map<runtime::PointId, int> CampaignResult::regionTestCounts() const {
  std::map<runtime::PointId, int> all;
  for (const auto& t : tests) all[t.region] += 1;
  return all;
}

std::map<runtime::ObjectId, double> CampaignResult::meanInconsistentRate() const {
  std::map<runtime::ObjectId, double> sum;
  for (const auto& t : tests) {
    for (const auto& [id, rate] : t.inconsistentRate) sum[id] += rate;
  }
  for (auto& [id, total] : sum) total /= static_cast<double>(tests.size());
  return sum;
}

void CampaignProfile::accumulate(const runtime::Runtime& rt, std::size_t bins) {
  if (!rt.profiling()) return;
  CampaignProfile run;
  run.strideBytes = rt.hierarchy().accessProfileStride();
  run.objects = rt.objectProfiles(bins);
  for (const auto& [region, accesses] : rt.regionAccesses()) {
    run.regionAccesses[region] = accesses;
  }
  run.runs = 1;
  merge(run);
}

void CampaignProfile::merge(const CampaignProfile& other) {
  if (other.runs == 0) return;
  if (runs == 0) {
    *this = other;
    return;
  }
  // Every run of a campaign instantiates the same app, so the object
  // layout — and therefore the bin shapes — is identical run to run.
  EC_CHECK_MSG(other.objects.size() == objects.size(),
               "profile object layout diverged between runs");
  for (std::size_t i = 0; i < objects.size(); ++i) {
    runtime::ObjectProfile& total = objects[i];
    const runtime::ObjectProfile& run = other.objects[i];
    EC_CHECK(total.id == run.id &&
             total.accessBins.size() == run.accessBins.size() &&
             total.wearBins.size() == run.wearBins.size());
    total.accesses += run.accesses;
    total.nvmWrites += run.nvmWrites;
    for (std::size_t b = 0; b < run.accessBins.size(); ++b) {
      total.accessBins[b] += run.accessBins[b];
    }
    for (std::size_t b = 0; b < run.wearBins.size(); ++b) {
      total.wearBins[b] += run.wearBins[b];
    }
  }
  for (const auto& [region, accesses] : other.regionAccesses) {
    regionAccesses[region] += accesses;
  }
  runs += other.runs;
}

CampaignRunner::CampaignRunner(runtime::AppFactory factory, CampaignConfig config)
    : factory_(std::move(factory)), config_(std::move(config)) {
  EC_CHECK(config_.numTests >= 0);
  EC_CHECK(config_.maxIterationFactor >= 1);
  EC_CHECK_MSG(config_.resilience.isolation != IsolationMode::Fork ||
                   config_.resilience.isolate,
               "fork isolation requires trial isolation (resilience.isolate)");
  EC_CHECK_MSG(!config_.inject.active() ||
                   config_.resilience.isolation == IsolationMode::Fork,
               "fault injection requires the fork evaluator "
               "(resilience.isolation == Fork)");
  EC_CHECK_MSG(!config_.inject.active() || config_.inject.accessIndex > 0,
               "fault injection needs a 1-based tracked-access index");
}

void CampaignRunner::armProfile(Runtime& rt) const {
  if (config_.profile) rt.enableProfile();
}

void CampaignRunner::accumulateProfile(const Runtime& rt) const {
  if (!config_.profile || !rt.profiling()) return;
  std::lock_guard<std::mutex> lock(profileMutex_);
  profile_.accumulate(rt);
}

void CampaignRunner::noteRun(const Runtime& rt) const {
  if (g_childRunCollector != nullptr) {
    addEvents(g_childRunCollector->events, rt.events());
    if (config_.profile) g_childRunCollector->profile.accumulate(rt);
    return;
  }
  CampaignMetrics::get().recordRun(rt.events());
  accumulateProfile(rt);
}

void CampaignRunner::commitTrial(std::size_t trial,
                                 const CrashTestRecord& record) const {
  CampaignMetrics::get().trials.add();
  CampaignMetrics::get().responses[static_cast<int>(record.response)]->add();
  if (telemetry::tracing()) {
    // The per-trial outcome record: crash location + restart result. This is
    // the JSONL row an external analysis joins with the CSV on `trial`.
    telemetry::TraceEvent("trial_end")
        .field("trial", static_cast<std::uint64_t>(trial))
        .field("crash_access", record.crashAccessIndex)
        .field("region", record.region)
        .field("crash_iteration", record.crashIteration)
        .field("restart_iteration", record.restartIteration)
        .field("response", toString(record.response))
        .field("extra_iterations", record.extraIterations)
        .emit();
  }
}

void CampaignRunner::installFault(Runtime& rt) const {
  if (!config_.inject.active() || g_childFault == nullptr) return;
  ChildFaultContext* ctx = g_childFault;
  Runtime* rtp = &rt;
  rt.armFault(config_.inject.accessIndex, [ctx, rtp] {
    auto* bb = reinterpret_cast<BlackBox*>(ctx->blackBox);
    if (bb != nullptr) {
      bb->accessIndex = ctx->plan.accessIndex;
      std::snprintf(bb->kind, sizeof bb->kind, "%s", toString(ctx->plan.kind));
      const std::string path = formatRegionPath(rtp->regionPath());
      std::snprintf(bb->regionPath, sizeof bb->regionPath, "%s", path.c_str());
      std::atomic_thread_fence(std::memory_order_release);
      bb->magic = kBlackBoxMagic;
    }
    executeFault(ctx->plan.kind, ctx->responseFd);
  });
}

GoldenStats CampaignRunner::goldenRun(memsim::RegionMonitor* monitor) const {
  Runtime rt(config_.cache);
  // Sampled monitoring folds the golden run and the monitoring pre-pass into
  // ONE direct-mode run: the monitor samples the access stream, which is
  // identical whether or not the cache hierarchy simulates it, and every
  // golden output the campaign depends on (windowAccesses and with it the
  // pre-drawn crash sequence, finalIteration, verify metric, region shares)
  // is a function of the access stream and the architectural values — both
  // routing-independent. Skipping the cache simulation here is the bulk of
  // the sampled mode's large-footprint win.
  if (monitor != nullptr && !config_.monitor.trackedGolden) rt.setDirect(true);
  rt.setBulk(config_.bulk);
  rt.setScan(config_.scan);
  rt.setPlan(config_.plan);
  rt.setTraceRun("golden");
  // Installed before setup so the apps' setup-phase writes are sampled too —
  // a candidate written only during setup must not look dead.
  if (monitor != nullptr) rt.setMonitor(monitor);
  armProfile(rt);
  auto app = factory_();
  const auto result = Driver::freshRun(*app, rt);
  rt.setMonitor(nullptr);
  CampaignMetrics::get().recordRun(rt.events());
  accumulateProfile(rt);
  EC_CHECK_MSG(!result.interrupted, "golden run interrupted: " + result.interruptReason);
  EC_CHECK_MSG(result.verification.pass,
               "golden run failed its own acceptance verification (" +
                   app->info().name + "): " + result.verification.detail);

  GoldenStats golden;
  golden.windowAccesses = rt.windowAccesses();
  golden.finalIteration = result.finalIteration;
  golden.events = rt.events();
  golden.footprintBytes = rt.footprintBytes();
  golden.regionCount = rt.regionCount();
  golden.persistenceOps = rt.persistenceOps();
  golden.verifyMetric = result.verification.metric;
  golden.objects = rt.objects();
  for (const auto& object : golden.objects) {
    if (object.candidate) golden.candidateBytes += object.bytes;
  }
  for (const auto& [region, accesses] : rt.regionAccesses()) {
    golden.regionTimeShare[region] =
        static_cast<double>(accesses) / static_cast<double>(golden.windowAccesses);
  }
  golden.regionIterationEnds = rt.regionIterationEnds();
  return golden;
}

void CampaignRunner::buildMonitorSummary(const memsim::RegionMonitor& monitor,
                                         const GoldenStats& golden) const {
  // Objects flushed by the persistence plan keep full tracking regardless of
  // their sampled activity: demoting them would change what the plan's
  // flush ops write to NVM.
  std::vector<runtime::ObjectId> planObjects;
  for (const auto& [point, directive] : config_.plan.points) {
    planObjects.insert(planObjects.end(), directive.objects.begin(),
                       directive.objects.end());
  }

  MonitorSummary summary;
  summary.active = true;
  summary.samples = monitor.totalSamples();
  summary.splits = monitor.totalSplits();
  summary.merges = monitor.totalMerges();
  const auto& monitored = monitor.objects();
  const auto& objects = golden.objects;
  EC_CHECK_MSG(monitored.size() == objects.size(),
               "region monitor lost track of the object set");
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const runtime::DataObjectInfo& info = objects[i];
    const memsim::MonitoredObject& mon = monitored[i];
    EC_CHECK(mon.id == info.id);
    MonitorObjectStats stats;
    stats.id = info.id;
    stats.name = info.name;
    stats.bytes = info.bytes;
    stats.candidate = info.candidate;
    stats.samples = mon.samples;
    stats.writes = mon.writes;
    stats.windowWrites = mon.windowWrites;
    for (const auto& region : mon.regions) {
      stats.regions.push_back(
          {region.base, region.bytes, region.samples, region.writes});
    }
    // Demotion policy: large non-candidates leave full value tracking.
    // Candidates never demote — their crash-time inconsistency rates are
    // the Spearman selection's input, and with demoted blocks keeping
    // metadata-only residency (Runtime::setDemotedNames) the tracked
    // candidates then behave bit-identically to full mode. Small objects
    // stay too (cheap, and region stats on them carry little signal), as
    // do plan-flushed objects (their flush ops must keep writing real
    // payload back to NVM).
    const bool inPlan = std::find(planObjects.begin(), planObjects.end(),
                                  info.id) != planObjects.end();
    stats.demoted =
        info.bytes > config_.monitor.smallObjectBytes && !inPlan && !info.candidate;
    if (stats.demoted) {
      ++summary.demotedObjects;
      summary.demotedBytes += info.bytes;
    } else {
      ++summary.trackedObjects;
      summary.trackedBytes += info.bytes;
    }
    summary.objects.push_back(std::move(stats));
  }
  monitorState_ = std::move(summary);

  auto& metrics = CampaignMetrics::get();
  metrics.monitorRuns.add();
  metrics.regionSamples.add(monitorState_.samples);
  metrics.regionSplits.add(monitorState_.splits);
  metrics.regionMerges.add(monitorState_.merges);
  metrics.monitorDemotedObjects.add(monitorState_.demotedObjects);
  metrics.monitorDemotedBytes.add(monitorState_.demotedBytes);
  metrics.monitorTrackedObjects.add(monitorState_.trackedObjects);

  if (telemetry::tracing()) {
    for (const auto& stats : monitorState_.objects) {
      telemetry::TraceEvent("region_snapshot")
          .field("run", "golden")
          .field("object", stats.name)
          .field("bytes", stats.bytes)
          .field("regions", static_cast<std::uint64_t>(stats.regions.size()))
          .field("samples", stats.samples)
          .field("writes", stats.writes)
          .field("window_writes", stats.windowWrites)
          .field("demoted", stats.demoted)
          .emit();
    }
  }
  EC_LOG_INFO("region monitor: " << monitorState_.samples << " samples, "
                                 << monitorState_.demotedObjects
                                 << " objects demoted ("
                                 << monitorState_.demotedBytes << " bytes)");
}

void CampaignRunner::applyMonitorRouting(Runtime& rt) const {
  if (!monitorState_.active) return;
  rt.setDemotedNames(monitorState_.demotedNames());
}

namespace {

/// Throws unless the resumed journal was drawn for exactly this campaign.
void checkHeaderMatches(const JournalHeader& journal, const JournalHeader& ours,
                        const std::string& path) {
  const auto mismatch = [&path](const std::string& what) {
    throw std::runtime_error("--resume " + path + ": journal " + what +
                             " does not match this campaign");
  };
  if (journal.app != ours.app) mismatch("app (" + journal.app + ")");
  if (journal.seed != ours.seed) mismatch("seed");
  if (journal.tests != ours.tests) mismatch("test count");
  if (journal.mode != ours.mode) mismatch("snapshot mode");
  if (journal.planFingerprint != ours.planFingerprint) mismatch("persistence plan");
  if (journal.windowAccesses != ours.windowAccesses) mismatch("golden crash window");
  if (journal.monitor != ours.monitor) mismatch("monitor mode");
  // A shard journal resumes only under the same --shard i/k; a merged (or
  // legacy) journal is unsharded on both sides and passes trivially.
  if (journal.shardCount != ours.shardCount || journal.shardIndex != ours.shardIndex) {
    mismatch("shard (" + std::to_string(journal.shardIndex) + "/" +
             std::to_string(journal.shardCount) + ")");
  }
}

}  // namespace

/// The worker child's request loop body (one call per request frame). Runs
/// the same runSweep/runRestart the in-process evaluator runs — byte-for-
/// byte the same simulation — and ships the result (or the failure), the
/// run's MemEvents, the profile increment and the buffered trace lines back
/// through the pipe protocol. Lives outside the anonymous namespace so
/// CampaignRunner can befriend it into its private evaluator internals.
struct ForkChildServer {
  const CampaignRunner& runner;
  const GoldenStats& golden;

  void serve(int slot, const std::string& request,
             const WorkerPool::ChildChannel& ch) const {
    (void)slot;
    WireReader req(request);
    const std::uint8_t op = req.u8();
    ChildRunCollector collector;
    g_childRunCollector = &collector;
    static ChildFaultContext faultCtx;
    faultCtx.plan = runner.config_.inject;
    faultCtx.blackBox = ch.arena();
    faultCtx.responseFd = ch.responseFd();
    g_childFault = runner.config_.inject.active() ? &faultCtx : nullptr;
    try {
      switch (op) {
        case 'R':
          serveRestart(req, ch, collector);
          break;
        case 'S':
          serveSweep(req, ch, collector);
          break;
        default:
          throw std::runtime_error("fork worker: unknown request op");
      }
    } catch (...) {
      g_childRunCollector = nullptr;
      throw;  // escapes to childMain: bad_alloc -> OOM exit, rest -> protocol
    }
    g_childRunCollector = nullptr;
  }

 private:
  /// Run one restart attempt from the shipped restart input, then ship an
  /// 'r' frame: status 0 carries the outcome (response, extra iterations,
  /// note), status 1 the exception text — the parent names the crash site
  /// from its own stamped record. Both carry the collector's accounting: a
  /// failed attempt still simulated runs the parent must account, exactly as
  /// the in-process evaluator records them before its exception propagates.
  void serveRestart(WireReader& req, const WorkerPool::ChildChannel& ch,
                    ChildRunCollector& collector) const {
    const std::uint64_t trial = req.u64();
    SweepCapture input;
    decodeRestartInput(req, input, ch.arena(), ch.arenaBytes());
    CrashTestRecord record;
    std::string error;
    bool failed = false;
    try {
      runner.runRestart(golden, input, static_cast<std::size_t>(trial), nullptr,
                        record);
    } catch (const std::bad_alloc&) {
      throw;  // childMain -> _exit(kWorkerOomExit)
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    }
    WireWriter resp;
    resp.u8('r');
    resp.u8(failed ? 1 : 0);
    collector.encode(resp);
    if (failed) {
      resp.str(error);
    } else {
      resp.u8(static_cast<std::uint8_t>(record.response));
      resp.i64(record.extraIterations);
      resp.str(record.note);
    }
    ch.send(resp.take());
  }

  /// The sweep crashing run, child side: stream each capture as a 'c' frame
  /// and wait for the parent's 'A' ack (that handshake IS the restart-queue
  /// backpressure), then ship the 'e' summary with the run's failure fields.
  void serveSweep(WireReader& req, const WorkerPool::ChildChannel& ch,
                  ChildRunCollector& collector) const {
    const std::uint64_t count = req.u64();
    std::vector<std::uint64_t> indices(static_cast<std::size_t>(count));
    std::vector<std::uint64_t> trialCounts(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      indices[i] = req.u64();
      trialCounts[i] = req.u64();
    }
    const SweepOutcome outcome = runner.runSweep(
        golden, indices, trialCounts, nullptr, 0,
        [&ch](std::shared_ptr<SweepCapture> capture) {
          WireWriter frame;
          frame.u8('c');
          encodeCapture(frame, *capture, ch.arena(), ch.arenaBytes());
          ch.send(frame.take());
          std::string ack;
          return ch.recv(ack) && !ack.empty() && ack[0] == 'A';
        });
    WireWriter resp;
    resp.u8('e');
    resp.u8(outcome.completed ? 1 : 0);
    resp.u64(outcome.captured);
    resp.u8(outcome.failure ? 1 : 0);
    if (outcome.failure) {
      resp.str(outcome.failure->kind);
      resp.u8(outcome.failure->timeout ? 1 : 0);
      resp.str(outcome.failure->reason);
      resp.str(outcome.failure->regionPath);
    }
    collector.encode(resp);
    ch.send(resp.take());
  }
};

CampaignResult CampaignRunner::run() const {
  const ResilienceConfig& res = config_.resilience;
  EC_CHECK_MSG(config_.shard.count >= 1 && config_.shard.index >= 0 &&
                   config_.shard.index < config_.shard.count,
               "shard index outside [0, count)");
  if (telemetry::tracing()) {
    telemetry::TraceEvent event("campaign_begin");
    event.field("tests", config_.numTests)
        .field("seed", config_.seed)
        .field("mode", config_.mode == SnapshotMode::NvmImage ? "nvm" : "coherent")
        .field("plan_points", static_cast<std::uint64_t>(config_.plan.points.size()));
    if (config_.shard.active()) {
      event.field("shard", config_.shard.index).field("shards", config_.shard.count);
    }
    event.emit();
  }

  // Parse any resume journal before spending time on the golden run, so a
  // bad path/file fails fast.
  std::optional<JournalReplay> replay;
  if (!res.resumePath.empty()) replay = readJournal(res.resumePath);

  {
    // A runner can be reused; each run() aggregates its own profile.
    std::lock_guard<std::mutex> lock(profileMutex_);
    profile_ = CampaignProfile{};
  }

  CampaignResult result;
  result.plannedTests = config_.numTests;
  monitorState_ = MonitorSummary{};

  // Sampled monitoring: the adaptive region monitor rides the golden run in
  // the parent, before any crash index is drawn or worker forked — summary
  // and demotion set are identical at any --threads and --isolation. The
  // monitor samples the access stream, so windowAccesses — and with it the
  // whole pre-drawn crash sequence — is identical to a full-monitoring
  // campaign even when the golden run goes direct (monitor.trackedGolden
  // unset): the stream does not depend on the cache simulation.
  std::optional<memsim::RegionMonitor> monitor;
  if (config_.monitor.mode == MonitorMode::Sampled) {
    memsim::RegionMonitorConfig monitorConfig;
    monitorConfig.seed = config_.seed;
    monitorConfig.sampleInterval = config_.monitor.sampleInterval;
    monitorConfig.maxRegionsPerObject = config_.monitor.maxRegionsPerObject;
    monitorConfig.aggregateEvery = config_.monitor.aggregateEvery;
    monitor.emplace(monitorConfig);
  }

  const auto goldenStart = std::chrono::steady_clock::now();
  result.golden = goldenRun(monitor ? &*monitor : nullptr);
  const auto goldenMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - goldenStart)
                            .count();
  EC_CHECK_MSG(result.golden.windowAccesses > 0, "empty crash window");

  if (monitor) buildMonitorSummary(*monitor, result.golden);
  result.monitor = monitorState_;

  // Pre-draw every crash point so the campaign is identical regardless of
  // the number of worker threads — and so a resumed campaign re-draws the
  // exact sequence and only executes the trials the journal is missing.
  Rng rng(config_.seed);
  std::vector<std::uint64_t> crashIndices(static_cast<std::size_t>(config_.numTests));
  for (auto& index : crashIndices) {
    index = rng.between(1, result.golden.windowAccesses);
  }
  const std::size_t n = crashIndices.size();

  // Sharding (--shard i/k): everything above — golden run, monitor pre-pass,
  // the full pre-drawn crash sequence — is identical on every shard; only
  // the trial execution below is partitioned. Trial t belongs to shard
  // t % k, so the slices are disjoint and their union is the unsharded set.
  const ShardConfig& shard = config_.shard;
  const auto owned = [&shard](std::size_t t) { return shard.owns(t); };
  std::size_t ownedCount = n;
  if (shard.active()) {
    ownedCount = 0;
    for (std::size_t t = 0; t < n; ++t) {
      if (owned(t)) ++ownedCount;
    }
    CampaignMetrics::get().shardOwnedTrials.add(ownedCount);
    EC_LOG_INFO("shard " << shard.index << "/" << shard.count << " owns "
                         << ownedCount << " of " << n << " trials");
  }

  JournalHeader header;
  header.app = config_.appLabel;
  header.seed = config_.seed;
  header.tests = config_.numTests;
  header.mode = config_.mode == SnapshotMode::NvmImage ? "nvm" : "coherent";
  header.planFingerprint = planFingerprint(config_.plan);
  header.windowAccesses = result.golden.windowAccesses;
  header.monitor = monitorState_.active ? "sampled" : "";
  if (shard.active()) {
    // Self-describing shard journal: coordinates, the campaign fingerprint
    // over the identity fields, and the candidate list `nvct merge` needs to
    // rebuild the CSV without re-running the app. Unsharded headers carry
    // none of this (byte-identical to pre-sharding journals).
    header.shardIndex = shard.index;
    header.shardCount = shard.count;
    header.campaignHash = campaignHash(header);
    for (const auto& object : result.golden.objects) {
      if (object.candidate) {
        header.candidates.push_back(JournalCandidate{object.id, object.name});
      }
    }
  }

  // Per-index decision slots. A trial is decided once it has a record or a
  // failure; interruption simply leaves the rest unset.
  std::vector<std::optional<CrashTestRecord>> records(n);
  std::vector<std::optional<TrialFailure>> failures(n);

  std::size_t resumedTrials = 0;
  std::size_t resumedFailures = 0;
  if (replay) {
    checkHeaderMatches(replay->header, header, res.resumePath);
    for (auto& [trial, record] : replay->trials) {
      if (trial >= n) {
        throw std::runtime_error("--resume " + res.resumePath +
                                 ": trial index out of range");
      }
      EC_CHECK_MSG(record.crashAccessIndex == crashIndices[trial],
                   "resumed journal crash point diverges from the re-drawn "
                   "sequence — journal does not belong to this campaign");
      records[trial] = std::move(record);
      ++resumedTrials;
    }
    for (auto& [trial, failure] : replay->failures) {
      if (trial >= n) {
        throw std::runtime_error("--resume " + res.resumePath +
                                 ": failure index out of range");
      }
      failures[trial] = std::move(failure);
      ++resumedFailures;
    }
    CampaignMetrics::get().resumedTrials.add(resumedTrials);
    EC_LOG_INFO("resumed " << resumedTrials << " trials and " << resumedFailures
                           << " failures from " << res.resumePath);
    if (telemetry::tracing()) {
      telemetry::TraceEvent("campaign_resumed")
          .field("journal", res.resumePath)
          .field("trials", static_cast<std::uint64_t>(resumedTrials))
          .field("failures", static_cast<std::uint64_t>(resumedFailures))
          .emit();
    }
  }

  std::optional<TrialJournal> journal;
  if (!res.journalPath.empty()) {
    journal.emplace(res.journalPath, header, res.journalFlushEvery);
    for (std::size_t t = 0; t < n; ++t) {
      if (records[t]) journal->recordTrial(t, *records[t]);
      else if (failures[t]) journal->recordFailure(*failures[t]);
    }
    journal->flush();  // always leave a resumable file behind, even header-only
  }

  // Progress, percentage and ETA all count the shard-local slice: a shard
  // that owns N/k trials is "done" at N/k decided, and its ETA reflects its
  // own remaining work, not the fleet's.
  telemetry::ProgressMeter meter(
      (config_.appLabel.empty() ? "campaign" : config_.appLabel) + " trials",
      ownedCount, config_.progress ? &std::cerr : nullptr);
  std::mutex tallyMutex;
  std::array<int, 4> tally{};
  std::size_t done = 0;
  for (const auto& record : records) {
    if (record) tally[static_cast<int>(record->response)] += 1;
  }
  done = resumedTrials + resumedFailures;
  // The ETA rate must count only trials this process actually ran: resumed
  // trials landed instantly and would otherwise skew the estimate.
  meter.setBaseline(done);
  if (config_.progress && done > 0) meter.update(done, responseTally(tally));
  // Called for every newly decided trial (completion or permanent failure).
  // Progress is throttled to percentage-point or >=100 ms boundaries: with
  // small trials at high --threads, having every decided trial format a
  // tally string and serialise on the meter is measurable overhead.
  std::size_t lastPercent = ownedCount == 0 ? 0 : done * 100 / ownedCount;
  auto lastEmit = std::chrono::steady_clock::now();
  const auto recordDecided = [&](const CrashTestRecord* record) {
    std::array<int, 4> counts{};
    std::size_t doneNow = 0;
    bool emit = false;
    {
      std::lock_guard<std::mutex> lock(tallyMutex);
      if (record != nullptr) tally[static_cast<int>(record->response)] += 1;
      doneNow = ++done;
      if (config_.progress) {
        const std::size_t percent = ownedCount == 0 ? 100 : doneNow * 100 / ownedCount;
        const auto now = std::chrono::steady_clock::now();
        if (doneNow == ownedCount || percent != lastPercent ||
            now - lastEmit >= std::chrono::milliseconds(100)) {
          lastPercent = percent;
          lastEmit = now;
          counts = tally;
          emit = true;
        }
      }
    }
    if (emit) meter.update(doneNow, responseTally(counts));
  };

  int threads = config_.threads == 0
                    ? static_cast<int>(std::thread::hardware_concurrency())
                    : config_.threads;
  threads = std::max(1, std::min<int>(threads, std::max(1, config_.numTests)));

  // The sweep's capture plan: each distinct crash index, ascending, with the
  // undecided trials that drew it. Duplicate indices (several trials drawing
  // the same crash point) share one capture. Decided (resumed) trials never
  // re-enter. Sharded, the sweep captures only the crash points this shard's
  // owned trials drew; duplicate indices whose trials straddle shards are
  // captured independently on each shard — the capture is deterministic, so
  // the decided records still merge byte-identically.
  struct PlannedPoint {
    std::uint64_t index = 0;
    std::vector<std::size_t> trials;
  };
  std::vector<PlannedPoint> plan;
  {
    std::map<std::uint64_t, std::vector<std::size_t>> byIndex;
    for (std::size_t t = 0; t < n; ++t) {
      if (owned(t) && !records[t] && !failures[t]) byIndex[crashIndices[t]].push_back(t);
    }
    for (auto& [index, trials] : byIndex) plan.push_back({index, std::move(trials)});
  }

  // Process isolation: the fork evaluator runs every crashing run / restart
  // in a pre-forked worker child; any child death is classified into a
  // TrialFailure kind instead of taking the campaign down.
  const bool forkIsolation = res.isolation == IsolationMode::Fork && res.isolate;

  // Watchdog deadline base: explicit --trial-timeout-ms wins; otherwise a
  // golden run multiple. The base is the budget for ONE golden run's worth
  // of work: the sweep re-arms it at every capture, and each restart scales
  // it by its expected work (restartBudget below), so the deadline tracks
  // what the attempt actually owes instead of assuming the worst case.
  // Under fork isolation the deadline is enforced by the parent with a hard
  // SIGKILL of the child (WorkerPool::recv), so no cooperative watchdog —
  // or compiled-in cancellation poll — is needed: even a hung busy loop
  // that never reaches a poll is reclaimed.
  std::optional<Watchdog> watchdog;
  std::uint64_t timeoutMs = 0;
  if (res.isolate && (res.trialTimeoutMs > 0 || res.goldenTimeoutMultiple > 0)) {
    if (!forkIsolation && !runtime::kWatchdogCompiledIn) {
      EC_LOG_WARN(
          "trial watchdog requested but the cancellation poll is compiled out "
          "(EASYCRASH_WATCHDOG=OFF); deadlines are disabled");
    } else {
      // Under sampled monitoring the golden run is direct-mode and several
      // times cheaper than the tracked crashing runs the deadline must
      // cover; scale the base so --timeout-golden-multiple keeps its
      // tracked-golden meaning.
      const double timeoutBaseMs =
          static_cast<double>(goldenMs) *
          (monitor && !config_.monitor.trackedGolden ? 10.0 : 1.0);
      timeoutMs = res.trialTimeoutMs > 0
                      ? res.trialTimeoutMs
                      : std::max<std::uint64_t>(
                            1000, static_cast<std::uint64_t>(
                                      timeoutBaseMs * res.goldenTimeoutMultiple));
      // One slot per restart worker plus one for the producer's crashing
      // run (re-armed at every capture, suspended while parked on restart
      // backpressure).
      if (!forkIsolation) {
        watchdog.emplace(std::chrono::milliseconds(timeoutMs), threads + 1);
      }
    }
  }

  std::atomic<int> failureCount{static_cast<int>(resumedFailures)};
  std::atomic<std::uint64_t> retryCount{0};
  std::atomic<std::uint64_t> timeoutCount{0};
  std::atomic<bool> budgetExceeded{false};
  std::atomic<int> newlyCompleted{0};
  // Without isolation an exception must abort the campaign, but letting it
  // escape a pool thread would terminate the process: the first one is
  // parked here and rethrown on the calling thread after the join.
  std::atomic<bool> workersAbort{false};
  std::exception_ptr firstError;
  std::mutex errorMutex;
  const auto parkError = [&] {
    {
      std::lock_guard<std::mutex> lock(errorMutex);
      if (!firstError) firstError = std::current_exception();
    }
    workersAbort.store(true);
  };
  // Every evaluator loop stops taking new work once this holds.
  const auto halted = [&] {
    return stopRequested() || budgetExceeded.load() || workersAbort.load();
  };

  // Candidate bytes of one capture (probed on an un-simulated setup): sizes
  // the sweep queue's backpressure window and the fork workers' snapshot
  // arenas.
  std::size_t captureBytes = 0;
  if (!plan.empty()) {
    Runtime probe;
    auto app = factory_();
    app->setup(probe);
    for (const auto& object : probe.objects()) {
      if (object.candidate) captureBytes += object.bytes;
    }
  }

  // --- Fork evaluator: pre-forked worker pool ---------------------------
  // One slot per restart worker plus one for the producer's crashing run.
  // Forked AFTER the golden run and the sweep plan so children inherit every
  // immutable input by memory (config, plan, golden stats) — respawned
  // workers fork from the same immutable state, so a replacement child is
  // indistinguishable from the original. Declared before the status writer:
  // the sampler dereferences the pool, so the pool must outlive it.
  std::atomic<std::uint64_t> workerDeaths{0};
  ForkChildServer childServer{*this, result.golden};
  std::unique_ptr<WorkerPool> pool;
  if (forkIsolation && !plan.empty()) {
    const std::size_t arenaBytes =
        kBlackBoxBytes + captureBytes + captureBytes / 8 + 4096;
    WorkerPool::ForkHooks hooks;
    // Never fork while another campaign thread holds the trace or metrics
    // lock: the child would inherit a locked mutex it can never unlock.
    hooks.prepare = [] {
      telemetry::TraceSink::instance().lockForFork();
      telemetry::MetricsRegistry::instance().lockForFork();
    };
    hooks.parent = [] {
      telemetry::MetricsRegistry::instance().unlockAfterFork();
      telemetry::TraceSink::instance().unlockAfterFork();
    };
    hooks.child = [](int) {
      telemetry::MetricsRegistry::instance().unlockAfterFork();
      telemetry::TraceSink::instance().unlockAfterFork();
      // Reroute trace lines into a buffer the response frames ship to the
      // parent; the parent's stream (and its buffered bytes) stay its own.
      g_childTraceBuf = new std::ostringstream();
      telemetry::TraceSink::instance().redirectInForkedChild(g_childTraceBuf);
    };
    pool = std::make_unique<WorkerPool>(
        threads + 1, arenaBytes,
        [&childServer](int slot, const std::string& request,
                       const WorkerPool::ChildChannel& ch) {
          childServer.serve(slot, request, ch);
        },
        hooks);
    CampaignMetrics::get().workerSpawns.add(pool->spawnCount());
  }

  // Live status snapshots (docs/OBSERVABILITY.md): a background thread
  // samples the campaign's shared tallies on an interval and atomically
  // rewrites the snapshot file; run() writes one final done/interrupted
  // snapshot after the drain, so a SIGINT'd campaign leaves the truth behind.
  const auto campaignStart = std::chrono::steady_clock::now();
  const std::size_t resumedDone = resumedTrials + resumedFailures;
  std::optional<StatusWriter> status;
  if (!config_.statusPath.empty()) {
    status.emplace(
        config_.statusPath,
        std::chrono::milliseconds(std::max(1, config_.statusIntervalMs)),
        [&, resumedDone] {
          CampaignStatus s;
          s.app = config_.appLabel;
          // Shard-local totals: `tests` is this shard's owned slice, so
          // decided/tests and the ETA describe THIS process's work — a
          // fleet watcher sums the slices (they partition [0, N)).
          s.plannedTests = static_cast<int>(ownedCount);
          s.shardIndex = shard.index;
          s.shardCount = shard.count;
          {
            std::lock_guard<std::mutex> lock(tallyMutex);
            s.decided = done;
            s.responses = tally;
          }
          s.resumed = resumedDone;
          s.failures = static_cast<std::uint64_t>(std::max(0, failureCount.load()));
          s.retries = retryCount.load();
          s.timeouts = timeoutCount.load();
          s.queueDepth = static_cast<std::uint64_t>(
              std::max(0.0, CampaignMetrics::get().sweepQueueDepth.value()));
          if (pool) {
            s.workers = static_cast<std::uint64_t>(std::max(0, pool->aliveCount()));
          }
          s.workerDeaths = workerDeaths.load();
          s.elapsedS = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - campaignStart)
                           .count();
          const std::uint64_t fresh =
              s.decided > s.resumed ? s.decided - s.resumed : 0;
          if (s.elapsedS > 0.0 && fresh > 0) {
            s.trialsPerS = static_cast<double>(fresh) / s.elapsedS;
            if (ownedCount >= s.decided) {
              s.etaS = static_cast<double>(ownedCount - s.decided) / s.trialsPerS;
            }
          }
          s.interrupted = stopRequested();
          return s;
        });
  }

  // A restart's watchdog budget in base-timeout units (--trial-timeout-ms or
  // the golden multiple stays the base): it owes the iterations from its
  // bookmark up to the iteration cap. Without this scaling a restart from an
  // early bookmark times out under a deadline that is ample for the average.
  const auto restartBudget = [&](const SweepCapture& capture) {
    const int cap = result.golden.finalIteration * config_.maxIterationFactor;
    return static_cast<double>(cap - capture.restartIteration) /
           static_cast<double>(std::max(1, result.golden.finalIteration));
  };

  // --- Fork evaluator, parent side --------------------------------------

  // Scale the base deadline by the attempt's work budget, exactly as the
  // in-process watchdog arms it. Zero = no deadline.
  const auto forkDeadline = [&](double budget) {
    if (timeoutMs == 0) return std::chrono::milliseconds(0);
    const double ms = static_cast<double>(timeoutMs) * std::max(1.0, budget);
    return std::chrono::milliseconds(static_cast<std::int64_t>(ms) + 1);
  };

  // Account one consumed worker death: counters, live status, worker_exit
  // trace (slot, pid, classification) for the flight recorder.
  const auto noteWorkerDeath = [&](int slot, pid_t pid,
                                   const WorkerPool::Reply& reply) {
    workerDeaths.fetch_add(1);
    if (reply.timedOut || reply.death == WorkerDeath::Killed) {
      CampaignMetrics::get().workerKills.add();
    } else {
      CampaignMetrics::get().workerCrashes.add();
    }
    if (telemetry::tracing()) {
      telemetry::TraceEvent("worker_exit")
          .field("slot", slot)
          .field("pid", static_cast<std::int64_t>(pid))
          .field("death", toString(reply.death))
          .field("signal", reply.signal)
          .field("exit_code", reply.exitStatus)
          .field("timeout", reply.timedOut)
          .emit();
    }
  };

  // Deliberate parent-side kill (stop/abort drain, desynchronized stream):
  // consume the death like any other so the books stay balanced.
  const auto killWorker = [&](int slot) {
    if (!pool->alive(slot)) return;
    const pid_t pid = pool->pid(slot);
    pool->kill(slot);
    WorkerPool::Reply reply;
    reply.death = WorkerDeath::Killed;
    reply.signal = SIGKILL;
    noteWorkerDeath(slot, pid, reply);
  };

  // Ready slot w for a request: respawn a dead worker — accounting the
  // respawn (counters and the worker_respawn trace event) wherever it
  // happens — and clear its black box so a stale fault report can never be
  // attributed to this request's death. Returns the live worker's pid.
  const auto ensureWorker = [&](int w) -> pid_t {
    bool respawned = false;
    if (!pool->ensureWorker(w, &respawned)) {
      throw AttemptFailure{"protocol", false, "worker fork failed", ""};
    }
    if (respawned) {
      CampaignMetrics::get().workerSpawns.add();
      CampaignMetrics::get().workerRespawns.add();
      if (telemetry::tracing()) {
        telemetry::TraceEvent("worker_respawn")
            .field("slot", w)
            .field("pid", static_cast<std::int64_t>(pool->pid(w)))
            .emit();
      }
    }
    reinterpret_cast<BlackBox*>(pool->arena(w))->magic = 0;
    return pool->pid(w);
  };

  // Receive one frame from slot w's worker within `deadline`. Throws
  // AttemptFailure on any classified death.
  const auto forkRecv = [&](int w, pid_t pid, std::chrono::milliseconds deadline) {
    WorkerPool::Reply reply = pool->recv(w, deadline);
    if (!reply.ok) {
      noteWorkerDeath(w, pid, reply);
      throw classifyDeath(reply, timeoutMs, pool->arena(w));
    }
    return std::move(reply.frame);
  };

  // Fold the accounting a worker shipped (ChildRunCollector::encode) into
  // the parent: splice its trace, record its simulated runs, re-add its
  // crash injections, merge its profile and phase histograms.
  const auto absorbChildRuns = [&](WireReader& r) {
    const std::string trace = r.str();
    if (!trace.empty()) telemetry::TraceSink::instance().writeRaw(trace);
    CampaignMetrics::get().recordRun(decodeEvents(r));
    const std::uint64_t crashed = r.u64();
    if (crashed > 0) {
      telemetry::MetricsRegistry::instance()
          .counter("runtime.crash_injections")
          .add(crashed);
    }
    if (r.u8() != 0) {
      const CampaignProfile shipped = decodeProfile(r);
      std::lock_guard<std::mutex> lock(profileMutex_);
      profile_.merge(shipped);
    }
    for (telemetry::Histogram* h : childPhaseHistograms()) {
      const double sum = r.f64();
      if (r.u64() != h->bounds().size() + 1) {
        throw std::runtime_error("wire: histogram shape mismatch");
      }
      std::vector<std::uint64_t> buckets(h->bounds().size() + 1);
      for (std::uint64_t& b : buckets) b = r.u64();
      h->merge(buckets, sum);
    }
  };

  // The restart of trial t in a worker: ship only the restart input and
  // copy the reply's outcome onto `record`, which the caller stamped with
  // the trial's own capture — so a restart that throws names the stamped
  // crash site, as it does in-process. A reply that does not decode is a
  // protocol death: the stream may be desynchronized, so the worker is
  // killed and the next attempt starts fresh.
  const auto forkRestartAttempt = [&](std::size_t t, int w, const SweepCapture& input,
                                      double budget, CrashTestRecord& record) {
    const pid_t pid = ensureWorker(w);
    WireWriter req;
    req.u8('R');
    req.u64(t);
    encodeRestartInput(req, input, pool->arena(w), pool->arenaBytes());
    (void)pool->send(w, req.take());  // a dead worker surfaces in recv()
    const std::string frame = forkRecv(w, pid, forkDeadline(budget));
    try {
      WireReader r(frame);
      if (r.u8() != 'r') throw std::runtime_error("unexpected reply tag");
      const std::uint8_t status = r.u8();
      absorbChildRuns(r);
      if (status != 0) {
        throw AttemptFailure{"exception", false, r.str(),
                             formatRegionPath(record.regionPath)};
      }
      const std::uint8_t response = r.u8();
      if (response > static_cast<std::uint8_t>(Response::S4)) {
        throw std::runtime_error("response class out of range");
      }
      record.response = static_cast<Response>(response);
      record.extraIterations = static_cast<int>(r.i64());
      record.note = r.str();
    } catch (const std::exception& e) {
      killWorker(w);
      throw AttemptFailure{"protocol", false,
                           std::string("worker reply malformed: ") + e.what(), ""};
    }
  };

  // Completion bookkeeping of a trial whose record is in place: counters and
  // trial_end trace, journal, progress, and the --stop-after hook.
  const auto commitDecided = [&](std::size_t t) {
    commitTrial(t, *records[t]);
    if (journal) journal->recordTrial(t, *records[t]);
    recordDecided(&*records[t]);
    const int completedNow = newlyCompleted.fetch_add(1) + 1;
    if (res.stopAfterTrials > 0 && completedNow >= res.stopAfterTrials) {
      requestStop();
    }
  };

  // Charge one failed attempt (1-based) to trial t, whether a restart of t
  // or the sweep crashing run that died on t's crash point: count it, then
  // either back off before the retry or, once the attempts are spent,
  // record the trial's TrialFailure against the --max-trial-failures budget.
  const int maxAttempts = 1 + std::max(0, res.maxRetries);
  const auto chargeAttempt = [&](std::size_t t, int attempt, const AttemptFailure& f) {
    if (f.timeout) {
      CampaignMetrics::get().trialTimeouts.add();
      timeoutCount.fetch_add(1);
    }
    if (attempt < maxAttempts) {
      CampaignMetrics::get().trialRetries.add();
      retryCount.fetch_add(1);
      EC_LOG_DEBUG("trial " << t << " attempt " << attempt << " failed ("
                            << f.reason << "), retrying");
      const std::uint64_t backoff = retryBackoffMs(res, config_.seed, t, attempt);
      if (backoff > 0) {
        CampaignMetrics::get().retryBackoff.observe(static_cast<double>(backoff));
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
      return;
    }
    TrialFailure failure;
    failure.trial = t;
    failure.crashAccessIndex = crashIndices[t];
    failure.timeout = f.timeout;
    failure.attempts = attempt;
    failure.reason = f.reason;
    failure.regionPath = f.regionPath;
    failure.kind = f.kind;
    CampaignMetrics::get().trialFailures.add();
    EC_LOG_WARN("trial " << t << " abandoned after " << attempt
                         << " attempt(s): " << f.reason);
    if (telemetry::tracing()) {
      telemetry::TraceEvent("trial_failed")
          .field("trial", static_cast<std::uint64_t>(t))
          .field("crash_access", failure.crashAccessIndex)
          .field("kind", failure.kind)
          .field("timeout", failure.timeout)
          .field("attempts", failure.attempts)
          .field("reason", failure.reason)
          .emit();
    }
    failures[t] = failure;
    if (journal) journal->recordFailure(failure);
    const int count = failureCount.fetch_add(1) + 1;
    if (res.maxFailures >= 0 && count > res.maxFailures) budgetExceeded.store(true);
    recordDecided(nullptr);
  };

  // --- Single-sweep evaluator -------------------------------------------
  // A sweep crashing run visits every pending crash point in ascending order
  // and captures it read-only (runSweep); restarts are consumed concurrently
  // by the worker pool, overlapping with the sweep itself.

  // Parent side of every capture, whichever process took it: count it and
  // queue the restarts of the trials that drew it. False ends the sweep.
  const auto queueCapture = [&](RestartQueue& queue, std::shared_ptr<SweepCapture> capture,
                                std::size_t point) {
    CampaignMetrics::get().sweepCaptures.add();
    return !halted() && queue.push(std::move(capture), plan[point].trials);
  };

  // The crash indices and trial counts of the plan from point `head` on.
  const auto sweepRequest = [&](std::size_t head) {
    std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>> points;
    for (std::size_t p = head; p < plan.size(); ++p) {
      points.first.push_back(plan[p].index);
      points.second.push_back(plan[p].trials.size());
    }
    return points;
  };

  // One sweep from `head` in this process, on the producer's watchdog slot.
  const auto inProcessSweep = [&](RestartQueue& queue, int slot, std::size_t head) {
    const auto [indices, trialCounts] = sweepRequest(head);
    std::size_t point = head;
    const std::atomic<bool>* cancel = watchdog ? &watchdog->arm(slot) : nullptr;
    const SweepOutcome outcome = runSweep(
        result.golden, indices, trialCounts, cancel, timeoutMs,
        [&](std::shared_ptr<SweepCapture> capture) {
          // Waiting on a full queue is restart backpressure, not a hung
          // simulation: suspend the sweep's deadline while parked.
          if (watchdog) watchdog->disarm(slot);
          const bool queued = queueCapture(queue, std::move(capture), point++);
          if (watchdog) watchdog->arm(slot);
          return queued;
        });
    if (watchdog) watchdog->disarm(slot);
    return outcome;
  };

  // One sweep from `head` in the slot's worker child (ForkChildServer),
  // which streams each capture back as a 'c' frame; the parent decodes it
  // out of the shared arena, queues the restarts, and acks — the ack
  // handshake IS the restart-queue backpressure the in-process sweep gets
  // from queue.push(). A worker death ends the sweep with its failure.
  const auto forkSweep = [&](RestartQueue& queue, int slot, std::size_t head) {
    SweepOutcome outcome;
    try {
      const pid_t pid = ensureWorker(slot);
      const auto [indices, trialCounts] = sweepRequest(head);
      WireWriter req;
      req.u8('S');
      req.u64(indices.size());
      for (std::size_t i = 0; i < indices.size(); ++i) {
        req.u64(indices[i]);
        req.u64(trialCounts[i]);
      }
      (void)pool->send(slot, req.take());
      for (;;) {
        const std::string frame = forkRecv(slot, pid, forkDeadline(1.0));
        WireReader r(frame);
        const std::uint8_t tag = r.u8();
        if (tag == 'c') {
          auto capture = std::make_shared<SweepCapture>(
              decodeCapture(r, pool->arena(slot), pool->arenaBytes()));
          const std::size_t point = head + outcome.captured;
          EC_CHECK_MSG(point < plan.size() && plan[point].index == capture->crashAccessIndex,
                       "fork sweep: capture out of order");
          ++outcome.captured;
          // A non-'A' ack tells the child to wind down; it still ships its
          // 'e' summary so the crashing run's events are accounted.
          const bool keepGoing = queueCapture(queue, std::move(capture), point);
          (void)pool->send(slot, std::string(keepGoing ? "A" : "X"));
        } else if (tag == 'e') {
          outcome.completed = r.u8() != 0;
          if (r.u64() != outcome.captured) {
            throw std::runtime_error("fork sweep: capture count mismatch");
          }
          if (r.u8() != 0) {
            AttemptFailure& f = outcome.failure.emplace();
            f.kind = r.str();
            f.timeout = r.u8() != 0;
            f.reason = r.str();
            f.regionPath = r.str();
          }
          absorbChildRuns(r);
          return outcome;
        } else {
          throw std::runtime_error("fork sweep: unexpected frame tag");
        }
      }
    } catch (AttemptFailure& f) {
      outcome.failure = std::move(f);
    } catch (const std::exception& e) {
      killWorker(slot);
      outcome.failure = AttemptFailure{
          "protocol", false, std::string("worker reply malformed: ") + e.what(), ""};
    }
    return outcome;
  };

  // The producer: sweep from the head — the first point no sweep has
  // captured yet — until a sweep reaches the last point. A sweep visits its
  // points in ascending order, so any death before the head's capture
  // happened on exactly the access sequence the head's own crashing run
  // replays: a sweep that dies charges one attempt to the head's trials, and
  // a fresh sweep restarts at the head. Once the head's attempts are spent
  // its trials fail for good and the next sweep starts at the point after
  // (docs/INTERNALS.md "The single-sweep trial evaluator").
  const auto produce = [&](RestartQueue& queue, int slot) {
    std::size_t head = 0;
    int attempts = 0;  // deaths charged to the head so far
    while (head < plan.size() && !halted()) {
      CampaignMetrics::get().sweepRuns.add();
      const std::size_t planned = plan.size() - head;
      const SweepOutcome outcome =
          forkIsolation ? forkSweep(queue, slot, head) : inProcessSweep(queue, slot, head);
      if (telemetry::tracing()) {
        telemetry::TraceEvent("sweep_end")
            .field("run", "sweep")
            .field("captures", static_cast<std::uint64_t>(outcome.captured))
            .field("planned", static_cast<std::uint64_t>(planned))
            .field("completed", outcome.completed)
            .emit();
      }
      if (outcome.captured > 0) {
        head += outcome.captured;
        attempts = 0;
      }
      if (!outcome.failure || head >= plan.size()) return;
      const AttemptFailure& f = *outcome.failure;
      ++attempts;
      EC_LOG_WARN("sweep run died (" << f.reason << ") after " << outcome.captured
                  << "/" << planned << " capture(s); charging attempt " << attempts
                  << " to crash point " << plan[head].index);
      for (const std::size_t t : plan[head].trials) chargeAttempt(t, attempts, f);
      if (attempts >= maxAttempts) {
        ++head;
        attempts = 0;
      }
      CampaignMetrics::get().sweepFallbacks.add(plan.size() - head);
    }
  };

  // The restart of trial t from a sweep capture: stamp the trial's own crash
  // context, then restart from `input` — its group leader's capture, whose
  // restart input is byte-identical to the trial's own — honouring
  // isolation, the watchdog (armed with the restart's budget) and the retry
  // budget. Exceptions propagate only when isolation is off (the legacy
  // all-or-nothing behaviour).
  const auto decideRestart = [&](std::size_t t, const SweepCapture& capture,
                                 const SweepCapture& input, int w) {
    CampaignMetrics::get().restartMemoMisses.add();
    const double budget = restartBudget(input);
    for (int attempt = 1;; ++attempt) {
      std::atomic<bool>* cancel = watchdog ? &watchdog->arm(w, budget) : nullptr;
      CrashTestRecord record;
      std::optional<AttemptFailure> failure;
      try {
        telemetry::ScopedTimer trialTimer(CampaignMetrics::get().trialUs);
        stampCapture(capture, record);
        if (forkIsolation) {
          forkRestartAttempt(t, w, input, budget, record);
        } else {
          runRestart(result.golden, input, t, cancel, record);
        }
      } catch (...) {
        if (!res.isolate) throw;
        failure = currentFailure(record.regionPath, timeoutMs);
      }
      if (watchdog) watchdog->disarm(w);
      if (!failure) {
        records[t] = std::move(record);
        commitDecided(t);
        return;
      }
      chargeAttempt(t, attempt, *failure);
      if (attempt >= maxAttempts) return;
    }
  };

  // One restart decides the group (docs/INTERNALS.md "Restart grouping"):
  // when the leader's restart succeeds, every follower's record is its own
  // capture stamped with the leader's outcome. A failure or timeout is never
  // shared — each follower then runs its own restart through decideRestart,
  // so its kind, attempts, retries and backoff match a lone trial's. A stop
  // is honoured between members; the members it leaves undecided resume
  // like any other undecided trial.
  const auto decideGroup = [&](const RestartGroup& group, int w) {
    const SweepCapture& input = group.input();
    const std::size_t leader = group.members.front().trial;
    for (const RestartGroup::Member& member : group.members) {
      if (halted()) return;
      if (member.trial == leader || !records[leader]) {
        decideRestart(member.trial, *member.capture, input, w);
        continue;
      }
      CrashTestRecord record;
      stampCapture(*member.capture, record);
      copyOutcome(*records[leader], record);
      records[member.trial] = std::move(record);
      CampaignMetrics::get().restartMemoHits.add();
      commitDecided(member.trial);
    }
  };

  // Restart worker: drain the restart groups. A stop request abandons the
  // queued groups (draining them would decide most of the campaign after
  // the operator asked it to stop); in-flight restarts finish and are
  // journaled.
  const auto restartWorker = [&](RestartQueue& queue, int w) {
    try {
      for (;;) {
        if (halted()) {
          queue.abort();
          return;
        }
        const std::optional<RestartGroup> group = queue.pop();
        if (!group) return;
        decideGroup(*group, w);
      }
    } catch (...) {
      parkError();
      queue.abort();
    }
  };

  if (!plan.empty()) {
    // Queue depth, in restart groups, is the pipeline's overlap window: deep
    // enough that the sweep outruns the restart drain and the producer joins
    // the pool for most of the campaign, while backpressure bounds live
    // snapshot memory (~64 MB of candidate bytes — each queued group keeps
    // one snapshot, its leader's) for large apps. Never below the
    // double-buffer floor that keeps every worker fed.
    constexpr std::size_t kSnapshotBudgetBytes = std::size_t{64} << 20;
    const std::size_t capacity =
        std::max(static_cast<std::size_t>(std::max(2, 2 * threads)),
                 kSnapshotBudgetBytes / std::max<std::size_t>(1, captureBytes));
    RestartQueue queue(capacity);
    std::vector<std::thread> restarters;
    restarters.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      restarters.emplace_back(restartWorker, std::ref(queue), w);
    }
    // The calling thread is the producer.
    try {
      produce(queue, threads);
    } catch (...) {
      parkError();
      queue.abort();
    }
    queue.close();
    // The producer has nothing left to feed: join the restart pool on the
    // sweep's watchdog slot.
    restartWorker(queue, threads);
    for (auto& thread : restarters) thread.join();
  }

  if (journal) journal->close();

  if (firstError) std::rethrow_exception(firstError);

  if (budgetExceeded.load()) {
    throw std::runtime_error(
        "campaign aborted: " + std::to_string(failureCount.load()) +
        " trial failures exceeded the budget of " + std::to_string(res.maxFailures) +
        (res.journalPath.empty() ? "" : " — journal kept at " + res.journalPath));
  }

  // Only the owned slice owes a decision: an unowned trial left undecided is
  // another shard's work, not an interruption of this one.
  std::size_t undecided = 0;
  for (std::size_t t = 0; t < n; ++t) {
    if (owned(t) && !records[t] && !failures[t]) ++undecided;
  }
  result.interrupted = undecided > 0;
  if (result.interrupted) {
    EC_LOG_WARN("campaign interrupted: " << (ownedCount - undecided) << "/"
                                         << ownedCount << " trials decided"
                                         << (stopSignal() != 0
                                                 ? " (signal " +
                                                       std::to_string(stopSignal()) + ")"
                                                 : ""));
    if (telemetry::tracing()) {
      telemetry::TraceEvent("campaign_interrupted")
          .field("decided", static_cast<std::uint64_t>(ownedCount - undecided))
          .field("remaining", static_cast<std::uint64_t>(undecided))
          .field("signal", stopSignal())
          .emit();
    }
  }

  result.resumedTrials = resumedTrials;
  for (std::size_t t = 0; t < n; ++t) {
    if (records[t]) {
      result.tests.push_back(std::move(*records[t]));
    } else if (failures[t]) {
      result.failures.push_back(std::move(*failures[t]));
    }
  }

  {
    std::lock_guard<std::mutex> lock(profileMutex_);
    result.profile = std::move(profile_);
    profile_ = CampaignProfile{};
  }

  if (status) status->writeFinal(result.interrupted);

  if (config_.progress && !result.interrupted) meter.finish(responseTally(tally));
  if (telemetry::tracing()) {
    const auto counts = result.responseCounts();
    telemetry::TraceEvent("campaign_end")
        .field("tests", static_cast<std::uint64_t>(result.tests.size()))
        .field("s1", counts[0])
        .field("s2", counts[1])
        .field("s3", counts[2])
        .field("s4", counts[3])
        .field("recomputability", result.recomputability())
        .field("failures", static_cast<std::uint64_t>(result.failures.size()))
        .field("interrupted", result.interrupted)
        .emit();
  }
  return result;
}

SweepOutcome CampaignRunner::runSweep(const GoldenStats& golden,
                                      const std::vector<std::uint64_t>& indices,
                                      const std::vector<std::uint64_t>& trialCounts,
                                      const std::atomic<bool>* cancel,
                                      std::uint64_t timeoutMs,
                                      const CaptureSink& sink) const {
  SweepOutcome outcome;
  Runtime rt(config_.cache);
  rt.setBulk(config_.bulk);
  rt.setScan(config_.scan);
  rt.setPlan(config_.plan);
  applyMonitorRouting(rt);
  rt.setCancelFlag(cancel);
  rt.setTraceRun("sweep");
  armProfile(rt);
  // A failed run must not throw past the accounting below; without
  // isolation the campaign aborts on the first exception, as it always has.
  const auto died = [&] {
    if (!config_.resilience.isolate) throw;
    outcome.failure = currentFailure(rt.throwRegionPath(), timeoutMs);
  };
  try {
    // One span covers the whole crashing run; per-capture post-mortems get
    // their own spans inside the hook.
    telemetry::PhaseSpan crashSpan("crash_run", CampaignMetrics::get().crashRunUs);
    auto app = factory_();
    app->setup(rt);
    app->initialize(rt);
    rt.armCrash(indices.back());
    installFault(rt);
    rt.armCaptures(indices, [&](const CrashEvent& at) {
      auto capture = std::make_shared<SweepCapture>();
      // The trial records the pre-drawn index it was armed for, while the
      // context fields come from the access that crossed it — identical to
      // what a CrashEvent armed at that index would carry.
      capture->crashAccessIndex = indices[outcome.captured];
      capture->region = at.activeRegion;
      capture->regionPath = at.regionPath;
      capture->crashIteration = at.iteration;
      {
        // NVCT post-mortem: inconsistency rates and the surviving bytes,
        // read before the caches are dropped. The sink's backpressure is
        // deliberately outside the span.
        telemetry::PhaseSpan postmortemSpan("postmortem",
                                            CampaignMetrics::get().postmortemUs);
        for (const auto& object : rt.objects()) {
          if (!object.candidate) continue;
          capture->inconsistentRate[object.id] = rt.inconsistentRate(object.id);
          capture->snapshots[object.id] = config_.mode == SnapshotMode::NvmImage
                                              ? rt.dumpObjectNvm(object.id)
                                              : rt.dumpObjectCurrent(object.id);
        }
        capture->restartIteration = config_.mode == SnapshotMode::NvmImage
                                        ? rt.bookmarkedIterationNvm()
                                        : at.iteration;
      }
      if (telemetry::tracing()) {
        telemetry::TraceEvent("sweep_capture")
            .field("run", rt.traceRun())
            .field("crash_access", capture->crashAccessIndex)
            .field("region", at.activeRegion)
            .field("iteration", at.iteration)
            .field("trials", trialCounts[outcome.captured])
            .emit();
      }
      ++outcome.captured;
      if (!sink(std::move(capture))) throw SweepAbort{};
    });
    (void)Driver::run(*app, rt, 1, golden.finalIteration);
    // Determinism guarantees the armed crash fires; reaching here is a bug
    // in the app (non-deterministic access sequence).
    EC_CHECK_MSG(false, "armed crash did not fire — app is non-deterministic");
  } catch (const CrashEvent&) {
    // The arranged end of the sweep: the last index was captured on this
    // very access, then the crash fired.
    outcome.completed = outcome.captured == indices.size();
  } catch (const SweepAbort&) {
    // The sink ended the run (stop, abort, or a withdrawn ack): not an error.
  } catch (const std::bad_alloc&) {
    if (g_childRunCollector != nullptr) throw;  // a worker child's OOM exit
    died();
  } catch (...) {
    died();
  }
  rt.powerLoss();
  noteRun(rt);
  return outcome;
}

void CampaignRunner::stampCapture(const SweepCapture& capture, CrashTestRecord& record) {
  record = CrashTestRecord{};
  record.crashAccessIndex = capture.crashAccessIndex;
  record.region = capture.region;
  record.regionPath = capture.regionPath;
  record.crashIteration = capture.crashIteration;
  record.restartIteration = capture.restartIteration;
  record.inconsistentRate = capture.inconsistentRate;
}

void CampaignRunner::runRestart(const GoldenStats& golden, const SweepCapture& input,
                                std::size_t trial, const std::atomic<bool>* cancel,
                                CrashTestRecord& record) const {
  telemetry::PhaseSpan restartSpan("restart", CampaignMetrics::get().restartUs,
                                   static_cast<std::int64_t>(trial));
  Runtime restartRt(config_.cache);
  // Restarts run in direct-access mode: their outcome (S1-S4, extra
  // iterations) depends only on computed values, which direct mode preserves
  // bit-for-bit, and the paper's restarts execute natively anyway — only the
  // crashing run's cache-vs-NVM divergence needs the hierarchy simulated.
  restartRt.setDirect(true);
  restartRt.setBulk(config_.bulk);
  restartRt.setScan(config_.scan);
  restartRt.setPlan(config_.plan);
  restartRt.setCancelFlag(cancel);
  restartRt.setTraceRun("restart:" + std::to_string(trial));
  auto restartApp = factory_();
  restartApp->setup(restartRt);
  restartApp->initialize(restartRt);
  for (const auto& [id, bytes] : input.snapshots) {
    restartRt.restoreObject(id, bytes);
  }

  const int cap = golden.finalIteration * config_.maxIterationFactor;
  const auto rerun =
      Driver::run(*restartApp, restartRt, input.restartIteration, cap);
  noteRun(restartRt);

  if (rerun.interrupted) {
    record.response = Response::S3;
    record.note = rerun.interruptReason;
  } else if (!rerun.verification.pass) {
    record.response = Response::S4;
    record.note = rerun.verification.detail;
  } else {
    record.extraIterations = rerun.finalIteration - golden.finalIteration;
    if (record.extraIterations <= 0) {
      record.extraIterations = 0;
      record.response = Response::S1;
    } else {
      record.response = Response::S2;
    }
    record.note = rerun.verification.detail;
  }
  // The trials/responses tallies and the trial_end trace are committed by
  // the parent (commitTrial) once the decision is final, so a forked
  // attempt's accounting lands campaign-side regardless of which process
  // simulated it.
}

}  // namespace easycrash::crash
