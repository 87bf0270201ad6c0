#include "easycrash/crash/campaign.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
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
#include "easycrash/crash/report.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/crash/status.hpp"
#include "easycrash/crash/worker_pool.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/telemetry/log.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "easycrash/telemetry/phase_span.hpp"
#include "easycrash/telemetry/timer.hpp"
#include "easycrash/telemetry/trace.hpp"
#include "convergence_memo.hpp"
#include "wire.hpp"

namespace easycrash::crash {

using runtime::CrashEvent;
using runtime::Driver;
using runtime::Runtime;
using runtime::RunKind;

namespace {

/// Mirrors of the MemEvents counters, accumulated over the golden run and
/// every sweep crashing run. These are the `memsim.*` counters in
/// --metrics-out (names from memsim::kMemEventCounters), so a metrics
/// snapshot correlates 1:1 with Table 4. Restarts are not counted: they run
/// direct, and how far each runs depends on which lane claimed a memo key
/// first.
struct CampaignMetrics {
  /// One per memsim::kMemEventCounters row, in its order.
  std::array<telemetry::Counter*, memsim::kMemEventCounters.size()> memsimCounters;
  telemetry::Counter& rangeAccesses;
  telemetry::Counter& trials;
  std::array<telemetry::Counter*, 4> responses;
  telemetry::Histogram& trialUs;
  telemetry::Counter& trialFailures;
  telemetry::Counter& trialRetries;
  telemetry::Counter& trialTimeouts;
  telemetry::Counter& resumedTrials;
  telemetry::Counter& sweepRuns;
  telemetry::Counter& sweepCaptures;
  telemetry::Counter& sweepFallbacks;
  /// Restart grouping: trials decided by their group leader's restart
  /// (followers), and restarts executed from sweep captures.
  telemetry::Counter& restartGroupFollowers;
  telemetry::Counter& restartsExecuted;
  /// Convergence memo: iteration ends keyed and looked up (checks), the
  /// restarts a golden or a trial key decided, the iterations those hits
  /// did not run, and the iterations restarts did run.
  telemetry::Counter& memoChecks;
  telemetry::Counter& memoGoldenHits;
  telemetry::Counter& memoTrialHits;
  telemetry::Counter& memoIterationsSkipped;
  telemetry::Counter& restartIterations;
  /// Fork evaluator: worker forks (initial + respawns), deaths the campaign
  /// consumed (split kill vs crash/oom/protocol), and respawns alone.
  telemetry::Counter& workerSpawns;
  telemetry::Counter& workerCrashes;
  telemetry::Counter& workerKills;
  telemetry::Counter& workerRespawns;
  /// Flight-recorder phase latencies (telemetry::PhaseSpan): the golden
  /// run, the crashing run up to the armed crash, the S1–S4 post-mortem
  /// capture, the restart.
  telemetry::Histogram& goldenUs;
  telemetry::Histogram& crashRunUs;
  telemetry::Histogram& postmortemUs;
  telemetry::Histogram& restartUs;
  /// Live depth of the sweep's restart hand-off queue.
  telemetry::Gauge& sweepQueueDepth;

  static CampaignMetrics& get() {
    auto& reg = telemetry::MetricsRegistry::instance();
    static CampaignMetrics m{
        [&reg] {
          std::array<telemetry::Counter*, memsim::kMemEventCounters.size()> counters{};
          for (std::size_t i = 0; i < counters.size(); ++i) {
            counters[i] = &reg.counter(memsim::kMemEventCounters[i].second);
          }
          return counters;
        }(),
        reg.counter("campaign.range_accesses"),
        reg.counter("campaign.trials"),
        {&reg.counter("campaign.responses.s1"), &reg.counter("campaign.responses.s2"),
         &reg.counter("campaign.responses.s3"), &reg.counter("campaign.responses.s4")},
        reg.histogram("campaign.trial_us",
                      telemetry::Histogram::exponentialBounds(100.0, 4.0, 12)),
        reg.counter("campaign.trial_failures"),
        reg.counter("campaign.trial_retries"),
        reg.counter("campaign.trial_timeouts"),
        reg.counter("campaign.resumed_trials"),
        reg.counter("campaign.sweep_runs"),
        reg.counter("campaign.sweep_captures"),
        reg.counter("campaign.sweep_fallbacks"),
        reg.counter("campaign.restart_group_followers"),
        reg.counter("campaign.restarts_executed"),
        reg.counter("campaign.memo_checks"),
        reg.counter("campaign.memo_golden_hits"),
        reg.counter("campaign.memo_trial_hits"),
        reg.counter("campaign.memo_iterations_skipped"),
        reg.counter("campaign.restart_iterations"),
        reg.counter("campaign.worker_spawns"),
        reg.counter("campaign.worker_crashes"),
        reg.counter("campaign.worker_kills"),
        reg.counter("campaign.worker_respawns"),
        reg.histogram("campaign.golden_us",
                      telemetry::Histogram::exponentialBounds(100.0, 4.0, 12)),
        reg.histogram("campaign.crash_run_us",
                      telemetry::Histogram::exponentialBounds(50.0, 4.0, 12)),
        reg.histogram("campaign.postmortem_us",
                      telemetry::Histogram::exponentialBounds(10.0, 4.0, 12)),
        reg.histogram("campaign.restart_us",
                      telemetry::Histogram::exponentialBounds(50.0, 4.0, 12)),
        reg.gauge("campaign.sweep_queue_depth")};
    return m;
  }

  /// The range_* and postmortem_* counters are diagnostics of the bulk and
  /// scan fast paths (call counts, not logical accesses): zero on the scalar
  /// paths, so they never feed equivalence comparisons.
  void recordRun(const memsim::MemEvents& ev) {
    for (std::size_t i = 0; i < memsimCounters.size(); ++i) {
      memsimCounters[i]->add(ev.*memsim::kMemEventCounters[i].first);
    }
    rangeAccesses.add(ev.rangeLoads + ev.rangeStores);
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
//                               'S' sweep {n, n x index}
//                               'A' ack of one streamed sweep capture
//                               'm' / 'h' memo answer: a miss, or a hit
//                                   {source, outcome}
// Responses (worker -> parent): 'k' memo query {iteration, state digest}
//                                   (await 'm' or 'h')
//                               'r' restart {status, delta, outcome and
//                                   last iteration, or error}
//                               'c' one streamed sweep capture (await 'A')
//                               'e' sweep end {completed, captured, failure,
//                                              profile, delta}
// The campaign's memo table lives in the parent only. A restarting worker
// asks it at each checked iteration end with a 'k' frame, which the
// parent answers through the attempt's MemoProbe (after waiting, when
// another restart is computing that key), and the probe inserts the
// restart's misses once its 'r' decides it (convergence_memo.hpp).
// A worker starts every request from a zeroed metrics registry and records
// exactly as an in-process run does; the delta closing each 'r'/'e' reply
// is what the request left behind: the buffered trace lines, the buffered
// log lines, and every non-zero counter and histogram by name (histograms
// with their bounds).
// The sweep's access profile is part of its outcome, so only 'e' carries
// one. The parent decodes the whole delta before folding any of it in; a
// truncated delta or a histogram whose shape disagrees with the parent's is
// a protocol death.
// Integers are little-endian; snapshot payloads ride the slot's shared
// arena, which is sized to hold one capture's snapshots (the candidate
// objects' bytes); a frame whose snapshots overrun it is a protocol error.

void encodeMetrics(WireWriter& w, const telemetry::MetricsSnapshot& m) {
  w.u64(m.counters.size());
  for (const auto& [name, value] : m.counters) {
    w.str(name);
    w.u64(value);
  }
  w.u64(m.histograms.size());
  for (const auto& [name, h] : m.histograms) {
    w.str(name);
    w.f64(h.sum);
    w.u64(h.bounds.size());
    for (const double bound : h.bounds) w.f64(bound);
    for (const std::uint64_t count : h.buckets) w.u64(count);
  }
}

/// Element by element, so a corrupt length runs into the end of the frame
/// instead of a huge allocation.
telemetry::MetricsSnapshot decodeMetrics(WireReader& r) {
  telemetry::MetricsSnapshot m;
  for (std::uint64_t n = r.u64(); n > 0; --n) {
    std::string name = r.str();
    m.counters[std::move(name)] = r.u64();
  }
  for (std::uint64_t n = r.u64(); n > 0; --n) {
    std::string name = r.str();
    telemetry::MetricsSnapshot::HistogramData h;
    h.sum = r.f64();
    for (std::uint64_t b = r.u64(); b > 0; --b) h.bounds.push_back(r.f64());
    for (std::size_t b = 0; b <= h.bounds.size(); ++b) h.buckets.push_back(r.u64());
    m.histograms[std::move(name)] = std::move(h);
  }
  return m;
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
  // An object is at least an id, an empty name and five u64 fields.
  p.objects.resize(static_cast<std::size_t>(r.count(4 + 8 + 5 * 8)));
  for (runtime::ObjectProfile& o : p.objects) {
    o.id = r.u32();
    o.name = r.str();
    o.bytes = r.u64();
    o.accesses = r.u64();
    o.nvmWrites = r.u64();
    o.accessBins.resize(static_cast<std::size_t>(r.count(8)));
    for (std::uint64_t& b : o.accessBins) b = r.u64();
    o.wearBins.resize(static_cast<std::size_t>(r.count(8)));
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
/// (the 'R' request body and the tail of a 'c' frame); the snapshot bytes
/// go to the arena past the black box.
void encodeRestartInput(WireWriter& w, const SweepCapture& c, std::uint8_t* arena,
                        std::size_t arenaBytes) {
  w.i64(c.restartIteration);
  w.u64(c.snapshots.size());
  std::size_t offset = kBlackBoxBytes;
  for (const auto& [id, bytes] : c.snapshots) {
    EC_CHECK_MSG(offset <= arenaBytes && bytes.size() <= arenaBytes - offset,
                 "capture overruns the arena");
    w.u32(id);
    w.u64(bytes.size());
    if (bytes.empty()) continue;
    std::memcpy(arena + offset, bytes.data(), bytes.size());
    offset += bytes.size();
  }
}

void decodeRestartInput(WireReader& r, SweepCapture& c, const std::uint8_t* arena,
                        std::size_t arenaBytes) {
  c.restartIteration = static_cast<int>(r.i64());
  const std::uint64_t nSnaps = r.u64();
  std::size_t offset = kBlackBoxBytes;
  for (std::uint64_t i = 0; i < nSnaps; ++i) {
    const runtime::ObjectId id = r.u32();
    const std::uint64_t size = r.u64();
    if (arena == nullptr || size > arenaBytes || offset > arenaBytes - size) {
      throw std::runtime_error("wire: capture overruns the arena");
    }
    c.snapshots[id].assign(arena + offset, arena + offset + size);
    offset += static_cast<std::size_t>(size);
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
  c.regionPath.resize(static_cast<std::size_t>(r.count(4)));
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

/// The memo entry a decided restart's keys receive.
MemoOutcome memoOutcome(const CrashTestRecord& record, int lastIteration) {
  return {record.response, record.extraIterations, lastIteration, record.note};
}

/// The bytes a memo key stands for (MemoSeams::compareBytes): the value
/// image over the footprint, and the host state.
std::string memoStateBytes(const runtime::IApp& app, Runtime& rt) {
  std::string bytes(rt.footprintBytes(), '\0');
  rt.peek(0, {reinterpret_cast<std::uint8_t*>(bytes.data()), bytes.size()});
  runtime::HostState host;
  app.hostState(host);
  return bytes + host.bytes();
}

std::atomic<bool> g_memoTrialMatches{true};
std::atomic<bool> g_memoCompareBytes{false};

// ---- Fork-worker child state -----------------------------------------------

/// The forked child's trace buffer: TraceSink is redirected here right after
/// the fork, and each response frame ships-and-clears the accumulated lines
/// for the parent to splice into the real trace via writeRaw(). Set only in
/// a worker child, so it doubles as the in-worker flag.
std::ostringstream* g_childTraceBuf = nullptr;

/// The forked child's log lines, collected the same way: a worker cannot see
/// whether the parent's progress line is open, so the parent writes them.
std::string* g_childLogBuf = nullptr;

std::string takeChildTrace() {
  if (g_childTraceBuf == nullptr) return {};
  std::string out = g_childTraceBuf->str();
  g_childTraceBuf->str("");
  return out;
}

std::string takeChildLog() {
  if (g_childLogBuf == nullptr) return {};
  return std::exchange(*g_childLogBuf, std::string());
}

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
  CampaignProfile profile;   ///< the crashing run's access/wear profile
};

namespace {

/// The failure fields of the exception in flight; call only from a catch
/// block. A worker death passes through; any std::exception names
/// `regionPath`, where the attempt stood when it died. Anything else
/// propagates.
AttemptFailure currentFailure(const std::vector<runtime::PointId>& regionPath) {
  try {
    throw;
  } catch (const AttemptFailure& f) {
    return f;
  } catch (const std::exception& e) {
    // The journal refuses an empty reason, so an exception without a
    // message still gets one.
    const char* reason = *e.what() != '\0' ? e.what() : "exception without a message";
    return {"exception", false, reason, formatRegionPath(regionPath)};
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

/// Whole milliseconds of a computed deadline, saturated: NaN and negatives
/// read 0, and anything past ~31 years clamps, so neither the conversion
/// nor adding the deadline to the steady clock can overflow.
std::uint64_t saturatingMs(double ms) {
  constexpr double kMaxMs = 1e12;
  if (!(ms > 0.0)) return 0;
  return static_cast<std::uint64_t>(std::min(ms, kMaxMs));
}

}  // namespace

/// The worker child's request loop body (one call per request frame). Runs
/// the same runSweep/runRestart the in-process evaluator runs — byte-for-
/// byte the same simulation, recorded the same way — and ships the result
/// (or the failure) plus the request's telemetry delta back through the pipe
/// protocol. Lives outside the anonymous namespace so CampaignRunner can
/// befriend it into its private evaluator internals.
struct ForkChildServer {
  const CampaignRunner& runner;
  const GoldenStats& golden;

  /// Exceptions escape to childMain: bad_alloc -> OOM exit, rest -> protocol.
  void serve(int slot, const std::string& request,
             const WorkerPool::ChildChannel& ch) const {
    (void)slot;
    WireReader req(request);
    const std::uint8_t op = req.u8();
    // The child inherited the parent's counts at fork and keeps its own from
    // earlier requests: start from zero so the reply ships this request's.
    telemetry::MetricsRegistry::instance().reset();
    static ChildFaultContext faultCtx;
    faultCtx.plan = runner.config_.inject;
    faultCtx.blackBox = ch.arena();
    faultCtx.responseFd = ch.responseFd();
    g_childFault = runner.config_.inject.active() ? &faultCtx : nullptr;
    switch (op) {
      case 'R':
        serveRestart(req, ch);
        break;
      case 'S':
        serveSweep(req, ch);
        break;
      default:
        throw std::runtime_error("fork worker: unknown request op");
    }
  }

 private:
  /// The request's telemetry delta (ForkParent::absorbDelta reads it).
  void encodeDelta(WireWriter& w) const {
    w.str(takeChildTrace());
    w.str(takeChildLog());
    encodeMetrics(w, telemetry::MetricsRegistry::instance().snapshot());
  }

  /// Run one restart attempt from the shipped restart input, asking the
  /// parent's memo table at each checked iteration end, then ship an 'r'
  /// frame: status 0 carries the outcome (response, extra iterations, note)
  /// and the last iteration it stands for, status 1 the exception text —
  /// the parent names the crash site from its own stamped record. Both
  /// carry the delta: a failed attempt still simulated runs the parent must
  /// account, exactly as the in-process evaluator records them before its
  /// exception propagates.
  void serveRestart(WireReader& req, const WorkerPool::ChildChannel& ch) const {
    const std::uint64_t trial = req.u64();
    SweepCapture input;
    decodeRestartInput(req, input, ch.arena(), ch.arenaBytes());
    CrashTestRecord record;
    int lastIteration = 0;
    std::string error;
    bool failed = false;
    try {
      lastIteration = runner.runRestart(
          golden, input, static_cast<std::size_t>(trial), record,
          [&ch](const MemoKey& key, const std::string*) { return askParentMemo(ch, key); });
    } catch (const std::bad_alloc&) {
      throw;  // childMain -> _exit(kWorkerOomExit)
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    }
    WireWriter resp;
    resp.u8('r');
    resp.u8(failed ? 1 : 0);
    encodeDelta(resp);
    if (failed) {
      resp.str(error);
    } else {
      resp.u8(static_cast<std::uint8_t>(record.response));
      resp.i64(record.extraIterations);
      resp.str(record.note);
      resp.i64(lastIteration);
    }
    ch.send(resp.take());
  }

  /// The sweep crashing run, child side: stream each capture as a 'c' frame
  /// and wait for the parent's 'A' ack (that handshake IS the restart-queue
  /// backpressure), then ship the 'e' summary with the run's failure fields
  /// and profile.
  void serveSweep(WireReader& req, const WorkerPool::ChildChannel& ch) const {
    std::vector<std::uint64_t> indices(static_cast<std::size_t>(req.count(8)));
    for (std::uint64_t& index : indices) index = req.u64();
    const SweepOutcome outcome = runner.runSweep(
        golden, indices, [&ch](std::shared_ptr<SweepCapture> capture) {
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
    encodeProfile(resp, outcome.profile);
    encodeDelta(resp);
    ch.send(resp.take());
  }
};

/// The parent half of the fork protocol: a pre-forked WorkerPool, one slot
/// per restart worker plus one for the producer's crashing run, and the two
/// requests a campaign sends it — a restart ('R') and a sweep ('S', which
/// streams its captures back). Every worker death surfaces as an
/// AttemptFailure, counted and traced here. This is also where the trial
/// deadline lives: receive() SIGKILLs a worker whose reply misses it, which
/// reclaims even a hang that never reaches a tracked access.
class ForkParent {
 public:
  /// Forks the workers. Constructed after the golden run and the sweep plan,
  /// so children inherit every immutable input by memory (config, plan,
  /// golden stats) — and a respawned worker forks from the same state, so a
  /// replacement child is indistinguishable from the original. The arenas
  /// are sized off `captureBytes`, one capture's candidate bytes.
  /// `timeoutMs` is the base deadline (0 = none).
  ForkParent(const CampaignRunner& runner, const GoldenStats& golden, int slots,
             std::size_t captureBytes, std::uint64_t timeoutMs)
      : runner_(runner),
        childServer_{runner, golden},
        timeoutMs_(timeoutMs),
        pool_(slots, kBlackBoxBytes + captureBytes + captureBytes / 8 + 4096,
              [this](int slot, const std::string& request,
                     const WorkerPool::ChildChannel& ch) {
                childServer_.serve(slot, request, ch);
              },
              forkHooks()) {
    CampaignMetrics::get().workerSpawns.add(pool_.spawnCount());
  }

  /// The restart of trial t in worker w: ship the restart input, answer
  /// the worker's memo queries through `probe`, and copy the reply's
  /// outcome onto `record`, which the caller stamped with the trial's own
  /// capture — so a restart that throws names the stamped crash site, as
  /// it does in-process. Returns the last iteration the outcome stands
  /// for. The attempt has one deadline, scaled by `budget`, and each frame
  /// waits only for what is left of it; the time the lane spends waiting
  /// on another restart's pending memo key does not count, as the worker
  /// is idle then (the owner's own deadline bounds that wait). A query or
  /// reply that does not decode is a protocol death: the stream may be
  /// desynchronized, so the worker is killed, the caller's probe inserts
  /// nothing, and the next attempt starts fresh. Throws AttemptFailure.
  int restart(std::size_t t, int w, const SweepCapture& input, double budget,
              CrashTestRecord& record, MemoProbe& probe) {
    const pid_t pid = ensureWorker(w);
    WireWriter req;
    req.u8('R');
    req.u64(t);
    encodeRestartInput(req, input, pool_.arena(w), pool_.arenaBytes());
    (void)pool_.send(w, req.take());  // a dead worker surfaces in receive()
    try {
      const std::string frame = answerMemoQueries(
          probe, deadline(budget),
          [&](std::chrono::milliseconds within) { return receive(w, pid, within); },
          [&](const std::string& answer) { (void)pool_.send(w, answer); });
      WireReader r(frame);
      if (r.u8() != 'r') throw std::runtime_error("unexpected reply tag");
      const std::uint8_t status = r.u8();
      absorbDelta(r);
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
      const int cap =
          childServer_.golden.finalIteration * runner_.config_.maxIterationFactor;
      const std::int64_t lastIteration = r.i64();
      if (lastIteration < 0 || lastIteration > cap) {
        throw std::runtime_error("last iteration outside the restart's cap");
      }
      return static_cast<int>(lastIteration);
    } catch (const std::exception& e) {
      killWorker(w);
      throw AttemptFailure{"protocol", false,
                           std::string("worker reply malformed: ") + e.what(), ""};
    }
  }

  /// One sweep over `indices` in the slot's worker (runSweep's contract).
  /// The child streams each capture back as a 'c' frame; the parent decodes
  /// it out of the shared arena, hands it to `sink` and acks — the ack
  /// handshake IS the backpressure an in-process sink applies by blocking.
  /// A worker death ends the sweep with its failure.
  SweepOutcome sweep(int slot, const std::vector<std::uint64_t>& indices,
                     const CaptureSink& sink) {
    SweepOutcome outcome;
    try {
      const pid_t pid = ensureWorker(slot);
      WireWriter req;
      req.u8('S');
      req.u64(indices.size());
      for (const std::uint64_t index : indices) req.u64(index);
      (void)pool_.send(slot, req.take());
      for (;;) {
        const std::string frame = receive(slot, pid, deadline(1.0));
        WireReader r(frame);
        const std::uint8_t tag = r.u8();
        if (tag == 'c') {
          auto capture = std::make_shared<SweepCapture>(
              decodeCapture(r, pool_.arena(slot), pool_.arenaBytes()));
          EC_CHECK_MSG(outcome.captured < indices.size() &&
                           indices[outcome.captured] == capture->crashAccessIndex,
                       "fork sweep: capture out of order");
          ++outcome.captured;
          // A non-'A' ack tells the child to wind down; it still ships its
          // 'e' summary so the crashing run's events are accounted.
          (void)pool_.send(slot, std::string(sink(std::move(capture)) ? "A" : "X"));
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
          CampaignProfile profile = decodeProfile(r);
          absorbDelta(r);
          outcome.profile = std::move(profile);
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
  }

  [[nodiscard]] int aliveWorkers() const { return pool_.aliveCount(); }
  [[nodiscard]] std::uint64_t deaths() const { return deaths_.load(); }

 private:
  /// Never fork while another campaign thread holds the trace or metrics
  /// lock: the child would inherit a locked mutex it can never unlock.
  static WorkerPool::ForkHooks forkHooks() {
    WorkerPool::ForkHooks hooks;
    hooks.prepare = [] {
      telemetry::TraceSink::instance().lockForFork();
      telemetry::MetricsRegistry::instance().lockForFork();
      telemetry::lockConsoleForFork();
    };
    hooks.parent = [] {
      telemetry::unlockConsoleAfterFork(false);
      telemetry::MetricsRegistry::instance().unlockAfterFork();
      telemetry::TraceSink::instance().unlockAfterFork();
    };
    hooks.child = [](int) {
      telemetry::unlockConsoleAfterFork(true);
      telemetry::MetricsRegistry::instance().unlockAfterFork();
      telemetry::TraceSink::instance().unlockAfterFork();
      // Reroute trace lines into a buffer the response frames ship to the
      // parent; the parent's stream (and its buffered bytes) stay its own.
      g_childTraceBuf = new std::ostringstream();
      telemetry::TraceSink::instance().redirectInForkedChild(g_childTraceBuf);
      g_childLogBuf = new std::string();
      telemetry::redirectLogLines(g_childLogBuf);
    };
    return hooks;
  }

  /// The base deadline scaled by the attempt's work budget (in golden-run
  /// units, never below one). Zero = no deadline.
  [[nodiscard]] std::chrono::milliseconds deadline(double budget) const {
    if (timeoutMs_ == 0) return std::chrono::milliseconds(0);
    const double ms = static_cast<double>(timeoutMs_) * std::max(1.0, budget);
    return std::chrono::milliseconds(saturatingMs(ms) + 1);
  }

  /// Ready slot w for a request: respawn a dead worker — accounting the
  /// respawn (counters and the worker_respawn trace event) wherever it
  /// happens — and clear its black box so a stale fault report can never be
  /// attributed to this request's death. Returns the live worker's pid.
  pid_t ensureWorker(int w) {
    bool respawned = false;
    if (!pool_.ensureWorker(w, &respawned)) {
      throw AttemptFailure{"protocol", false, "worker fork failed", ""};
    }
    if (respawned) {
      CampaignMetrics::get().workerSpawns.add();
      CampaignMetrics::get().workerRespawns.add();
      if (telemetry::tracing()) {
        telemetry::TraceEvent("worker_respawn")
            .field("slot", w)
            .field("pid", static_cast<std::int64_t>(pool_.pid(w)))
            .emit();
      }
    }
    reinterpret_cast<BlackBox*>(pool_.arena(w))->magic = 0;
    return pool_.pid(w);
  }

  /// Receive one frame from slot w's worker within `within`. Throws
  /// AttemptFailure on any classified death.
  std::string receive(int w, pid_t pid, std::chrono::milliseconds within) {
    WorkerPool::Reply reply = pool_.recv(w, within);
    if (!reply.ok) {
      noteWorkerDeath(w, pid, reply);
      throw classifyDeath(reply, timeoutMs_, pool_.arena(w));
    }
    return std::move(reply.frame);
  }

  /// Deliberate parent-side kill (a desynchronized stream): consume the
  /// death like any other so the books stay balanced.
  void killWorker(int slot) {
    if (!pool_.alive(slot)) return;
    const pid_t pid = pool_.pid(slot);
    pool_.kill(slot);
    WorkerPool::Reply reply;
    reply.death = WorkerDeath::Killed;
    reply.signal = SIGKILL;
    noteWorkerDeath(slot, pid, reply);
  }

  /// Account one consumed worker death: counters, live status, worker_exit
  /// trace (slot, pid, classification) for the flight recorder.
  void noteWorkerDeath(int slot, pid_t pid, const WorkerPool::Reply& reply) {
    deaths_.fetch_add(1);
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
  }

  /// Fold a reply's delta (ForkChildServer::encodeDelta) into the parent:
  /// its metrics, its trace lines and its log lines (through the stderr
  /// owner, so they never land on the progress line). Decoded in full
  /// first, so a truncated delta throws before anything lands.
  void absorbDelta(WireReader& r) {
    const std::string trace = r.str();
    const std::string log = r.str();
    const telemetry::MetricsSnapshot metrics = decodeMetrics(r);
    telemetry::MetricsRegistry::instance().merge(metrics);
    if (!trace.empty()) telemetry::TraceSink::instance().writeRaw(trace);
    telemetry::writeLogLines(log);
  }

  const CampaignRunner& runner_;
  const ForkChildServer childServer_;
  const std::uint64_t timeoutMs_;
  std::atomic<std::uint64_t> deaths_{0};
  WorkerPool pool_;  ///< last: its children serve childServer_
};
const char* toString(Response response) {
  switch (response) {
    case Response::S1: return "S1";
    case Response::S2: return "S2";
    case Response::S3: return "S3";
    case Response::S4: return "S4";
  }
  return "?";
}

std::optional<Response> responseFromString(std::string_view text) {
  for (const Response r : {Response::S1, Response::S2, Response::S3, Response::S4}) {
    if (text == toString(r)) return r;
  }
  return std::nullopt;
}

void setMemoSeams(const MemoSeams& seams) {
  g_memoTrialMatches.store(seams.trialMatches);
  g_memoCompareBytes.store(seams.compareBytes);
}

MemoSeams memoSeams() {
  return {g_memoTrialMatches.load(), g_memoCompareBytes.load()};
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

TrialTally CampaignResult::tally() const {
  TrialTally tally;
  for (const auto& test : tests) tally.add(test);
  return tally;
}

std::array<int, 4> CampaignResult::responseCounts() const {
  return tally().all.responses;
}

double CampaignResult::recomputability() const {
  if (tests.empty()) return 0.0;
  return static_cast<double>(responseCounts()[0]) / static_cast<double>(tests.size());
}

double CampaignResult::successWithExtra() const {
  if (tests.empty()) return 0.0;
  const auto counts = responseCounts();
  return static_cast<double>(counts[0] + counts[1]) /
         static_cast<double>(tests.size());
}

double CampaignResult::averageExtraIterations() const {
  const TrialTally::Outcomes all = tally().all;
  return all.responses[1] == 0
             ? 0.0
             : static_cast<double>(all.s2ExtraIterations) / all.responses[1];
}

std::map<runtime::PointId, double> CampaignResult::regionRecomputability() const {
  std::map<runtime::PointId, double> out;
  for (const auto& [region, outcomes] : tally().byRegion) {
    out[region] = static_cast<double>(outcomes.responses[0]) /
                  static_cast<double>(outcomes.trials());
  }
  return out;
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
  EC_CHECK_MSG(!config_.inject.active() ||
                   config_.resilience.isolation == IsolationMode::Fork,
               "fault injection requires the fork evaluator "
               "(resilience.isolation == Fork)");
  EC_CHECK_MSG(!config_.inject.active() || config_.inject.accessIndex > 0,
               "fault injection needs a 1-based tracked-access index");
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

GoldenStats CampaignRunner::goldenRun(CampaignProfile* profile) const {
  Runtime rt(config_.cache);
  // Every golden output a campaign depends on (windowAccesses and with it
  // the pre-drawn crash sequence, finalIteration, verify metric, region
  // shares, persistenceOps) is a function of the access stream and the
  // architectural values, both routing-independent. Only MemEvents describe
  // the simulated cache machine, so the run goes direct-to-NVM unless a
  // caller asked for them. It keeps its crash clock either way: its counts
  // define the crash-point space and the memo stride.
  rt.setRunKind(config_.goldenEvents ? RunKind::Tracked : RunKind::Direct);
  rt.setPlan(config_.plan);
  rt.setTraceRun("golden");
  rt.enableProfile();
  auto app = factory_();
  app->setup(rt);
  app->initialize(rt);
  // The convergence memo's stride is fixed at the end of the first
  // iteration, from its tracked accesses and the blocks an iteration can
  // write at most: every block of a writable object. Comparing bytes, the
  // memo checks as often as the table size allows, whatever that costs. The
  // golden run then keys every goldenStride-th iteration end; those keys
  // seed the memo. Its digest stays unarmed: hashing the footprint at those
  // few iteration ends costs less than marking every store.
  const auto blockSize = static_cast<double>(config_.cache.blockSize);
  double writableBlocks = 0.0;
  for (const auto& object : rt.objects()) {
    if (!object.readOnly) {
      writableBlocks += std::ceil(static_cast<double>(object.bytes) / blockSize);
    }
  }
  const bool compareBytes = memoSeams().compareBytes;
  int stride = 0;
  int goldenStride = 0;
  std::vector<MemoKey> keys;
  std::vector<std::string> keyBytes;
  const Driver::IterationHook keyIteration = [&](int iteration) {
    if (iteration == 1) {
      const auto accesses = static_cast<double>(rt.windowAccesses());
      stride = memoStride(app->nominalIterations(), accesses,
                          compareBytes ? 0.0 : writableBlocks);
      goldenStride =
          compareBytes ? stride
                       : goldenKeyStride(stride, accesses,
                                         static_cast<double>(rt.footprintBytes()) / blockSize);
    }
    if (goldenStride > 0 && iteration % goldenStride == 0) {
      keys.push_back({iteration, Driver::stateKey(*app, rt)});
      if (compareBytes) keyBytes.push_back(memoStateBytes(*app, rt));
    }
    return false;
  };
  const auto result = Driver::run(*app, rt, 1, 0, keyIteration);
  CampaignMetrics::get().recordRun(rt.events());
  if (profile != nullptr) profile->accumulate(rt);
  EC_CHECK_MSG(!result.interrupted, "golden run interrupted: " + result.interruptReason);
  EC_CHECK_MSG(result.verification.pass,
               "golden run failed its own acceptance verification (" +
                   app->info().name + "): " + result.verification.detail);

  GoldenStats golden;
  golden.app = app->info().name;
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
  golden.verifyDetail = result.verification.detail;
  golden.memoStride = stride;
  // Golden keys stand for "converges as the golden run did" only when the
  // run converged rather than stopped at its cap.
  if (!result.reachedCap) {
    golden.memoKeys = std::move(keys);
    golden.memoBytes = std::move(keyBytes);
  }
  return golden;
}

namespace {

/// One point of the sweep's capture plan: a distinct crash index and the
/// undecided trials that drew it.
struct PlannedPoint {
  std::uint64_t index = 0;
  std::vector<std::size_t> trials;
};

}  // namespace

/// The state of one CampaignRunner::run() and its stages, called in order:
/// golden, draw, resume, plan, evaluate, finalize. A trial is decided once
/// its slot holds a record or a failure; interruption simply leaves the
/// rest unset.
class CampaignExecution {
 public:
  explicit CampaignExecution(const CampaignRunner& runner)
      : runner_(runner), config_(runner.config_), res_(config_.resilience) {
    result_.plannedTests = config_.numTests;
    // 0: one lane per core, counting the producer, which joins the restart
    // lanes once the sweep is done.
    const int threads =
        config_.threads == 0
            ? std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1)
            : config_.threads;
    threads_ = std::max(1, std::min<int>(threads, std::max(1, config_.numTests)));
  }

  /// The golden run, in the parent before any crash index is drawn or worker
  /// forked. windowAccesses — and with it the whole pre-drawn crash
  /// sequence — does not depend on whether the golden run simulates the
  /// caches (CampaignConfig::goldenEvents).
  void golden() {
    const auto start = std::chrono::steady_clock::now();
    {
      telemetry::PhaseSpan span("golden", CampaignMetrics::get().goldenUs);
      result_.golden = runner_.goldenRun(&result_.profile);
    }
    const auto goldenMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    EC_CHECK_MSG(result_.golden.windowAccesses > 0, "empty crash window");
    // The trial deadline's base (fork isolation only): --trial-timeout-ms,
    // or else a golden-run multiple. A direct-mode golden (goldenEvents
    // unset) is several times cheaper than the tracked crashing runs the
    // deadline must cover, so its time is scaled to keep
    // --timeout-golden-multiple's tracked meaning.
    if (res_.isolation != IsolationMode::Fork) return;
    if (res_.trialTimeoutMs > 0) {
      timeoutMs_ = res_.trialTimeoutMs;
    } else if (res_.goldenTimeoutMultiple > 0) {
      const double baseMs = static_cast<double>(goldenMs) *
                            (config_.goldenEvents ? 1.0 : 10.0);
      timeoutMs_ = std::max<std::uint64_t>(
          1000, saturatingMs(baseMs * res_.goldenTimeoutMultiple));
    }
  }

  /// Pre-draw every crash point, so the campaign is identical at any number
  /// of worker threads and a resumed campaign re-draws the exact sequence.
  void draw() {
    Rng rng(config_.seed);
    crashIndices_.resize(static_cast<std::size_t>(config_.numTests));
    for (auto& index : crashIndices_) {
      index = rng.between(1, result_.golden.windowAccesses);
    }
    records_.resize(crashIndices_.size());
    failures_.resize(crashIndices_.size());
  }

  /// Seed the decided slots and the tally from a resumed journal, and open
  /// this run's journal (replayed entries first).
  void resume(std::optional<JournalReplay> replay) {
    const JournalHeader header = journalHeader();
    if (replay) replayJournal(*replay, header);
    if (!res_.journalPath.empty()) {
      journal_.emplace(res_.journalPath, header, res_.journalFlushEvery);
      for (std::size_t t = 0; t < records_.size(); ++t) {
        if (records_[t]) journal_->recordTrial(t, *records_[t]);
        else if (failures_[t]) journal_->recordFailure(*failures_[t]);
      }
      journal_->flush();  // always leave a resumable file behind, even header-only
    }
    for (const auto& record : records_) {
      if (record) tally_.add(*record);
    }
    done_ = resumedTrials_ + resumedFailures_;
  }

  /// The sweep's capture plan: each distinct crash index, ascending, with
  /// the undecided trials that drew it. Trials drawing the same index share
  /// one capture; decided (resumed) trials never re-enter.
  void plan() {
    std::map<std::uint64_t, std::vector<std::size_t>> byIndex;
    for (std::size_t t = 0; t < crashIndices_.size(); ++t) {
      if (!records_[t] && !failures_[t]) {
        byIndex[crashIndices_[t]].push_back(t);
      }
    }
    for (auto& [index, trials] : byIndex) plan_.push_back({index, std::move(trials)});
  }

  /// Run the plan: the producer (this thread) sweeps the crash points while
  /// `threads` restart threads drain the restart groups behind it, then the
  /// producer joins them. Under fork isolation both sides run in pre-forked
  /// worker children, and a child death becomes a TrialFailure instead of
  /// taking the campaign down.
  void evaluate() {
    // Candidate bytes of one capture: they size the restart queue's
    // backpressure window and the worker arenas.
    const std::size_t captureBytes = result_.golden.candidateBytes;
    // The golden keys seed the convergence memo: a restart that reaches
    // one converges as the golden run did.
    const GoldenStats& golden = result_.golden;
    memo_.insert(golden.memoKeys,
                 MemoOutcome{Response::S1, 0, golden.finalIteration, golden.verifyDetail},
                 MemoSource::Golden, golden.memoBytes);
    if (res_.isolation == IsolationMode::Fork && !plan_.empty()) {
      fork_.emplace(runner_, result_.golden, threads_ + 1, captureBytes, timeoutMs_);
    }
    startStatus();
    if (plan_.empty()) return;

    // Queue depth, in restart groups, is the pipeline's overlap window: deep
    // enough that the sweep outruns the restart drain and the producer joins
    // the pool for most of the campaign, while backpressure bounds live
    // snapshot memory (~64 MB of candidate bytes — each queued group keeps
    // one snapshot, its leader's) for large apps. Never below the
    // double-buffer floor that keeps every worker fed.
    constexpr std::size_t kSnapshotBudgetBytes = std::size_t{64} << 20;
    RestartQueue queue(
        std::max(static_cast<std::size_t>(std::max(2, 2 * threads_)),
                 kSnapshotBudgetBytes / std::max<std::size_t>(1, captureBytes)));
    std::vector<std::thread> restarters;
    restarters.reserve(static_cast<std::size_t>(threads_));
    for (int w = 0; w < threads_; ++w) {
      restarters.emplace_back([this, &queue, w] { restartWorker(queue, w); });
    }
    try {
      produce(queue);
    } catch (...) {
      parkError();
      queue.abort();
    }
    queue.close();
    // Nothing left to sweep: the producer joins the restart pool on its slot.
    restartWorker(queue, threads_);
    for (auto& thread : restarters) thread.join();
  }

  /// Close the journal, raise what evaluation parked, and assemble the
  /// result in test-index order.
  CampaignResult finalize() {
    if (journal_) journal_->close();
    if (firstError_) std::rethrow_exception(firstError_);
    if (budgetExceeded_.load()) {
      throw std::runtime_error(
          "campaign aborted: " + std::to_string(failureCount_.load()) +
          " trial failures exceeded the budget of " + std::to_string(res_.maxFailures) +
          (res_.journalPath.empty() ? "" : " — journal kept at " + res_.journalPath));
    }
    std::size_t undecided = 0;
    for (std::size_t t = 0; t < records_.size(); ++t) {
      if (!records_[t] && !failures_[t]) ++undecided;
    }
    const std::size_t planned = records_.size();
    result_.interrupted = undecided > 0;
    if (result_.interrupted) {
      EC_LOG_WARN("campaign interrupted: " << (planned - undecided) << "/"
                                           << planned << " trials decided"
                                           << (stopSignal() != 0
                                                   ? " (signal " +
                                                         std::to_string(stopSignal()) + ")"
                                                   : ""));
      if (telemetry::tracing()) {
        telemetry::TraceEvent("campaign_interrupted")
            .field("decided", static_cast<std::uint64_t>(planned - undecided))
            .field("remaining", static_cast<std::uint64_t>(undecided))
            .field("signal", stopSignal())
            .emit();
      }
    }

    result_.resumedTrials = resumedTrials_;
    for (std::size_t t = 0; t < records_.size(); ++t) {
      if (records_[t]) {
        result_.tests.push_back(std::move(*records_[t]));
      } else if (failures_[t]) {
        result_.failures.push_back(std::move(*failures_[t]));
      }
    }
    if (status_) status_->writeFinal(result_.interrupted);
    if (telemetry::tracing()) {
      const auto counts = result_.responseCounts();
      telemetry::TraceEvent("campaign_end")
          .field("tests", static_cast<std::uint64_t>(result_.tests.size()))
          .field("s1", counts[0])
          .field("s2", counts[1])
          .field("s3", counts[2])
          .field("s4", counts[3])
          .field("recomputability", result_.recomputability())
          .field("failures", static_cast<std::uint64_t>(result_.failures.size()))
          .field("interrupted", result_.interrupted)
          .emit();
    }
    return std::move(result_);
  }

 private:
  JournalHeader journalHeader() const {
    JournalHeader header;
    // The reader refuses an empty app, so an unlabelled campaign (a library
    // caller's) is named after its app.
    header.app = config_.appLabel.empty() ? result_.golden.app : config_.appLabel;
    header.seed = config_.seed;
    header.tests = config_.numTests;
    header.mode = config_.mode == SnapshotMode::NvmImage ? "nvm" : "coherent";
    header.planFingerprint = planFingerprint(config_.plan);
    header.windowAccesses = result_.golden.windowAccesses;
    return header;
  }

  /// Throws unless the resumed journal was drawn for exactly this campaign.
  /// readJournal has already bounded every index by the header's tests.
  void replayJournal(JournalReplay& replay, const JournalHeader& header) {
    const std::string mismatch = identityMismatch(replay.header, header);
    if (!mismatch.empty()) {
      throw std::runtime_error("--resume " + res_.resumePath + ": journal " +
                               mismatch + " does not match this campaign");
    }
    for (auto& [trial, record] : replay.trials) {
      EC_CHECK_MSG(record.crashAccessIndex == crashIndices_[trial],
                   "resumed journal crash point diverges from the re-drawn "
                   "sequence — journal does not belong to this campaign");
      records_[trial] = std::move(record);
      ++resumedTrials_;
    }
    for (auto& [trial, failure] : replay.failures) {
      failures_[trial] = std::move(failure);
      ++resumedFailures_;
    }
    failureCount_.store(static_cast<int>(resumedFailures_));
    CampaignMetrics::get().resumedTrials.add(resumedTrials_);
    EC_LOG_INFO("resumed " << resumedTrials_ << " trials and " << resumedFailures_
                           << " failures from " << res_.resumePath);
    if (telemetry::tracing()) {
      telemetry::TraceEvent("campaign_resumed")
          .field("journal", res_.resumePath)
          .field("trials", static_cast<std::uint64_t>(resumedTrials_))
          .field("failures", static_cast<std::uint64_t>(resumedFailures_))
          .emit();
    }
  }

  /// The live view (docs/OBSERVABILITY.md): a background thread samples
  /// the shared tallies on an interval, atomically rewrites the status
  /// snapshot file and redraws the stderr progress line from the same
  /// sample; finalize() publishes one last done/interrupted snapshot after
  /// the drain, so a SIGINT'd campaign leaves the truth behind.
  void startStatus() {
    if (config_.statusPath.empty() && !config_.progress) return;
    const auto start = std::chrono::steady_clock::now();
    status_.emplace(config_.statusPath, config_.progress ? &std::cerr : nullptr,
                    std::chrono::milliseconds(std::max(1, config_.statusIntervalMs)),
                    [this, start] { return statusSnapshot(start); });
  }

  CampaignStatus statusSnapshot(std::chrono::steady_clock::time_point start) {
    CampaignStatus s;
    s.app = config_.appLabel;
    s.plannedTests = config_.numTests;
    {
      std::lock_guard<std::mutex> lock(tallyMutex_);
      s.decided = done_;
      s.responses = tally_.responses;
    }
    s.resumed = resumedTrials_ + resumedFailures_;
    s.failures = static_cast<std::uint64_t>(std::max(0, failureCount_.load()));
    s.retries = retryCount_.load();
    s.timeouts = timeoutCount_.load();
    s.queueDepth = static_cast<std::uint64_t>(
        std::max(0.0, CampaignMetrics::get().sweepQueueDepth.value()));
    if (fork_) {
      s.workers = static_cast<std::uint64_t>(std::max(0, fork_->aliveWorkers()));
      s.workerDeaths = fork_->deaths();
    }
    s.elapsedS =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    s.estimateRate();
    s.interrupted = stopRequested();
    return s;
  }

  /// Under Propagate an exception must abort the campaign, but letting it
  /// escape a pool thread would terminate the process: the first one is
  /// parked here and rethrown by finalize() after the join.
  void parkError() {
    {
      std::lock_guard<std::mutex> lock(errorMutex_);
      if (!firstError_) firstError_ = std::current_exception();
    }
    workersAbort_.store(true);
  }

  /// Every evaluator loop stops taking new work once this holds.
  bool halted() const {
    return stopRequested() || budgetExceeded_.load() || workersAbort_.load();
  }

  /// Tally one newly decided trial (a completion, or a permanent failure
  /// when `record` is null) for the status sampler.
  void recordDecided(const CrashTestRecord* record) {
    std::lock_guard<std::mutex> lock(tallyMutex_);
    if (record != nullptr) tally_.add(*record);
    ++done_;
  }

  /// Commit a trial whose record is in place: counters and trial_end trace,
  /// journal, tally, and the --stop-after hook.
  void commitDecided(std::size_t t) {
    runner_.commitTrial(t, *records_[t]);
    if (journal_) journal_->recordTrial(t, *records_[t]);
    recordDecided(&*records_[t]);
    const int completedNow = newlyCompleted_.fetch_add(1) + 1;
    if (res_.stopAfterTrials > 0 && completedNow >= res_.stopAfterTrials) {
      requestStop();
    }
  }

  /// Charge one failed attempt (1-based) to trial t, whether a restart of t
  /// or the sweep crashing run that died on t's crash point: count it, and
  /// once the attempts are spent record the trial's TrialFailure against the
  /// --max-trial-failures budget.
  void chargeAttempt(std::size_t t, int attempt, const AttemptFailure& f) {
    if (f.timeout) {
      CampaignMetrics::get().trialTimeouts.add();
      timeoutCount_.fetch_add(1);
    }
    if (attempt < maxAttempts()) {
      CampaignMetrics::get().trialRetries.add();
      retryCount_.fetch_add(1);
      EC_LOG_DEBUG("trial " << t << " attempt " << attempt << " failed ("
                            << f.reason << "), retrying");
      return;
    }
    TrialFailure failure;
    failure.trial = t;
    failure.crashAccessIndex = crashIndices_[t];
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
    failures_[t] = failure;
    if (journal_) journal_->recordFailure(failure);
    const int count = failureCount_.fetch_add(1) + 1;
    if (res_.maxFailures >= 0 && count > res_.maxFailures) budgetExceeded_.store(true);
    recordDecided(nullptr);
  }

  int maxAttempts() const { return 1 + std::max(0, res_.maxRetries); }

  /// One sweep crashing run from point `head` to the end of the plan, in
  /// this process or the producer's worker. Every capture is counted and
  /// traced, and queues the restarts of the trials that drew it; the sink's
  /// false ends the sweep.
  SweepOutcome sweepFrom(RestartQueue& queue, std::size_t head) {
    std::vector<std::uint64_t> indices;
    for (std::size_t p = head; p < plan_.size(); ++p) indices.push_back(plan_[p].index);
    std::size_t point = head;
    const CaptureSink sink = [&](std::shared_ptr<SweepCapture> capture) {
      CampaignMetrics::get().sweepCaptures.add();
      const std::size_t p = point++;
      if (telemetry::tracing()) {
        telemetry::TraceEvent("sweep_capture")
            .field("run", "sweep")
            .field("crash_access", capture->crashAccessIndex)
            .field("region", capture->region)
            .field("iteration", capture->crashIteration)
            .field("trials", static_cast<std::uint64_t>(plan_[p].trials.size()))
            .emit();
      }
      return !halted() && queue.push(std::move(capture), plan_[p].trials);
    };
    return fork_ ? fork_->sweep(threads_, indices, sink)
                 : runner_.runSweep(result_.golden, indices, sink);
  }

  /// The producer: sweep from the head — the first point no sweep has
  /// captured yet — until a sweep reaches the last point. A sweep visits its
  /// points in ascending order, so any death before the head's capture
  /// happened on exactly the access sequence the head's own crashing run
  /// replays: a sweep that dies charges one attempt to the head's trials,
  /// and a fresh sweep restarts at the head. Once the head's attempts are
  /// spent its trials fail for good and the next sweep starts at the point
  /// after (docs/INTERNALS.md "The single-sweep trial evaluator").
  void produce(RestartQueue& queue) {
    std::size_t head = 0;
    int attempts = 0;  // deaths charged to the head so far
    while (head < plan_.size() && !halted()) {
      CampaignMetrics::get().sweepRuns.add();
      const std::size_t planned = plan_.size() - head;
      const SweepOutcome outcome = sweepFrom(queue, head);
      result_.profile.merge(outcome.profile);
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
      if (!outcome.failure || head >= plan_.size()) return;
      const AttemptFailure& f = *outcome.failure;
      ++attempts;
      EC_LOG_WARN("sweep run died (" << f.reason << ") after " << outcome.captured
                  << "/" << planned << " capture(s); charging attempt " << attempts
                  << " to crash point " << plan_[head].index);
      for (const std::size_t t : plan_[head].trials) chargeAttempt(t, attempts, f);
      if (attempts >= maxAttempts()) {
        ++head;
        attempts = 0;
      }
      CampaignMetrics::get().sweepFallbacks.add(plan_.size() - head);
    }
  }

  /// The restart of trial t from a sweep capture: stamp the trial's own
  /// crash context, then restart from `input` — its group leader's capture,
  /// whose restart input is byte-identical to the trial's own — honouring
  /// isolation and the retry budget. In a worker, the deadline scales with
  /// the restart's work: the iterations from its bookmark up to the
  /// iteration cap, in golden-run units. Exceptions propagate only under
  /// IsolationMode::Propagate (the legacy all-or-nothing behaviour).
  void decideRestart(std::size_t t, const SweepCapture& capture,
                     const SweepCapture& input, int w) {
    CampaignMetrics::get().restartsExecuted.add();
    const int finalIteration = result_.golden.finalIteration;
    const int cap = finalIteration * config_.maxIterationFactor;
    const double budget = static_cast<double>(cap - input.restartIteration) /
                          static_cast<double>(std::max(1, finalIteration));
    for (int attempt = 1;; ++attempt) {
      CrashTestRecord record;
      std::optional<AttemptFailure> failure;
      try {
        telemetry::ScopedTimer trialTimer(CampaignMetrics::get().trialUs);
        CampaignRunner::stampCapture(capture, record);
        MemoProbe probe(memo_, input.restartIteration, cap);
        const int lastIteration =
            fork_ ? fork_->restart(t, w, input, budget, record, probe)
                  : runner_.runRestart(result_.golden, input, t, record,
                                       [&probe](const MemoKey& key, const std::string* bytes) {
                                         return probe.lookup(key, bytes);
                                       });
        probe.decide(memoOutcome(record, lastIteration));
      } catch (...) {
        if (res_.isolation == IsolationMode::Propagate) throw;
        failure = currentFailure(record.regionPath);
      }
      if (!failure) {
        records_[t] = std::move(record);
        commitDecided(t);
        return;
      }
      chargeAttempt(t, attempt, *failure);
      if (attempt >= maxAttempts()) return;
    }
  }

  /// One restart decides the group (docs/INTERNALS.md "Restart grouping"):
  /// when the leader's restart succeeds, every follower's record is its own
  /// capture stamped with the leader's outcome. A failure or timeout is never
  /// shared — each follower then runs its own restart through decideRestart,
  /// so its kind, attempts, retries and backoff match a lone trial's. A stop
  /// is honoured between members; the members it leaves undecided resume
  /// like any other undecided trial.
  void decideGroup(const RestartGroup& group, int w) {
    const SweepCapture& input = group.input();
    const std::size_t leader = group.members.front().trial;
    for (const RestartGroup::Member& member : group.members) {
      if (halted()) return;
      if (member.trial == leader || !records_[leader]) {
        decideRestart(member.trial, *member.capture, input, w);
        continue;
      }
      CrashTestRecord record;
      CampaignRunner::stampCapture(*member.capture, record);
      copyOutcome(*records_[leader], record);
      records_[member.trial] = std::move(record);
      CampaignMetrics::get().restartGroupFollowers.add();
      commitDecided(member.trial);
    }
  }

  /// Restart worker w: drain the restart groups. A stop request abandons
  /// the queued groups (draining them would decide most of the campaign
  /// after the operator asked it to stop); in-flight restarts finish and are
  /// journaled.
  void restartWorker(RestartQueue& queue, int w) {
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
  }

  const CampaignRunner& runner_;
  const CampaignConfig& config_;
  const ResilienceConfig& res_;
  int threads_ = 1;
  std::uint64_t timeoutMs_ = 0;  ///< fork-only trial deadline base; 0 = none
  CampaignResult result_;
  std::vector<std::uint64_t> crashIndices_;
  std::vector<std::optional<CrashTestRecord>> records_;
  std::vector<std::optional<TrialFailure>> failures_;
  std::size_t resumedTrials_ = 0;
  std::size_t resumedFailures_ = 0;
  std::vector<PlannedPoint> plan_;
  std::optional<TrialJournal> journal_;
  MemoTable memo_;  ///< the convergence memo, the campaign's only table

  std::mutex tallyMutex_;
  TrialTally::Outcomes tally_;
  std::size_t done_ = 0;

  std::atomic<int> failureCount_{0};
  std::atomic<std::uint64_t> retryCount_{0};
  std::atomic<std::uint64_t> timeoutCount_{0};
  std::atomic<bool> budgetExceeded_{false};
  std::atomic<int> newlyCompleted_{0};
  std::atomic<bool> workersAbort_{false};
  std::mutex errorMutex_;
  std::exception_ptr firstError_;

  std::optional<ForkParent> fork_;
  std::optional<StatusWriter> status_;  ///< last: its sampler reads the above
};

CampaignResult CampaignRunner::run() const {
  const ResilienceConfig& res = config_.resilience;
  // Only a fork worker can be reclaimed from a hang: an in-process run has
  // no way to stop a trial that never returns.
  if (res.trialTimeoutMs > 0 && res.isolation != IsolationMode::Fork) {
    throw std::invalid_argument(
        "a trial deadline (trialTimeoutMs) requires fork isolation");
  }
  if (telemetry::tracing()) {
    telemetry::TraceEvent("campaign_begin")
        .field("tests", config_.numTests)
        .field("seed", config_.seed)
        .field("mode", config_.mode == SnapshotMode::NvmImage ? "nvm" : "coherent")
        .field("plan_points", static_cast<std::uint64_t>(config_.plan.points.size()))
        .emit();
  }

  // Parse any resume journal before spending time on the golden run, so a
  // bad path/file fails fast.
  std::optional<JournalReplay> replay;
  if (!res.resumePath.empty()) {
    replay = readJournal(res.resumePath);
    const JournalHeader& header = replay->header;
    if (header.shardCount > 1) {
      throw std::runtime_error(
          "--resume " + res.resumePath + ": journal is shard " +
          std::to_string(header.shardIndex) + "/" + std::to_string(header.shardCount) +
          " of a sharded campaign; sharding was removed, so only an unsharded "
          "journal resumes");
    }
  }

  CampaignExecution execution(*this);
  execution.golden();
  execution.draw();
  execution.resume(std::move(replay));
  execution.plan();
  execution.evaluate();
  return execution.finalize();
}

SweepOutcome CampaignRunner::runSweep(const GoldenStats& golden,
                                      const std::vector<std::uint64_t>& indices,
                                      const CaptureSink& sink) const {
  SweepOutcome outcome;
  Runtime rt(config_.cache);
  rt.setPlan(config_.plan);
  rt.setTraceRun("sweep");
  rt.enableProfile();
  // A failed run must not throw past the accounting below, unless the
  // campaign propagates its first exception.
  const auto died = [&] {
    if (config_.resilience.isolation == IsolationMode::Propagate) throw;
    outcome.failure = currentFailure(rt.throwRegionPath());
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
    if (g_childTraceBuf != nullptr) throw;  // a worker child's OOM exit
    died();
  } catch (...) {
    died();
  }
  rt.powerLoss();
  CampaignMetrics::get().recordRun(rt.events());
  outcome.profile.accumulate(rt);
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

int CampaignRunner::runRestart(const GoldenStats& golden, const SweepCapture& input,
                               std::size_t trial, CrashTestRecord& record,
                               const MemoLookup& lookup) const {
  telemetry::PhaseSpan restartSpan("restart", CampaignMetrics::get().restartUs,
                                   static_cast<std::int64_t>(trial));
  CampaignMetrics& metrics = CampaignMetrics::get();
  Runtime restartRt(config_.cache);
  // Restarts run direct, without a crash clock: their outcome (S1-S4, extra
  // iterations) depends only on computed values, which direct mode preserves
  // bit-for-bit, and the paper's restarts execute natively anyway — only the
  // crashing run's cache-vs-NVM divergence needs the hierarchy simulated.
  // A restart never crashes (its deadline is the parent's SIGKILL) and no
  // count of it is read.
  restartRt.setRunKind(RunKind::Restart);
  const int stride = golden.memoStride;
  if (stride > 0) restartRt.armStateDigest();
  restartRt.setPlan(config_.plan);
  restartRt.setTraceRun("restart:" + std::to_string(trial));
  auto restartApp = factory_();
  restartApp->setup(restartRt);
  restartApp->initialize(restartRt);
  for (const auto& [id, bytes] : input.snapshots) {
    restartRt.restoreObject(id, bytes);
  }

  // Key every stride-th iteration end; the first hit decides the restart.
  const bool compareBytes = memoSeams().compareBytes;
  std::optional<MemoHit> hit;
  const Driver::IterationHook check = [&](int iteration) {
    if (iteration % stride != 0) return false;
    metrics.memoChecks.add();
    const MemoKey key{iteration, Driver::stateKey(*restartApp, restartRt)};
    std::string bytes;
    if (compareBytes) bytes = memoStateBytes(*restartApp, restartRt);
    hit = lookup(key, compareBytes ? &bytes : nullptr);
    return hit.has_value();
  };
  const int cap = golden.finalIteration * config_.maxIterationFactor;
  const auto rerun = Driver::run(*restartApp, restartRt, input.restartIteration, cap,
                                 stride > 0 ? check : Driver::IterationHook{});
  metrics.restartIterations.add(static_cast<std::uint64_t>(rerun.iterationsExecuted));

  if (rerun.stopped) {
    const MemoOutcome& outcome = hit->outcome;
    record.response = outcome.response;
    record.extraIterations = outcome.extraIterations;
    record.note = outcome.note;
    const int skipped = std::max(0, outcome.lastIteration - rerun.finalIteration);
    (hit->source == MemoSource::Golden ? metrics.memoGoldenHits : metrics.memoTrialHits)
        .add();
    metrics.memoIterationsSkipped.add(static_cast<std::uint64_t>(skipped));
    if (telemetry::tracing()) {
      telemetry::TraceEvent("restart_converged")
          .field("trial", static_cast<std::uint64_t>(trial))
          .field("iteration", rerun.finalIteration)
          .field("source", toString(hit->source))
          .field("skipped", skipped)
          .emit();
    }
    return outcome.lastIteration;
  }

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
  return rerun.finalIteration;
}

}  // namespace easycrash::crash
