// Crash-test campaigns (paper §3, §4.1).
//
// A campaign runs N independent crash tests against one application under
// one persistence plan. Each test: (1) run the app and stop it after a
// uniformly-random tracked access inside the main-loop window, (2) perform
// the NVCT post-mortem — per-object inconsistency rates between caches and
// the NVM image, (3) model the power loss, (4) restart: re-initialise, load
// the candidates' surviving NVM bytes (the paper's load_value), resume from
// the bookmarked iteration, cap at 2x the original iteration count, and
// (5) classify the outcome into the paper's four response classes S1-S4.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "easycrash/memsim/config.hpp"
#include "easycrash/memsim/events.hpp"
#include "easycrash/runtime/app.hpp"
#include "easycrash/runtime/persistence_plan.hpp"

namespace easycrash::memsim {
class RegionMonitor;
}

namespace easycrash::crash {

/// The paper's four application responses after crash + restart (Figure 3).
enum class Response {
  S1,  ///< successful recomputation, no extra iterations
  S2,  ///< successful recomputation, but extra iterations were needed
  S3,  ///< interruption (segfault analogue)
  S4,  ///< acceptance verification fails (even with 2x iterations)
};

[[nodiscard]] const char* toString(Response response);

/// How the restart snapshot is taken.
enum class SnapshotMode {
  NvmImage,  ///< what actually survives the crash (NVCT methodology)
  Coherent,  ///< force-consistent copy (the paper's physical-machine
             ///< "verified" methodology in Figure 6)
};

/// Campaign monitoring mode (docs/INTERNALS.md "Adaptive region monitor").
enum class MonitorMode {
  Full,     ///< every tracked byte pays full value tracking (the default;
            ///< byte-identical to campaigns before the monitor existed)
  Sampled,  ///< the golden run goes direct-mode with a region-sampled
            ///< monitor riding the access stream (no cache simulation), and
            ///< large non-candidates are demoted in the crashing runs —
            ///< values live in NVM, the cache keeps metadata-only residency
            ///< — so only the candidate set pays per-byte value tracking
            ///< while crash indices, rates and outcomes stay bit-identical
            ///< to full tracking (the unlock for large footprints)
};

struct MonitorConfig {
  MonitorMode mode = MonitorMode::Full;
  /// Sample one of every `sampleInterval` logical tracked elements of the
  /// monitored golden run.
  std::uint32_t sampleInterval = 64;
  /// DAMON-style adaptive region bounds/cadence (memsim::RegionMonitor).
  std::uint32_t maxRegionsPerObject = 64;
  std::uint64_t aggregateEvery = 2048;
  /// Objects at or below this size always keep full value tracking: they are
  /// cheap to track and small-object rates are exactly where sampling could
  /// mis-rank (a handful of writes is a large fraction of a small object).
  std::uint64_t smallObjectBytes = 4096;
  /// Keep the golden run fully cache-simulated even in sampled mode. The
  /// monitor observes the access stream, which is routing-independent, so
  /// the sampled summary and the demotion set are identical either way —
  /// but a direct-mode golden reports (near-empty) direct-run MemEvents.
  /// The workflow's Equation-5 time model consumes golden.events, so the
  /// four-step workflow opts in; single campaigns default to the fast
  /// direct-mode golden (that is where the large-footprint win comes from).
  bool trackedGolden = false;
};

/// Per-region sampled stats of one monitored object (pre-pass output).
struct MonitorRegionStats {
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;
  std::uint64_t samples = 0;
  std::uint64_t writes = 0;
};

struct MonitorObjectStats {
  runtime::ObjectId id = 0;
  std::string name;
  std::uint64_t bytes = 0;
  bool candidate = false;
  bool demoted = false;
  std::uint64_t samples = 0;       ///< sampled accesses, setup + window
  std::uint64_t writes = 0;        ///< sampled writes, setup + window
  std::uint64_t windowWrites = 0;  ///< sampled writes inside the crash window
  std::vector<MonitorRegionStats> regions;
};

/// What the sampled monitoring pre-pass concluded: the adaptive region stats
/// per object and the demotion decision they fed. Empty (active == false)
/// under --monitor full. Deterministic for a fixed seed at any --threads and
/// --isolation: the pre-pass is one seeded single-threaded run in the parent.
struct MonitorSummary {
  bool active = false;
  std::uint64_t samples = 0;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::uint64_t demotedObjects = 0;
  std::uint64_t demotedBytes = 0;
  std::uint64_t trackedObjects = 0;
  std::uint64_t trackedBytes = 0;
  std::vector<MonitorObjectStats> objects;

  [[nodiscard]] std::vector<std::string> demotedNames() const;
};

/// A trial the resilience layer gave up on: every attempt threw, or its
/// worker died or missed the fork deadline. Failed trials are excluded from
/// the S1–S4 rates (CampaignResult::tests) but reported here and in the
/// journal, so a campaign sweep never silently loses statistics to a
/// harness bug.
struct TrialFailure {
  std::size_t trial = 0;              ///< campaign test index
  std::uint64_t crashAccessIndex = 0; ///< the trial's pre-drawn crash point
  bool timeout = false;               ///< fork deadline, not an exception
  int attempts = 1;                   ///< tries spent (1 + retries)
  std::string reason;                 ///< exception text or "watchdog: ..."
  std::string regionPath;             ///< crash-site path if the crash fired
  /// How the trial died. In-process evaluation produces "exception"; the
  /// fork evaluator adds the worker-death kinds "crashed" (killed by a
  /// signal: SIGSEGV, SIGABRT, ...), "killed" (hard SIGKILL: the trial
  /// deadline or the kernel OOM killer), "oom" (the worker caught
  /// std::bad_alloc) and "protocol" (torn frame / unexpected exit).
  /// Journals written before deadlines became fork-only may also hold
  /// "timeout".
  std::string kind = "exception";
};

/// How trials are evaluated with respect to the host process.
enum class IsolationMode {
  None,  ///< in-process (library default; unit tests, embedding)
  Fork,  ///< pre-forked worker children (nvct default): a trial that
         ///< segfaults, wild-writes, OOMs or hangs kills one worker, which
         ///< is classified, recorded as a TrialFailure and respawned
};

/// Fault-tolerance knobs for one campaign (docs/ROBUSTNESS.md). Defaults
/// keep the legacy all-or-nothing behaviour: no isolation, no deadline, no
/// journal; the first trial exception propagates out of run().
struct ResilienceConfig {
  /// Trap per-trial exceptions/EC_CHECK failures into TrialFailure records
  /// instead of aborting the campaign.
  bool isolate = false;
  /// Process isolation for trial execution (requires `isolate`). Fork mode
  /// produces byte-identical CSV/journal/report output for every trial that
  /// does not die — the same differential bar as threads and sharding.
  IsolationMode isolation = IsolationMode::None;
  /// Abort the campaign once more than this many trials fail for good
  /// (after retries). Negative = unlimited.
  int maxFailures = -1;
  /// Re-run a failing trial this many times before recording the failure.
  int maxRetries = 1;
  /// Per-attempt wall-clock deadline, fork isolation only: the parent
  /// SIGKILLs a worker whose reply misses it (a restart's deadline scales
  /// with its remaining iterations). 0 = derive from the golden run:
  /// max(1s, goldenRunTime * goldenTimeoutMultiple). run() rejects a
  /// non-zero value without fork isolation.
  std::uint64_t trialTimeoutMs = 0;
  /// Golden-run multiple used when trialTimeoutMs == 0. 0 disables the
  /// deadline unless trialTimeoutMs is set explicitly; ignored in-process.
  double goldenTimeoutMultiple = 0.0;
  /// Append completed trials to this crash-safe JSONL journal (empty = off).
  std::string journalPath;
  /// Replay this journal before running: already-decided trials are not
  /// re-executed, so an interrupted campaign resumes where it stopped.
  std::string resumePath;
  /// Journal flush cadence (temp-file + rename every N decided trials).
  int journalFlushEvery = 8;
  /// Test hook: request a graceful stop (as SIGINT/SIGTERM would) once this
  /// many new trials have completed. 0 = off.
  int stopAfterTrials = 0;
  /// Exponential backoff between trial retries: attempt k (1-based) sleeps
  /// retryBackoffMs * 2^(k-1) plus a bounded deterministic jitter (seeded
  /// from campaign seed, trial and attempt), capped at retryBackoffMaxMs.
  /// 0 disables the backoff (immediate re-run, the pre-backoff behaviour).
  std::uint64_t retryBackoffMs = 25;
  std::uint64_t retryBackoffMaxMs = 2000;
};

/// Deterministic fault injection (`nvct --inject`): execute a real,
/// process-fatal fault at an exact 1-based tracked-access index of every
/// crashing run, reusing the crash-clock arming machinery. Requires the fork
/// evaluator — the faults are genuine (SIGSEGV, a torn protocol write,
/// allocator exhaustion, a hard hang), so only a worker child may host them.
struct FaultPlan {
  enum class Kind { None, Segv, WildWrite, Oom, Hang };
  Kind kind = Kind::None;
  std::uint64_t accessIndex = 0;

  [[nodiscard]] bool active() const { return kind != Kind::None; }
};

[[nodiscard]] const char* toString(FaultPlan::Kind kind);

/// Scale-out sharding (`nvct --shard i/k`, docs/INTERNALS.md "Sharded
/// campaigns"). A sharded campaign draws the identical golden run, crash
/// points and seeds as the unsharded one, but executes only the trials it
/// owns: trial t belongs to shard t % count. Shards share no state, so k
/// shards on k machines run the campaign ~k× faster; `nvct merge` folds
/// their journals back into artifacts byte-identical to the unsharded run.
struct ShardConfig {
  int index = 0;  ///< this shard's index in [0, count)
  int count = 1;  ///< total shards; 1 = unsharded (the default)

  [[nodiscard]] bool active() const { return count > 1; }
  /// True iff this shard executes trial `t`.
  [[nodiscard]] bool owns(std::size_t t) const {
    return count <= 1 ||
           t % static_cast<std::size_t>(count) == static_cast<std::size_t>(index);
  }
};

struct CampaignConfig {
  std::uint64_t seed = 1;
  int numTests = 200;
  SnapshotMode mode = SnapshotMode::NvmImage;
  runtime::PersistencePlan plan;
  memsim::CacheConfig cache = memsim::CacheConfig::scaledDefault();
  /// Restart iteration cap as a multiple of the original iteration count
  /// (paper: verification fails after 2x the original iterations).
  int maxIterationFactor = 2;
  /// Worker threads for the crash tests. Each test runs on its own simulated
  /// machine, so campaigns are embarrassingly parallel; results are
  /// identical to a single-threaded run (crash points are pre-drawn and
  /// records land by index). 0 = use the hardware concurrency.
  int threads = 1;
  /// App name stamped onto telemetry (trace common field + trial events).
  std::string appLabel;
  /// Render a live progress line on stderr: trials done, S1-S4 tally, ETA.
  bool progress = false;
  /// Flight recorder (docs/OBSERVABILITY.md): collect the sampled per-object
  /// access/wear profile on the simulated runs (golden + crashing/sweep;
  /// direct-mode restarts record nothing by design). On by default — the
  /// perf gate measures the recorder's overhead — and compiled out (always
  /// empty) under -DEASYCRASH_TELEMETRY=OFF.
  bool profile = true;
  /// Atomically rewrite a self-contained live status snapshot (JSON) at this
  /// path while the campaign runs, and once more after the drain on
  /// interrupt. Empty = off.
  std::string statusPath;
  /// Status snapshot rewrite interval.
  int statusIntervalMs = 1000;
  /// Access monitoring mode: full value tracking (default) or the
  /// region-sampled pre-pass + demotion routing (see MonitorMode).
  MonitorConfig monitor;
  /// Scale-out sharding: execute only the trials this shard owns (see
  /// ShardConfig). Defaults to unsharded.
  ShardConfig shard;
  /// Fault tolerance: trial isolation, deadline, journal/resume (see above).
  ResilienceConfig resilience;
  /// Deterministic fault injection into every crashing run (see FaultPlan).
  /// Only legal with resilience.isolation == IsolationMode::Fork.
  FaultPlan inject;
};

/// Statistics of the golden (crash-free) execution.
struct GoldenStats {
  std::uint64_t windowAccesses = 0;  ///< tracked accesses in the crash window
  int finalIteration = 0;
  memsim::MemEvents events;
  std::uint64_t footprintBytes = 0;
  std::uint64_t candidateBytes = 0;
  std::uint32_t regionCount = 0;
  std::uint64_t persistenceOps = 0;
  double verifyMetric = 0.0;
  std::vector<runtime::DataObjectInfo> objects;
  /// a_k: share of window accesses spent in each region (paper Table 2).
  std::map<runtime::PointId, double> regionTimeShare;
  /// Iteration-end persist points reached per region over the execution.
  std::map<runtime::PointId, std::uint64_t> regionIterationEnds;
};

/// Everything a trial needs from its crashing run, detached from the runtime
/// that produced it: the crash-instant context plus the restart input
/// (restartIteration and the candidate snapshots). The sweep evaluator fills
/// one per distinct crash index during its crashing run and shares it
/// (read-only) between every trial that drew that index. Adjacent sweep
/// captures with byte-identical restart inputs form one restart group
/// (docs/INTERNALS.md "Restart grouping"); only the group leader's capture
/// keeps its snapshot bytes.
struct SweepCapture {
  std::uint64_t crashAccessIndex = 0;
  runtime::PointId region = runtime::kMainLoopEnd;
  std::vector<runtime::PointId> regionPath;
  int crashIteration = 0;
  int restartIteration = 0;
  std::map<runtime::ObjectId, double> inconsistentRate;
  std::map<runtime::ObjectId, std::vector<std::uint8_t>> snapshots;
};

/// How one sweep crashing run ended (CampaignRunner::runSweep). A run
/// visits its crash indices in ascending order, so the captured points are
/// always a prefix of the planned ones. Defined in campaign.cpp.
struct SweepOutcome;

/// Receives each sweep capture in crash-index order; false ends the run.
using CaptureSink = std::function<bool(std::shared_ptr<SweepCapture>)>;

struct CrashTestRecord {
  std::uint64_t crashAccessIndex = 0;
  runtime::PointId region = runtime::kMainLoopEnd;
  /// Region stack at the crash (outermost first; NVCT's call-path feature).
  std::vector<runtime::PointId> regionPath;
  int crashIteration = 0;
  int restartIteration = 0;
  Response response = Response::S4;
  int extraIterations = 0;
  /// Inconsistency rate per candidate object at the crash instant.
  std::map<runtime::ObjectId, double> inconsistentRate;
  std::string note;
};

/// Aggregated access/wear profile of a campaign's simulated runs (golden +
/// crashing/sweep runs; CampaignConfig::profile). All runs of a campaign see
/// the same object layout, so per-object totals and bins merge element-wise.
struct CampaignProfile {
  std::uint32_t strideBytes = 0;  ///< address range per access-profile counter
  std::uint64_t runs = 0;         ///< simulated runs folded in
  std::vector<runtime::ObjectProfile> objects;
  /// Dynamic accesses attributed to each region, summed over the runs
  /// (region kMainLoopEnd collects accesses outside any region).
  std::map<runtime::PointId, std::uint64_t> regionAccesses;

  [[nodiscard]] bool empty() const { return runs == 0; }
  /// Fold one finished run's profile in (no-op unless `rt` is profiling).
  void accumulate(const runtime::Runtime& rt, std::size_t bins = 16);
  /// Fold another accumulated profile in (layout-checked element-wise merge;
  /// the fork evaluator ships per-run profiles from worker children).
  void merge(const CampaignProfile& other);
};

struct CampaignResult {
  GoldenStats golden;
  /// Completed trials in campaign test-index order. Without failures or an
  /// interruption this holds every planned test, exactly as before the
  /// resilience layer; failed/undone trials are simply absent.
  std::vector<CrashTestRecord> tests;
  /// Trials abandoned after retries (excluded from the S1-S4 rates).
  std::vector<TrialFailure> failures;
  int plannedTests = 0;            ///< numTests this campaign was drawn for
  std::size_t resumedTrials = 0;   ///< trials replayed from --resume
  bool interrupted = false;        ///< stopped early by SIGINT/SIGTERM
  /// Flight-recorder access/wear profile (empty unless CampaignConfig::profile
  /// and telemetry are compiled in).
  CampaignProfile profile;
  /// Sampled-monitoring pre-pass output (active only under sampled mode).
  MonitorSummary monitor;

  /// The paper's application recomputability: S1 fraction.
  [[nodiscard]] double recomputability() const;
  /// S1+S2 fraction (successful outcome, performance aside).
  [[nodiscard]] double successWithExtra() const;
  [[nodiscard]] std::array<int, 4> responseCounts() const;
  /// Average extra iterations over S2 tests (Table 1 restart overhead).
  [[nodiscard]] double averageExtraIterations() const;
  /// c_k: per-region recomputability (S1 fraction of crashes in region k).
  [[nodiscard]] std::map<runtime::PointId, double> regionRecomputability() const;
  [[nodiscard]] std::map<runtime::PointId, int> regionTestCounts() const;
  /// Per-candidate mean inconsistency rate across tests.
  [[nodiscard]] std::map<runtime::ObjectId, double> meanInconsistentRate() const;
};

/// Runs campaigns. The factory must produce deterministic app instances: a
/// fresh run always executes the same tracked-access sequence.
class CampaignRunner {
 public:
  CampaignRunner(runtime::AppFactory factory, CampaignConfig config);

  /// Golden run only (fast; used for Table 1 characteristics).
  [[nodiscard]] GoldenStats goldenRun() const { return goldenRun(nullptr); }

  /// Full campaign: golden run + numTests crash tests.
  [[nodiscard]] CampaignResult run() const;

 private:
  /// The sweep crashing run, shared by both isolation modes: ONE run of the
  /// app visits `indices` (distinct crash indices, strictly increasing) and
  /// takes the NVCT post-mortem at each into a SweepCapture handed to
  /// `sink`, which returns false to end the run early; a real CrashEvent
  /// armed at the last index ends the run without simulating the tail.
  /// `trialCounts[i]` is how many trials drew `indices[i]` (trace only).
  /// In-process the sink queues restarts; in a fork worker it streams the
  /// capture to the parent. A run that dies early reports the failure
  /// instead of throwing — unless isolation is off, where the exception
  /// propagates.
  [[nodiscard]] SweepOutcome runSweep(const GoldenStats& golden,
                                      const std::vector<std::uint64_t>& indices,
                                      const std::vector<std::uint64_t>& trialCounts,
                                      const CaptureSink& sink) const;

  /// The per-trial half of a record: reset `record` and copy the capture's
  /// crash context into it (crash index, region, region path, crash and
  /// restart iteration, inconsistency rates). Every restart stamps through
  /// here before it runs, so a restart that fails still names its crash
  /// site — in-process restarts, restart-group members and fork replies
  /// alike.
  static void stampCapture(const SweepCapture& capture, CrashTestRecord& record);

  /// The restart half: re-initialise, restore `input`'s snapshots, resume
  /// from its restartIteration and classify S1–S4 into record.response,
  /// extraIterations and note. A pure function of that restart input, which
  /// is what lets one restart decide a whole restart group; shared verbatim
  /// by both isolation modes, which is what makes them byte-identical.
  void runRestart(const GoldenStats& golden, const SweepCapture& input,
                  std::size_t trial, CrashTestRecord& record) const;

  /// Enable profiling on a simulated run's runtime (per config_.profile) and
  /// fold its finished profile into profile_. Worker threads call the fold
  /// concurrently, hence the mutex; the hot access paths never touch it.
  void armProfile(runtime::Runtime& rt) const;
  void accumulateProfile(const runtime::Runtime& rt) const;

  /// Report one finished simulated run's events + profile. In the parent
  /// these land in the process metrics registry and profile_; inside a fork
  /// worker they are collected per request and shipped back instead.
  void noteRun(const runtime::Runtime& rt) const;

  /// Parent-side completion bookkeeping of one decided trial: campaign
  /// counters (trials, S1-S4 responses) and the trial_end trace event. Only
  /// the deciding process runs this — fork workers never do, so the parent's
  /// registry stays the single source of truth.
  void commitTrial(std::size_t trial, const CrashTestRecord& record) const;

  /// Arm config_.inject on a crashing run (worker children only; no-op when
  /// no fault plan is set or no child fault context is installed).
  void installFault(runtime::Runtime& rt) const;

  /// Golden run with an optional adaptive region monitor riding the access
  /// stream. With a monitor installed and monitor.trackedGolden unset, the
  /// run goes direct-mode: the monitor observes the same access sequence
  /// either way (sampling is stream-based, not cache-based), so the golden
  /// outputs the campaign depends on — windowAccesses, finalIteration, the
  /// verify metric, region shares — are identical, while the run itself
  /// costs O(accesses) instead of O(accesses x cache simulation). Only
  /// MemEvents and the per-block access/wear profile, which describe the
  /// cache machine, are (near-empty) direct-run values then.
  [[nodiscard]] GoldenStats goldenRun(memsim::RegionMonitor* monitor) const;

  /// Sampled mode only: digest the monitor that rode the golden run into
  /// monitorState_ — per-object region stats, the sampled activity ranking,
  /// and the demotion decisions every crashing run then applies.
  void buildMonitorSummary(const memsim::RegionMonitor& monitor,
                           const GoldenStats& golden) const;

  /// Route the pre-pass demotions onto a crashing run's runtime (no-op under
  /// full monitoring). Must run before the app allocates, so the demoted
  /// objects never enter the cache hierarchy.
  void applyMonitorRouting(runtime::Runtime& rt) const;

  friend struct ForkChildServer;
  friend class ForkParent;
  friend class CampaignExecution;

  runtime::AppFactory factory_;
  CampaignConfig config_;
  mutable std::mutex profileMutex_;
  mutable CampaignProfile profile_;
  mutable MonitorSummary monitorState_;
};

}  // namespace easycrash::crash
