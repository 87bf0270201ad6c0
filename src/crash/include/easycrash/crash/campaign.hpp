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
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "easycrash/memsim/config.hpp"
#include "easycrash/memsim/events.hpp"
#include "easycrash/runtime/app.hpp"
#include "easycrash/runtime/persistence_plan.hpp"

namespace easycrash::crash {

/// The paper's four application responses after crash + restart (Figure 3).
enum class Response {
  S1,  ///< successful recomputation, no extra iterations
  S2,  ///< successful recomputation, but extra iterations were needed
  S3,  ///< interruption (segfault analogue)
  S4,  ///< acceptance verification fails (even with 2x iterations)
};

[[nodiscard]] const char* toString(Response response);
/// Inverse of toString(Response); nullopt for any other text.
[[nodiscard]] std::optional<Response> responseFromString(std::string_view text);

/// How the restart snapshot is taken.
enum class SnapshotMode {
  NvmImage,  ///< what actually survives the crash (NVCT methodology)
  Coherent,  ///< force-consistent copy (the paper's physical-machine
             ///< "verified" methodology in Figure 6)
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

/// How trials are isolated from the campaign and from the host process.
/// InProcess and Fork produce byte-identical CSV/journal/report output and
/// the same metrics (bar `campaign.worker_*`) for every trial that does not
/// die — the same differential bar as the thread count.
enum class IsolationMode {
  Propagate,  ///< in-process, no isolation (library default; unit tests,
              ///< embedding): the first trial exception escapes run()
  InProcess,  ///< in-process (`nvct --isolation none`): a throwing trial or
              ///< failed EC_CHECK becomes a retried TrialFailure
  Fork,       ///< pre-forked worker children (nvct default): a throwing
              ///< trial is trapped as under InProcess; one that segfaults,
              ///< wild-writes, OOMs or hangs kills only its worker, which is
              ///< classified, recorded as a TrialFailure and respawned
};

/// Fault-tolerance knobs for one campaign (docs/ROBUSTNESS.md). Defaults
/// keep the legacy all-or-nothing behaviour: no isolation, no deadline, no
/// journal; the first trial exception propagates out of run().
struct ResilienceConfig {
  /// Where trials run and whether a failing one is trapped (IsolationMode).
  IsolationMode isolation = IsolationMode::Propagate;
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

struct CampaignConfig {
  std::uint64_t seed = 1;
  int numTests = 200;
  SnapshotMode mode = SnapshotMode::NvmImage;
  runtime::PersistencePlan plan;
  memsim::CacheConfig cache = memsim::CacheConfig::scaledDefault();
  /// Restart iteration cap as a multiple of the original iteration count
  /// (paper: verification fails after 2x the original iterations).
  int maxIterationFactor = 2;
  /// Restart threads for the crash tests. Each test runs on its own simulated
  /// machine, so campaigns are embarrassingly parallel; results are
  /// identical to a single-threaded run (crash points are pre-drawn and
  /// records land by index). The producer joins them once the sweep is
  /// done. 0 = one lane per core: hardware concurrency - 1 threads (at
  /// least 1), plus the producer.
  int threads = 1;
  /// App name stamped onto telemetry (trace common field + trial events).
  std::string appLabel;
  /// Render a live progress line on stderr from each status sample: trials
  /// done, S1-S4 tally, ETA.
  bool progress = false;
  /// Atomically rewrite a self-contained live status snapshot (JSON) at this
  /// path while the campaign runs, and once more after the drain on
  /// interrupt. Empty = off.
  std::string statusPath;
  /// Status sample interval: the snapshot rewrite and the progress redraw.
  int statusIntervalMs = 1000;
  /// Run the golden run through the cache simulator so GoldenStats::events
  /// (and the persistence flush mix in them) describe the simulated
  /// machine. Off, the golden run goes direct-to-NVM and its events are the
  /// (near-empty) direct-run values; every other golden output is the same
  /// either way. Only consumers of golden MemEvents — the workflow's
  /// Equation-5 time model, the overhead benches — set it.
  bool goldenEvents = false;
  /// Fault tolerance: trial isolation, deadline, journal/resume (see above).
  ResilienceConfig resilience;
  /// Deterministic fault injection into every crashing run (see FaultPlan).
  /// Only legal with resilience.isolation == IsolationMode::Fork.
  FaultPlan inject;
};

/// A convergence-memo key (docs/INTERNALS.md "Convergence memo"): a
/// main-loop iteration end and the run's state key there
/// (runtime::Driver::stateKey).
struct MemoKey {
  int iteration = 0;
  memsim::Digest128 digest;

  friend bool operator==(const MemoKey&, const MemoKey&) = default;
};

/// Test seams of the convergence memo, the campaign-level counterpart of
/// Runtime::setBulk/setScan: process-wide, and inherited by fork workers
/// forked after they are set. Neither changes a byte of campaign output.
struct MemoSeams {
  /// Let restarts stop on keys other restarts inserted. Off, only golden
  /// keys match, so the work each restart does no longer depends on which
  /// lane decided what first.
  bool trialMatches = true;
  /// Keep every entry's full state bytes and compare them on every hit
  /// (a mismatch throws). A fork worker's keys reach the parent's table
  /// without their bytes, so the comparison covers in-process restarts.
  bool compareBytes = false;
};
void setMemoSeams(const MemoSeams& seams);
[[nodiscard]] MemoSeams memoSeams();

/// Statistics of the golden (crash-free) execution.
struct GoldenStats {
  std::string app;  ///< the app's own name (IApp::info().name)
  std::uint64_t windowAccesses = 0;  ///< tracked accesses in the crash window
  int finalIteration = 0;
  /// Simulated-machine events; near-empty unless CampaignConfig::goldenEvents.
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
  /// The verification note: what a restart that reaches a golden memo key
  /// reports.
  std::string verifyDetail;
  /// Convergence memo: restarts key every memoStride-th iteration end
  /// (0 = memo off), and memoKeys are the golden run's keys at some of
  /// those iteration ends, spaced to keep the golden run cheap, read from
  /// its value image whether it ran direct or tracked (goldenEvents). Empty
  /// when the run stopped at its cap instead of converging. memoBytes holds
  /// their state bytes under MemoSeams::compareBytes only.
  int memoStride = 0;
  std::vector<MemoKey> memoKeys;
  std::vector<std::string> memoBytes;
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

/// A convergence memo hit: the outcome a key decides and where it came
/// from. Defined in src/crash/convergence_memo.hpp.
struct MemoHit;

/// How a restart asks the convergence memo about a checked iteration end:
/// its MemoProbe in-process, a round trip to the parent's probe in a fork
/// worker. `bytes` is the key's state bytes under MemoSeams::compareBytes,
/// else null.
using MemoLookup =
    std::function<std::optional<MemoHit>(const MemoKey& key, const std::string* bytes)>;

/// How one sweep crashing run ended (CampaignRunner::runSweep), with its
/// access/wear profile. A run visits its crash indices in ascending order,
/// so the captured points are always a prefix of the planned ones. Defined
/// in campaign.cpp.
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

/// Aggregated access/wear profile of a campaign's simulated runs (the sweep
/// crashing runs, plus the golden run under CampaignConfig::goldenEvents;
/// direct-mode runs record nothing by design). The flight recorder is always
/// on. All runs of a campaign see the same object layout, so per-object
/// totals and bins merge element-wise.
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
  /// a campaign whose sweep died and restarted folds in one per sweep).
  void merge(const CampaignProfile& other);
};

struct TrialTally;  // report.hpp

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
  /// Flight-recorder access/wear profile: the sweep crashing runs', plus the
  /// golden run's under goldenEvents.
  CampaignProfile profile;

  /// The outcome statistics of `tests` (report.hpp); the accessors below
  /// read it.
  [[nodiscard]] TrialTally tally() const;
  /// The paper's application recomputability: S1 fraction.
  [[nodiscard]] double recomputability() const;
  /// S1+S2 fraction (successful outcome, performance aside).
  [[nodiscard]] double successWithExtra() const;
  [[nodiscard]] std::array<int, 4> responseCounts() const;
  /// Average extra iterations over S2 tests (Table 1 restart overhead).
  [[nodiscard]] double averageExtraIterations() const;
  /// c_k: per-region recomputability (S1 fraction of crashes in region k).
  [[nodiscard]] std::map<runtime::PointId, double> regionRecomputability() const;
};

/// Runs campaigns. The factory must produce deterministic app instances: a
/// fresh run always executes the same tracked-access sequence.
class CampaignRunner {
 public:
  CampaignRunner(runtime::AppFactory factory, CampaignConfig config);

  /// Golden run only (fast; used for Table 1 characteristics). Unless
  /// config_.goldenEvents is set, the run goes direct-mode: windowAccesses,
  /// finalIteration, the verify metric, region shares and iteration ends,
  /// the object table and persistenceOps are functions of the access stream
  /// and the architectural values, which the cache simulation does not
  /// change, so they are identical while the run costs O(accesses) instead
  /// of O(accesses x cache simulation). Only MemEvents and the per-block
  /// access/wear profile, which describe the cache machine, are then
  /// (near-empty) direct-run values. A tracked run's access/wear profile is
  /// folded into `profile` when given.
  [[nodiscard]] GoldenStats goldenRun(CampaignProfile* profile = nullptr) const;

  /// Full campaign: golden run + numTests crash tests.
  [[nodiscard]] CampaignResult run() const;

 private:
  /// The sweep crashing run, shared by every isolation mode: ONE run of the
  /// app visits `indices` (distinct crash indices, strictly increasing) and
  /// takes the NVCT post-mortem at each into a SweepCapture handed to
  /// `sink`, which returns false to end the run early; a real CrashEvent
  /// armed at the last index ends the run without simulating the tail.
  /// In-process the sink queues restarts; in a fork worker it streams the
  /// capture to the parent. The outcome carries the run's access/wear
  /// profile. A run that dies early reports the failure instead of
  /// throwing — unless the campaign propagates exceptions
  /// (IsolationMode::Propagate).
  [[nodiscard]] SweepOutcome runSweep(const GoldenStats& golden,
                                      const std::vector<std::uint64_t>& indices,
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
  /// by every isolation mode, which is what makes them byte-identical.
  /// It keys every golden.memoStride-th iteration end through `lookup` and,
  /// on the first hit, stops and copies that outcome (docs/INTERNALS.md
  /// "Convergence memo"). Returns the last iteration the outcome stands
  /// for; the caller's probe inserts its trail once the restart is decided.
  int runRestart(const GoldenStats& golden, const SweepCapture& input, std::size_t trial,
                 CrashTestRecord& record, const MemoLookup& lookup) const;

  /// Parent-side completion bookkeeping of one decided trial: campaign
  /// counters (trials, S1-S4 responses) and the trial_end trace event. Only
  /// the deciding process runs this — fork workers never do, so the parent's
  /// registry stays the single source of truth.
  void commitTrial(std::size_t trial, const CrashTestRecord& record) const;

  /// Arm config_.inject on a crashing run (worker children only; no-op when
  /// no fault plan is set or no child fault context is installed).
  void installFault(runtime::Runtime& rt) const;

  friend struct ForkChildServer;
  friend class ForkParent;
  friend class CampaignExecution;

  runtime::AppFactory factory_;
  CampaignConfig config_;
};

}  // namespace easycrash::crash
