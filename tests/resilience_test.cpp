// Tests for the campaign fault-tolerance layer (docs/ROBUSTNESS.md): trial
// isolation, fork deadlines, the crash-safe resume journal, and the
// graceful stop flag. The miniature apps mirror campaign_test's ProbeApp but
// add controllable failure modes: throwing on inconsistent restart state and
// spinning forever on it (the deadline's prey).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/runtime/tracked.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "journal_fixtures.hpp"
#include "reference_campaign.hpp"

namespace rt = easycrash::runtime;
namespace cr = easycrash::crash;
namespace ms = easycrash::memsim;
namespace tl = easycrash::telemetry;

namespace {

/// Accumulator app with controllable failure behaviour on inconsistent
/// state: FailMode::None behaves like campaign_test's ProbeApp, Throw raises
/// a plain std::runtime_error (a harness bug, not an AppInterrupt), Hang
/// spins on tracked loads forever (only the fork deadline can stop it).
class FaultyApp final : public rt::IApp {
 public:
  enum class FailMode { None, Throw, Hang };

  struct Knobs {
    int iterations = 6;
    int cells = 256;
    FailMode failMode = FailMode::None;
    const char* message = "faulty: non-uniform state";  ///< what Throw throws
  };

  explicit FaultyApp(Knobs knobs) : knobs_(knobs) {}

  [[nodiscard]] const rt::AppInfo& info() const override { return info_; }

  void setup(rt::Runtime& runtime) override {
    runtime.declareRegionCount(2);
    data_ = rt::TrackedArray<std::int64_t>(runtime, "data", knobs_.cells, true);
    sum_ = rt::TrackedScalar<std::int64_t>(runtime, "sum", true);
  }

  void initialize(rt::Runtime& runtime) override {
    (void)runtime;
    for (int i = 0; i < knobs_.cells; ++i) data_.set(i, 0);
    sum_.set(0);
  }

  void iterate(rt::Runtime& runtime, int iteration) override {
    (void)iteration;
    {
      rt::RegionScope region(runtime, 0);
      for (int i = 0; i < knobs_.cells; ++i) data_.set(i, data_.get(i) + 1);
      region.iterationEnd();
    }
    {
      rt::RegionScope region(runtime, 1);
      std::int64_t total = 0;
      for (int i = 0; i < knobs_.cells; ++i) total += data_.get(i);
      if (knobs_.failMode != FailMode::None && !uniform()) {
        if (knobs_.failMode == FailMode::Throw) {
          throw std::runtime_error(knobs_.message);
        }
        // Hang: spin on tracked loads forever.
        for (;;) {
          total += data_.get(0);
        }
      }
      sum_.set(total);
      region.iterationEnd();
    }
  }

  [[nodiscard]] int nominalIterations() const override { return knobs_.iterations; }

  [[nodiscard]] bool converged(rt::Runtime& runtime, int iteration) override {
    (void)runtime;
    return iteration >= knobs_.iterations;
  }

  [[nodiscard]] rt::VerifyOutcome verify(rt::Runtime& runtime) override {
    (void)runtime;
    rt::VerifyOutcome out;
    std::int64_t total = 0;
    for (int i = 0; i < knobs_.cells; ++i) total += data_.peek(i);
    const auto expected =
        static_cast<std::int64_t>(knobs_.iterations) * knobs_.cells;
    out.metric = static_cast<double>(total);
    out.pass = total == expected;
    return out;
  }

 private:
  [[nodiscard]] bool uniform() const {
    const std::int64_t first = data_.peek(0);
    for (int s = 1; s < 16; ++s) {
      if (data_.peek((s * 37) % knobs_.cells) != first) return false;
    }
    return true;
  }

  Knobs knobs_;
  rt::AppInfo info_{"faulty", "controllable-failure test app"};
  rt::TrackedArray<std::int64_t> data_;
  rt::TrackedScalar<std::int64_t> sum_;
};

rt::AppFactory faultyFactory(FaultyApp::Knobs knobs) {
  return [knobs] { return std::make_unique<FaultyApp>(knobs); };
}

cr::CampaignConfig tinyConfig(int tests) {
  cr::CampaignConfig config;
  config.numTests = tests;
  config.cache = ms::CacheConfig::tiny();
  return config;
}

std::string tempPath(const char* name) {
  return testing::TempDir() + name;
}

void expectSameRecords(const cr::CampaignResult& a, const cr::CampaignResult& b) {
  ASSERT_EQ(a.tests.size(), b.tests.size());
  for (std::size_t i = 0; i < a.tests.size(); ++i) {
    const auto& x = a.tests[i];
    const auto& y = b.tests[i];
    EXPECT_EQ(x.crashAccessIndex, y.crashAccessIndex) << "trial " << i;
    EXPECT_EQ(x.region, y.region) << "trial " << i;
    EXPECT_EQ(x.regionPath, y.regionPath) << "trial " << i;
    EXPECT_EQ(x.crashIteration, y.crashIteration) << "trial " << i;
    EXPECT_EQ(x.restartIteration, y.restartIteration) << "trial " << i;
    EXPECT_EQ(x.response, y.response) << "trial " << i;
    EXPECT_EQ(x.extraIterations, y.extraIterations) << "trial " << i;
    EXPECT_EQ(x.inconsistentRate, y.inconsistentRate) << "trial " << i;
  }
}

std::uint64_t counterValue(const char* name) {
  return tl::MetricsRegistry::instance().counter(name).value();
}

/// RAII guard: resilience tests that request a stop must not leak the
/// process-wide flag into later tests.
struct StopFlagGuard {
  StopFlagGuard() { cr::clearStopFlag(); }
  ~StopFlagGuard() { cr::clearStopFlag(); }
};

}  // namespace

// ---- Determinism ------------------------------------------------------------

TEST(ResilienceTest, ThreadedCampaignMatchesSingleThreaded) {
  auto config = tinyConfig(40);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  const auto single = cr::CampaignRunner(faultyFactory({}), config).run();
  config.threads = 4;
  const auto threaded = cr::CampaignRunner(faultyFactory({}), config).run();
  expectSameRecords(single, threaded);
  EXPECT_TRUE(single.failures.empty());
  EXPECT_TRUE(threaded.failures.empty());
}

TEST(ResilienceTest, JournalResumeReproducesCampaignExactly) {
  StopFlagGuard guard;
  const std::string journal = tempPath("resume_roundtrip.jsonl");
  std::remove(journal.c_str());

  auto config = tinyConfig(30);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  config.resilience.journalPath = journal;
  config.resilience.journalFlushEvery = 4;
  config.resilience.stopAfterTrials = 11;
  const auto partial = cr::CampaignRunner(faultyFactory({}), config).run();
  EXPECT_TRUE(partial.interrupted);
  EXPECT_LT(partial.tests.size(), 30u);
  EXPECT_GE(partial.tests.size(), 11u);

  cr::clearStopFlag();
  config.resilience.stopAfterTrials = 0;
  config.resilience.resumePath = journal;
  config.threads = 4;  // resume must stay deterministic across thread counts
  const auto resumed = cr::CampaignRunner(faultyFactory({}), config).run();
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_GE(resumed.resumedTrials, partial.tests.size());

  auto freshConfig = tinyConfig(30);
  const auto fresh = cr::CampaignRunner(faultyFactory({}), freshConfig).run();
  expectSameRecords(fresh, resumed);

  // The resumed campaign's CSV is byte-identical to the uninterrupted one.
  std::ostringstream a;
  std::ostringstream b;
  cr::writeCampaignCsv(fresh, a);
  cr::writeCampaignCsv(resumed, b);
  EXPECT_EQ(a.str(), b.str());
  std::remove(journal.c_str());
}

TEST(ResilienceTest, InterruptedSweepJournalResumesOnEitherPath) {
  // Stop a campaign mid-flight (the sweep decides trials in crash-index
  // order, so the journal holds a scattered set of indices), then resume it
  // once per isolation mode: both must reconstruct the per-trial reference
  // campaign exactly.
  StopFlagGuard guard;
  const std::string journal = tempPath("sweep_resume.jsonl");
  std::remove(journal.c_str());

  auto config = tinyConfig(30);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  config.resilience.journalPath = journal;
  config.resilience.journalFlushEvery = 2;
  config.resilience.stopAfterTrials = 7;
  const auto partial = cr::CampaignRunner(faultyFactory({}), config).run();
  EXPECT_TRUE(partial.interrupted);
  EXPECT_GE(partial.tests.size(), 7u);
  EXPECT_LT(partial.tests.size(), 30u);

  cr::clearStopFlag();
  const auto fresh =
      easycrash::reference::referenceCampaign(faultyFactory({}), tinyConfig(30));

  for (const auto isolation : {cr::IsolationMode::InProcess, cr::IsolationMode::Fork}) {
    cr::clearStopFlag();
    auto resumeConfig = tinyConfig(30);
    resumeConfig.resilience.isolation = isolation;
    resumeConfig.resilience.resumePath = journal;
    const auto resumed = cr::CampaignRunner(faultyFactory({}), resumeConfig).run();
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_GE(resumed.resumedTrials, partial.tests.size());
    expectSameRecords(fresh, resumed);
    std::ostringstream a;
    std::ostringstream b;
    cr::writeCampaignCsv(fresh, a);
    cr::writeCampaignCsv(resumed, b);
    EXPECT_EQ(a.str(), b.str())
        << (isolation == cr::IsolationMode::Fork ? "fork" : "none");
  }
  std::remove(journal.c_str());
}

// ---- Trial isolation --------------------------------------------------------

TEST(ResilienceTest, ThrowingTrialsBecomeFailuresNotAborts) {
  FaultyApp::Knobs knobs;
  knobs.failMode = FaultyApp::FailMode::Throw;
  auto config = tinyConfig(40);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  config.resilience.maxRetries = 0;
  const auto before = counterValue("campaign.trial_failures");
  const auto result = cr::CampaignRunner(faultyFactory(knobs), config).run();
  EXPECT_FALSE(result.interrupted);
  EXPECT_GT(result.failures.size(), 0u) << "expected some restarts to throw";
  EXPECT_EQ(result.tests.size() + result.failures.size(), 40u);
  EXPECT_EQ(counterValue("campaign.trial_failures") - before,
            result.failures.size());
  for (const auto& failure : result.failures) {
    EXPECT_FALSE(failure.timeout);
    EXPECT_NE(failure.reason.find("non-uniform"), std::string::npos);
    EXPECT_EQ(failure.attempts, 1);
  }
  // Failed trials are excluded from the S1-S4 statistics.
  const auto counts = result.responseCounts();
  EXPECT_EQ(static_cast<std::size_t>(counts[0] + counts[1] + counts[2] + counts[3]),
            result.tests.size());
}

TEST(ResilienceTest, ExceptionWithoutAMessageLeavesAReadableJournal) {
  // The journal reader refuses an empty failure reason, so a trial that
  // throws one without a message is still recorded with a reason.
  FaultyApp::Knobs knobs;
  knobs.failMode = FaultyApp::FailMode::Throw;
  knobs.message = "";
  const std::string path = tempPath("journal_empty_reason.jsonl");
  std::remove(path.c_str());
  auto config = tinyConfig(20);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  config.resilience.maxRetries = 0;
  config.resilience.journalPath = path;
  const auto result = cr::CampaignRunner(faultyFactory(knobs), config).run();
  ASSERT_GT(result.failures.size(), 0u);
  const auto replay = cr::readJournal(path);
  ASSERT_EQ(replay.failures.size(), result.failures.size());
  for (const auto& [trial, failure] : replay.failures) {
    EXPECT_EQ(failure.reason, "exception without a message");
  }
  std::remove(path.c_str());
}

TEST(ResilienceTest, WithoutIsolationFirstThrowAborts) {
  FaultyApp::Knobs knobs;
  knobs.failMode = FaultyApp::FailMode::Throw;
  auto config = tinyConfig(40);
  config.resilience.isolation = cr::IsolationMode::Propagate;
  EXPECT_THROW(cr::CampaignRunner(faultyFactory(knobs), config).run(),
               std::runtime_error);
}

TEST(ResilienceTest, FailureBudgetAbortsTheCampaign) {
  FaultyApp::Knobs knobs;
  knobs.failMode = FaultyApp::FailMode::Throw;
  auto config = tinyConfig(40);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  config.resilience.maxRetries = 0;
  config.resilience.maxFailures = 0;
  EXPECT_THROW(cr::CampaignRunner(faultyFactory(knobs), config).run(),
               std::runtime_error);
}

TEST(ResilienceTest, RetriesAreCountedOnPermanentFailures) {
  FaultyApp::Knobs knobs;
  knobs.failMode = FaultyApp::FailMode::Throw;
  auto config = tinyConfig(20);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  config.resilience.maxRetries = 2;
  const auto before = counterValue("campaign.trial_retries");
  const auto result = cr::CampaignRunner(faultyFactory(knobs), config).run();
  ASSERT_GT(result.failures.size(), 0u);
  for (const auto& failure : result.failures) EXPECT_EQ(failure.attempts, 3);
  EXPECT_EQ(counterValue("campaign.trial_retries") - before,
            2 * result.failures.size());
}

// ---- Deadlines ----------------------------------------------------------------

TEST(ResilienceTest, WatchdogCancelsHungTrials) {
  // A hung restart never returns to the campaign: only the fork parent's
  // deadline, a SIGKILL of the worker, reclaims it.
  FaultyApp::Knobs knobs;
  knobs.failMode = FaultyApp::FailMode::Hang;
  auto config = tinyConfig(6);
  config.threads = 2;
  config.resilience.isolation = cr::IsolationMode::Fork;
  config.resilience.maxRetries = 0;
  config.resilience.trialTimeoutMs = 150;
  const auto before = counterValue("campaign.trial_timeouts");
  const auto result = cr::CampaignRunner(faultyFactory(knobs), config).run();
  EXPECT_GT(result.failures.size(), 0u) << "expected hung restarts";
  EXPECT_EQ(result.tests.size() + result.failures.size(), 6u)
      << "non-hanging trials must still complete";
  std::uint64_t timeouts = 0;
  for (const auto& failure : result.failures) {
    EXPECT_TRUE(failure.timeout) << failure.reason;
    EXPECT_EQ(failure.kind, "killed");
    EXPECT_EQ(failure.reason, "watchdog: trial exceeded its 150 ms deadline");
    if (failure.timeout) ++timeouts;
  }
  EXPECT_GT(timeouts, 0u);
  EXPECT_EQ(counterValue("campaign.trial_timeouts") - before, timeouts);
}

TEST(ResilienceTest, InProcessCampaignsRejectADeadline) {
  // In-process, nothing could enforce the deadline: run() refuses it rather
  // than silently running without one.
  auto config = tinyConfig(2);
  config.resilience.trialTimeoutMs = 100;
  EXPECT_THROW((void)cr::CampaignRunner(faultyFactory({}), config).run(),
               std::invalid_argument);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  EXPECT_THROW((void)cr::CampaignRunner(faultyFactory({}), config).run(),
               std::invalid_argument);
}

namespace {

/// FaultyApp with a fixed wall-clock cost per iteration: trial duration
/// scales with the crash index, which is exactly what the per-trial budget
/// model must absorb. Sleep-driven so load on the CI machine cannot shrink
/// the cost below the nominal value.
class SleepyApp final : public rt::IApp {
 public:
  void setup(rt::Runtime& runtime) override {
    runtime.declareRegionCount(1);
    data_ = rt::TrackedArray<std::int64_t>(runtime, "data", kCells, true);
  }

  void initialize(rt::Runtime& runtime) override {
    (void)runtime;
    for (int i = 0; i < kCells; ++i) data_.set(i, 0);
  }

  void iterate(rt::Runtime& runtime, int iteration) override {
    (void)iteration;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    rt::RegionScope region(runtime, 0);
    for (int i = 0; i < kCells; ++i) data_.set(i, data_.get(i) + 1);
    region.iterationEnd();
  }

  [[nodiscard]] const rt::AppInfo& info() const override { return info_; }
  [[nodiscard]] int nominalIterations() const override { return kIterations; }

  [[nodiscard]] bool converged(rt::Runtime& runtime, int iteration) override {
    (void)runtime;
    return iteration >= kIterations;
  }

  [[nodiscard]] rt::VerifyOutcome verify(rt::Runtime& runtime) override {
    (void)runtime;
    rt::VerifyOutcome out;
    std::int64_t total = 0;
    for (int i = 0; i < kCells; ++i) total += data_.peek(i);
    out.metric = static_cast<double>(total);
    out.pass = total == static_cast<std::int64_t>(kIterations) * kCells;
    return out;
  }

  static constexpr int kIterations = 8;
  static constexpr int kCells = 32;

 private:
  rt::AppInfo info_{"sleepy", "fixed wall-clock cost per iteration"};
  rt::TrackedArray<std::int64_t> data_;
};

}  // namespace

TEST(ResilienceTest, LateCrashTrialsFitTheScaledBudget) {
  // Regression for the flat-deadline bug: the golden run takes ~40 ms
  // (8 iterations x 5 ms) against the 55 ms base deadline below. The fork
  // parent restarts the base at every streamed capture, so the sweep's
  // crashing run — a whole golden run's worth of sleeps before the last
  // capture — never owes more than one base in one stretch; a restart from
  // an early bookmark owes up to the iteration cap (~80 ms of sleeps) and
  // its budget (remaining iterations over the golden count) scales the
  // deadline to ~110 ms. No attempt may time out.
  const std::uint64_t before = counterValue("campaign.trial_timeouts");
  auto config = tinyConfig(6);
  config.resilience.isolation = cr::IsolationMode::Fork;
  config.resilience.maxRetries = 0;
  config.resilience.trialTimeoutMs = 55;
  const auto factory = [] { return std::make_unique<SleepyApp>(); };
  const auto result = cr::CampaignRunner(factory, config).run();
  EXPECT_TRUE(result.failures.empty())
      << "slow late-crash trials must fit the scaled deadline budget";
  EXPECT_EQ(result.tests.size(), 6u);
  EXPECT_EQ(counterValue("campaign.trial_timeouts") - before, 0u);
}

// ---- Journal ----------------------------------------------------------------

TEST(ResilienceTest, JournalRoundTripsTrialsAndFailures) {
  const std::string path = tempPath("journal_roundtrip.jsonl");
  std::remove(path.c_str());
  cr::JournalHeader header;
  header.app = "probe";
  header.seed = 7;
  header.tests = 3;
  header.mode = "nvm";
  header.planFingerprint = 0xFEEDFACECAFEBEEFull;  // exceeds 2^53: must survive
  header.windowAccesses = 123456;

  cr::CrashTestRecord record;
  record.crashAccessIndex = 42;
  record.region = 1;
  record.regionPath = {0, 1};
  record.crashIteration = 3;
  record.restartIteration = 4;
  record.response = cr::Response::S2;
  record.extraIterations = 2;
  record.inconsistentRate[1] = 0.12345678901234567;
  record.note = "quoted \"note\"";

  cr::TrialFailure failure;
  failure.trial = 1;
  failure.crashAccessIndex = 99;
  failure.timeout = true;
  failure.attempts = 2;
  failure.reason = "watchdog deadline (150 ms)";
  failure.regionPath = "R1>R2";

  {
    cr::TrialJournal journal(path, header, 1);
    journal.recordTrial(0, record);
    journal.recordFailure(failure);
    journal.close();
  }

  const auto replay = cr::readJournal(path);
  EXPECT_EQ(replay.header.app, "probe");
  EXPECT_EQ(replay.header.seed, 7u);
  EXPECT_EQ(replay.header.tests, 3);
  EXPECT_EQ(replay.header.mode, "nvm");
  EXPECT_EQ(replay.header.planFingerprint, 0xFEEDFACECAFEBEEFull);
  EXPECT_EQ(replay.header.windowAccesses, 123456u);
  ASSERT_EQ(replay.trials.size(), 1u);
  const auto& r = replay.trials.at(0);
  EXPECT_EQ(r.crashAccessIndex, 42u);
  EXPECT_EQ(r.region, 1);
  EXPECT_EQ(r.regionPath, (std::vector<rt::PointId>{0, 1}));
  EXPECT_EQ(r.response, cr::Response::S2);
  EXPECT_EQ(r.extraIterations, 2);
  EXPECT_EQ(r.inconsistentRate.at(1), 0.12345678901234567);  // exact round trip
  EXPECT_EQ(r.note, "quoted \"note\"");
  ASSERT_EQ(replay.failures.size(), 1u);
  const auto& f = replay.failures.at(1);
  EXPECT_TRUE(f.timeout);
  EXPECT_EQ(f.attempts, 2);
  EXPECT_EQ(f.reason, "watchdog deadline (150 ms)");
  EXPECT_EQ(f.regionPath, "R1>R2");
  std::remove(path.c_str());
}

namespace {

std::vector<std::string> fileLines(const std::string& path) {
  std::ifstream is(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

}  // namespace

TEST(ResilienceTest, JournalPersistsOutOfOrderDecisionsAsSegments) {
  // The sweep evaluator decides trials in crash-index order, so decided
  // test indices are scattered: every one of them must still be durable.
  // With flushEvery=1, the first decision lands in the compacted base
  // segment and the rest are appended in decision order — O(batch) per
  // flush instead of rewriting the whole file. close() then compacts.
  const std::string path = tempPath("journal_prefix.jsonl");
  std::remove(path.c_str());
  cr::JournalHeader header;
  header.app = "probe";
  header.tests = 10;
  header.mode = "nvm";
  {
    cr::TrialJournal journal(path, header, 1);
    cr::CrashTestRecord record;
    journal.recordTrial(5, record);  // gap: trials 0..4 still undecided
    journal.recordTrial(0, record);
    journal.recordTrial(8, record);

    // Mid-flight: the header declares the segment discipline and the file
    // shows the base segment (trial 5) followed by decision-order appends.
    const auto lines = fileLines(path);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_NE(lines[0].find("\"format\":\"segments\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"trial\":5"), std::string::npos);
    EXPECT_NE(lines[2].find("\"trial\":0"), std::string::npos);
    EXPECT_NE(lines[3].find("\"trial\":8"), std::string::npos);
    // And a reader at this instant (a crashed campaign's resume) compacts.
    const auto midFlight = cr::readJournal(path);
    EXPECT_EQ(midFlight.trials.size(), 3u) << "every decided trial is durable";

    journal.close();
  }
  // After close the journal is canonical: test-index sorted, so campaigns
  // that decide the same trials in any order leave byte-identical files.
  const auto lines = fileLines(path);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[1].find("\"trial\":0"), std::string::npos);
  EXPECT_NE(lines[2].find("\"trial\":5"), std::string::npos);
  EXPECT_NE(lines[3].find("\"trial\":8"), std::string::npos);
  const auto replay = cr::readJournal(path);
  EXPECT_EQ(replay.trials.size(), 3u);
  EXPECT_TRUE(replay.trials.count(0));
  EXPECT_TRUE(replay.trials.count(5));
  EXPECT_TRUE(replay.trials.count(8));
  std::remove(path.c_str());
}

TEST(ResilienceTest, JournalBatchesAppendsByFlushCadence) {
  // flushEvery=3: the base segment holds the first three decisions sorted
  // by test index; the fourth is only in memory until close() flushes and
  // compacts.
  const std::string path = tempPath("journal_batched.jsonl");
  std::remove(path.c_str());
  cr::JournalHeader header;
  header.app = "probe";
  header.tests = 10;
  header.mode = "nvm";
  {
    cr::TrialJournal journal(path, header, 3);
    cr::CrashTestRecord record;
    journal.recordTrial(7, record);
    journal.recordTrial(2, record);
    journal.recordTrial(4, record);  // third decision: base segment flushes
    const auto base = fileLines(path);
    ASSERT_EQ(base.size(), 4u);
    EXPECT_NE(base[1].find("\"trial\":2"), std::string::npos);
    EXPECT_NE(base[2].find("\"trial\":4"), std::string::npos);
    EXPECT_NE(base[3].find("\"trial\":7"), std::string::npos);
    journal.recordTrial(1, record);  // pending until the close-time flush
    EXPECT_EQ(fileLines(path).size(), 4u);
    journal.close();
  }
  const auto lines = fileLines(path);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines[1].find("\"trial\":1"), std::string::npos) << "compacted on close";
  const auto replay = cr::readJournal(path);
  EXPECT_EQ(replay.trials.size(), 4u);
  std::remove(path.c_str());
}

TEST(ResilienceTest, ReadJournalCompactsDuplicateIndicesLastWins) {
  // Appended segments may re-decide an index (e.g. across resume cycles
  // writing into the same path): the reader keeps the last record.
  const std::string path = tempPath("journal_dupes.jsonl");
  {
    std::ofstream os(path);
    os << R"({"type":"campaign_header","app":"probe","seed":1,"tests":5,)"
       << R"("mode":"nvm","plan_fingerprint":"1","window_accesses":10,)"
       << R"("format":"segments"})" << '\n';
    os << R"({"type":"trial","trial":0,"crash_access":3,"region":-1,)"
       << R"("region_path":[],"crash_iteration":1,"restart_iteration":1,)"
       << R"("response":"S4","extra_iterations":0,"rates":{},"note":"old"})" << '\n';
    os << R"({"type":"trial","trial":0,"crash_access":3,"region":-1,)"
       << R"("region_path":[],"crash_iteration":1,"restart_iteration":1,)"
       << R"("response":"S1","extra_iterations":0,"rates":{},"note":"new"})" << '\n';
  }
  const auto replay = cr::readJournal(path);
  ASSERT_EQ(replay.trials.size(), 1u);
  EXPECT_EQ(replay.trials.at(0).response, cr::Response::S1);
  EXPECT_EQ(replay.trials.at(0).note, "new");
  std::remove(path.c_str());
}

TEST(ResilienceTest, ResumeRejectsMismatchedJournal) {
  StopFlagGuard guard;
  const std::string journal = tempPath("resume_mismatch.jsonl");
  std::remove(journal.c_str());
  auto config = tinyConfig(10);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  config.resilience.journalPath = journal;
  (void)cr::CampaignRunner(faultyFactory({}), config).run();

  auto other = config;
  other.resilience.journalPath.clear();
  other.resilience.resumePath = journal;
  other.seed = config.seed + 1;  // different campaign: different crash draw
  EXPECT_THROW(cr::CampaignRunner(faultyFactory({}), other).run(),
               std::exception);
  std::remove(journal.c_str());
}

TEST(ResilienceTest, ResumeRefusesAShardJournal) {
  // Campaigns no longer shard, so a shard journal (a header with "shards")
  // names no campaign this build can finish: --resume refuses it, saying
  // why, before the golden run.
  StopFlagGuard guard;
  const std::string journal = tempPath("resume_shard.jsonl");
  std::remove(journal.c_str());
  auto config = tinyConfig(10);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  config.resilience.journalPath = journal;
  const auto campaign = cr::CampaignRunner(faultyFactory({}), config).run();
  const auto shards = easycrash::fixtures::splitIntoShardJournals(journal, campaign.golden, 2);

  auto resume = config;
  resume.resilience.journalPath.clear();
  resume.resilience.resumePath = shards[0];
  try {
    (void)cr::CampaignRunner(faultyFactory({}), resume).run();
    ADD_FAILURE() << "a shard journal was resumed";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0/2"), std::string::npos) << what;
    EXPECT_NE(what.find("sharding was removed"), std::string::npos) << what;
  }
  for (const auto& path : shards) std::remove(path.c_str());
  std::remove(journal.c_str());
}

TEST(ResilienceTest, ReadJournalToleratesSegmentTornByKilledWorker) {
  // A SIGKILLed campaign (or a worker death taking the process down) can
  // tear an APPENDED segment mid-record, after a healthy base segment. The
  // reader must keep everything before the torn tail — including earlier
  // appended records — and --resume into the same path must repair the
  // file by compaction.
  const std::string path = tempPath("journal_torn_segment.jsonl");
  std::remove(path.c_str());
  cr::JournalHeader header;
  header.app = "probe";
  header.tests = 10;
  header.mode = "nvm";
  {
    // Base segment (3 entries) + one appended segment (2 entries), torn by
    // truncating the file mid-way through the final record. No close():
    // close would compact and hide the tear.
    cr::TrialJournal journal(path, header, 1);
    cr::CrashTestRecord record;
    journal.recordTrial(4, record);
    journal.recordTrial(1, record);
    journal.recordTrial(7, record);
    journal.recordTrial(2, record);
    journal.recordTrial(9, record);
    journal.flush();
    // Leak the journal's buffered state deliberately: truncate on disk.
    std::ifstream is(path);
    std::stringstream buffer;
    buffer << is.rdbuf();
    const std::string full = buffer.str();
    const auto lastLine = full.rfind("{\"type\":\"trial\",\"trial\":9");
    ASSERT_NE(lastLine, std::string::npos);
    std::ofstream os(path, std::ios::trunc);
    os << full.substr(0, lastLine + 20);  // torn mid-record
    journal.close();  // rewrites; but we re-tear to simulate the kill
    std::ofstream os2(path, std::ios::trunc);
    os2 << full.substr(0, lastLine + 20);
  }
  const auto replay = cr::readJournal(path);
  EXPECT_EQ(replay.trials.size(), 4u) << "base + intact appended entries";
  EXPECT_TRUE(replay.trials.count(1));
  EXPECT_TRUE(replay.trials.count(4));
  EXPECT_TRUE(replay.trials.count(7));
  EXPECT_TRUE(replay.trials.count(2));
  EXPECT_FALSE(replay.trials.count(9)) << "torn record must not resurrect";

  // Resuming into the same path repairs it: the rewritten journal is fully
  // compacted and parses with no torn tail.
  {
    cr::TrialJournal repaired(path, header, 1);
    for (const auto& [index, record] : replay.trials) {
      repaired.recordTrial(index, record);
    }
    cr::CrashTestRecord fresh;
    repaired.recordTrial(9, fresh);
    repaired.close();
  }
  const auto again = cr::readJournal(path);
  EXPECT_EQ(again.trials.size(), 5u);
  const auto lines = fileLines(path);
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_NE(lines.back().find("\"trial\":9"), std::string::npos)
      << "compacted journal is test-index sorted with the repaired record";
  std::remove(path.c_str());
}

TEST(ResilienceTest, FailureKindRoundTripsThroughTheJournal) {
  const std::string path = tempPath("journal_kind.jsonl");
  std::remove(path.c_str());
  cr::JournalHeader header;
  header.app = "probe";
  header.tests = 8;
  header.mode = "nvm";
  {
    cr::TrialJournal journal(path, header, 1);
    cr::TrialFailure crashed;
    crashed.trial = 0;
    crashed.kind = "crashed";
    crashed.reason = "worker killed by signal 11";
    crashed.attempts = 1;
    journal.recordFailure(crashed);
    cr::TrialFailure timeout;
    timeout.trial = 1;
    timeout.kind = "timeout";
    timeout.timeout = true;
    timeout.reason = "watchdog";
    timeout.attempts = 2;
    journal.recordFailure(timeout);
    journal.close();
  }
  const auto replay = cr::readJournal(path);
  ASSERT_EQ(replay.failures.size(), 2u);
  EXPECT_EQ(replay.failures.at(0).kind, "crashed");
  EXPECT_FALSE(replay.failures.at(0).timeout);
  EXPECT_EQ(replay.failures.at(1).kind, "timeout");
  EXPECT_TRUE(replay.failures.at(1).timeout);
  std::remove(path.c_str());
}

TEST(ResilienceTest, LegacyFailureRecordsDefaultTheirKind) {
  // Journals written before the fork evaluator carry no "kind": the reader
  // derives it from the timeout flag so downstream consumers always see one.
  const std::string path = tempPath("journal_legacy_kind.jsonl");
  {
    std::ofstream os(path);
    os << R"({"type":"campaign_header","app":"probe","seed":1,"tests":5,)"
       << R"("mode":"nvm","plan_fingerprint":"1","window_accesses":10})" << '\n';
    os << R"({"type":"trial_failure","trial":0,"crash_access":3,"timeout":false,)"
       << R"("attempts":1,"reason":"boom","region_path":""})" << '\n';
    os << R"({"type":"trial_failure","trial":1,"crash_access":4,"timeout":true,)"
       << R"("attempts":1,"reason":"slow","region_path":""})" << '\n';
  }
  const auto replay = cr::readJournal(path);
  ASSERT_EQ(replay.failures.size(), 2u);
  EXPECT_EQ(replay.failures.at(0).kind, "exception");
  EXPECT_EQ(replay.failures.at(1).kind, "timeout");
  std::remove(path.c_str());
}

TEST(ResilienceTest, ReadJournalRejectsSampledMonitorHeader) {
  // Only the retired sampled monitoring mode stamped "monitor"; its trials
  // ran another access path, so the reader must refuse the journal rather
  // than ignore the key as it does other unknown header fields.
  const std::string path = tempPath("journal_sampled.jsonl");
  {
    std::ofstream os(path);
    os << R"({"type":"campaign_header","app":"probe","seed":1,"tests":5,)"
       << R"("mode":"nvm","plan_fingerprint":"1","window_accesses":10,)"
       << R"("monitor":"sampled"})" << '\n';
    os << R"({"type":"trial","trial":0,"crash_access":3,"region":-1,)"
       << R"("region_path":[],"crash_iteration":1,"restart_iteration":1,)"
       << R"("response":"S1","extra_iterations":0,"rates":{},"note":""})" << '\n';
  }
  try {
    (void)cr::readJournal(path);
    ADD_FAILURE() << "a sampled-mode journal was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"monitor\":\"sampled\""), std::string::npos) << what;
    EXPECT_NE(what.find("retired sampled monitoring mode"), std::string::npos)
        << what;
  }
  std::remove(path.c_str());
}

TEST(ResilienceTest, ReadJournalToleratesTornFinalLine) {
  const std::string path = tempPath("journal_torn.jsonl");
  {
    std::ofstream os(path);
    os << R"({"type":"campaign_header","app":"probe","seed":1,"tests":5,)"
       << R"("mode":"nvm","plan_fingerprint":"1","window_accesses":10})" << '\n';
    os << R"({"type":"trial","trial":0,"crash_access":3,"region":-1,)"
       << R"("region_path":[],"crash_iteration":1,"restart_iteration":1,)"
       << R"("response":"S1","extra_iterations":0,"rates":{},"note":""})" << '\n';
    os << R"({"type":"trial","trial":1,"crash_ac)";  // torn mid-record
  }
  const auto replay = cr::readJournal(path);
  EXPECT_EQ(replay.trials.size(), 1u);
  std::remove(path.c_str());
}

// ---- Graceful interruption --------------------------------------------------

TEST(ResilienceTest, StopFlagInterruptsTheCampaignCleanly) {
  StopFlagGuard guard;
  auto config = tinyConfig(30);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  config.resilience.stopAfterTrials = 5;
  const auto result = cr::CampaignRunner(faultyFactory({}), config).run();
  EXPECT_TRUE(result.interrupted);
  EXPECT_TRUE(cr::stopRequested());
  EXPECT_GE(result.tests.size(), 5u);
  EXPECT_LT(result.tests.size(), 30u);
  EXPECT_EQ(result.plannedTests, 30);
  // The partial summary announces the interruption.
  std::ostringstream os;
  cr::writeCampaignSummary(result, os);
  EXPECT_NE(os.str().find("INTERRUPTED"), std::string::npos);
}

// ---- Atomic file replacement ------------------------------------------------

TEST(ResilienceTest, AtomicWriteFileReplacesContent) {
  const std::string path = tempPath("atomic_write.txt");
  cr::atomicWriteFile(path, "first\n");
  cr::atomicWriteFile(path, "second\n");
  std::ifstream is(path);
  std::stringstream buffer;
  buffer << is.rdbuf();
  EXPECT_EQ(buffer.str(), "second\n");
  // No temp file is left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(ResilienceTest, AtomicWriteFileThrowsOnUnwritablePath) {
  EXPECT_THROW(cr::atomicWriteFile("/nonexistent-dir/x/y.txt", "data"),
               std::runtime_error);
}
