// Tests for the single-sweep campaign evaluator (docs/INTERNALS.md): the
// runtime's multi-arm capture API, capture non-perturbation, and the
// campaign-level guarantee that the sweep reproduces the per-trial reference
// model (reference_campaign.hpp) byte for byte — across thread counts and
// isolation modes, duplicate crash indices, real apps, and sweeps that die
// and restart at their first uncaptured point.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/apps/registry.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/runtime/tracked.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "reference_campaign.hpp"

namespace rt = easycrash::runtime;
namespace cr = easycrash::crash;
namespace ms = easycrash::memsim;
namespace tl = easycrash::telemetry;

namespace {

/// Accumulator app mirroring campaign_test's ProbeApp, with a knob that
/// throws a harness-level exception (not an AppInterrupt) at a fixed
/// iteration — the "throw before the armed crash fires" failure path.
class SweepApp final : public rt::IApp {
 public:
  struct Knobs {
    int iterations = 6;
    int cells = 256;
    /// 0 = never; otherwise crashing runs die on reaching this iteration.
    /// Restarts are exempt (they run in direct mode), and sweepFactory
    /// exempts the first construction so the golden run completes.
    int throwAtIteration = 0;
    /// 0 = never; otherwise restarts (direct mode) throw on reaching this
    /// iteration, so every restart that resumes at or before it fails.
    /// The golden run is direct too; sweepFactory exempts it.
    int restartThrowsAt = 0;
  };

  explicit SweepApp(Knobs knobs) : knobs_(knobs) {}

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
    {
      rt::RegionScope region(runtime, 0);
      if (knobs_.throwAtIteration > 0 && !runtime.direct() &&
          iteration >= knobs_.throwAtIteration) {
        throw std::runtime_error("sweep-app: induced failure");
      }
      if (knobs_.restartThrowsAt > 0 && runtime.direct() &&
          iteration == knobs_.restartThrowsAt) {
        throw std::runtime_error("sweep-app: induced restart failure");
      }
      for (int i = 0; i < knobs_.cells; ++i) data_.set(i, data_.get(i) + 1);
      region.iterationEnd();
    }
    {
      rt::RegionScope region(runtime, 1);
      std::int64_t total = 0;
      for (int i = 0; i < knobs_.cells; ++i) total += data_.get(i);
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

  /// sweepFactory exempts the golden instance from both failure knobs, so
  /// instances differ in behaviour, not only in tracked state: a golden
  /// pair must never stand in for a restart that throws.
  void hostState(rt::HostState& state) const override {
    state.add(knobs_.throwAtIteration).add(knobs_.restartThrowsAt);
  }

 private:
  Knobs knobs_;
  rt::AppInfo info_{"sweep-app", "sweep evaluator test app"};
  rt::TrackedArray<std::int64_t> data_;
  rt::TrackedScalar<std::int64_t> sum_;
};

rt::AppFactory sweepFactory(SweepApp::Knobs knobs) {
  // The campaign's golden run is always the factory's first construction;
  // it must complete for the campaign to start, so it never throws.
  auto constructions = std::make_shared<std::atomic<int>>(0);
  return [knobs, constructions] {
    auto effective = knobs;
    if (constructions->fetch_add(1) == 0) {
      effective.throwAtIteration = 0;
      effective.restartThrowsAt = 0;
    }
    return std::make_unique<SweepApp>(effective);
  };
}

cr::CampaignConfig tinyConfig(int tests) {
  cr::CampaignConfig config;
  config.numTests = tests;
  config.cache = ms::CacheConfig::tiny();
  return config;
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

std::string campaignCsv(const cr::CampaignResult& campaign) {
  std::ostringstream os;
  cr::writeCampaignCsv(campaign, os);
  return os.str();
}

std::uint64_t counterValue(const char* name) {
  return tl::MetricsRegistry::instance().counter(name).value();
}

std::string readFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << "cannot open " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

const char* isolationName(cr::IsolationMode isolation) {
  return isolation == cr::IsolationMode::Fork ? "fork" : "none";
}

void expectSameFailures(const cr::CampaignResult& a, const cr::CampaignResult& b) {
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    const auto& x = a.failures[i];
    const auto& y = b.failures[i];
    EXPECT_EQ(x.trial, y.trial) << "failure " << i;
    EXPECT_EQ(x.crashAccessIndex, y.crashAccessIndex) << "failure " << i;
    EXPECT_EQ(x.kind, y.kind) << "failure " << i;
    EXPECT_EQ(x.timeout, y.timeout) << "failure " << i;
    EXPECT_EQ(x.attempts, y.attempts) << "failure " << i;
    EXPECT_EQ(x.reason, y.reason) << "failure " << i;
    EXPECT_EQ(x.regionPath, y.regionPath) << "failure " << i;
  }
}

/// Independent count of the restarts restart grouping should execute: one
/// capture sweep over the campaign's distinct crash indices through the
/// runtime's own capture API, counting captures whose restart input
/// (bookmarked NVM iteration plus every candidate's NVM bytes) differs from
/// the previous capture's.
std::size_t adjacentDistinctInputs(const rt::AppFactory& factory,
                                   const cr::CampaignConfig& config,
                                   const cr::CampaignResult& campaign) {
  std::set<std::uint64_t> distinct;
  for (const auto& record : campaign.tests) distinct.insert(record.crashAccessIndex);
  for (const auto& failure : campaign.failures) distinct.insert(failure.crashAccessIndex);

  rt::Runtime runtime(config.cache);
  auto app = factory();
  app->setup(runtime);
  app->initialize(runtime);
  std::size_t count = 0;
  int lastIteration = -1;
  std::vector<std::vector<std::uint8_t>> last;
  runtime.armCaptures({distinct.begin(), distinct.end()}, [&](const rt::CrashEvent&) {
    std::vector<std::vector<std::uint8_t>> image;
    for (const auto& object : runtime.objects()) {
      if (object.candidate) image.push_back(runtime.dumpObjectNvm(object.id));
    }
    const int iteration = runtime.bookmarkedIterationNvm();
    if (count == 0 || iteration != lastIteration || image != last) ++count;
    lastIteration = iteration;
    last = std::move(image);
  });
  (void)rt::Driver::run(*app, runtime, 1, campaign.golden.finalIteration);
  return count;
}

/// Observation counts of the campaign's three phase histograms.
/// What a campaign added to the registry: the increase of every counter and
/// of every histogram's observation count (keyed "<name>.count"), zero
/// increases dropped.
std::map<std::string, std::uint64_t> registryDelta(const tl::MetricsSnapshot& before,
                                                   const tl::MetricsSnapshot& after) {
  std::map<std::string, std::uint64_t> delta;
  const auto add = [&delta](const std::string& name, std::uint64_t from,
                            std::uint64_t to) {
    if (to != from) delta[name] = to - from;
  };
  const auto count = [](const tl::MetricsSnapshot::HistogramData& h) {
    std::uint64_t n = 0;
    for (const std::uint64_t b : h.buckets) n += b;
    return n;
  };
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    add(name, it == before.counters.end() ? 0 : it->second, value);
  }
  for (const auto& [name, h] : after.histograms) {
    const auto it = before.histograms.find(name);
    add(name + ".count", it == before.histograms.end() ? 0 : count(it->second), count(h));
  }
  return delta;
}

/// Holds the convergence memo's test seams for one scope.
class ScopedMemoSeams {
 public:
  explicit ScopedMemoSeams(const cr::MemoSeams& seams) : saved_(cr::memoSeams()) {
    cr::setMemoSeams(seams);
  }
  ~ScopedMemoSeams() { cr::setMemoSeams(saved_); }
  ScopedMemoSeams(const ScopedMemoSeams&) = delete;
  ScopedMemoSeams& operator=(const ScopedMemoSeams&) = delete;

 private:
  cr::MemoSeams saved_;
};

}  // namespace

// ---- Runtime capture API ----------------------------------------------------

TEST(CaptureApiTest, CaptureContextMatchesTheCrashEventAtTheSameIndex) {
  constexpr std::uint64_t kIndex = 700;

  // Reference: a real crash armed at the index.
  rt::CrashEvent reference;
  {
    rt::Runtime runtime(ms::CacheConfig::tiny());
    SweepApp app({});
    app.setup(runtime);
    app.initialize(runtime);
    runtime.armCrash(kIndex);
    try {
      (void)rt::Driver::run(app, runtime, 1, app.nominalIterations());
      FAIL() << "armed crash did not fire";
    } catch (const rt::CrashEvent& crash) {
      reference = crash;
    }
  }

  // A capture at the same index on an identical run, which then completes.
  std::vector<rt::CrashEvent> captured;
  {
    rt::Runtime runtime(ms::CacheConfig::tiny());
    SweepApp app({});
    app.setup(runtime);
    app.initialize(runtime);
    runtime.armCaptures({kIndex},
                        [&](const rt::CrashEvent& at) { captured.push_back(at); });
    const auto run = rt::Driver::run(app, runtime, 1, app.nominalIterations());
    EXPECT_TRUE(run.verification.pass);
  }

  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].accessIndex, reference.accessIndex);
  EXPECT_EQ(captured[0].activeRegion, reference.activeRegion);
  EXPECT_EQ(captured[0].iteration, reference.iteration);
  EXPECT_EQ(captured[0].regionPath, reference.regionPath);
}

TEST(CaptureApiTest, CapturesFireInOrderAndDoNotReplayAfterAThrowingHook) {
  rt::Runtime runtime(ms::CacheConfig::tiny());
  rt::TrackedArray<std::int64_t> data(runtime, "data", 64, true);
  runtime.setCrashWindow(true);

  struct StopEarly {};
  std::vector<std::uint64_t> fired;
  runtime.armCaptures({10, 20, 30}, [&](const rt::CrashEvent& at) {
    fired.push_back(at.accessIndex);
    if (fired.size() == 2) throw StopEarly{};
  });

  const auto tick = [&] { data.set(0, data.peek(0) + 1); };
  for (int i = 0; i < 15; ++i) tick();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_THROW(
      {
        for (int i = 0; i < 10; ++i) tick();
      },
      StopEarly);
  // The cursor advances before the hook runs: continuing the run must fire
  // the remaining capture, not replay the one whose hook threw.
  for (int i = 0; i < 15; ++i) tick();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], 10u);
  EXPECT_EQ(fired[1], 20u);
  EXPECT_EQ(fired[2], 30u);
}

TEST(CaptureApiTest, ArmCapturesValidatesItsIndices) {
  rt::Runtime runtime(ms::CacheConfig::tiny());
  const auto hook = [](const rt::CrashEvent&) {};
  EXPECT_THROW(runtime.armCaptures({}, hook), std::logic_error);
  EXPECT_THROW(runtime.armCaptures({0}, hook), std::logic_error);
  EXPECT_THROW(runtime.armCaptures({5, 4}, hook), std::logic_error);
  EXPECT_THROW(runtime.armCaptures({5, 5}, hook), std::logic_error);
  EXPECT_THROW(runtime.armCaptures({1, 2, 3}, nullptr), std::logic_error);
}

TEST(CaptureApiTest, ArmedCapturesDoNotPerturbTheRun) {
  const auto execute = [](bool withCaptures, ms::MemEvents* events,
                          std::uint64_t* windowAccesses, double* metric,
                          std::uint64_t* nvmWrites) {
    rt::Runtime runtime(ms::CacheConfig::tiny());
    SweepApp app({});
    app.setup(runtime);
    app.initialize(runtime);
    if (withCaptures) {
      // A hook that leans on every read-only inspection path the campaign's
      // sweep uses: none of them may touch the caches or the clock.
      runtime.armCaptures({50, 500, 2000}, [&](const rt::CrashEvent&) {
        for (const auto& object : runtime.objects()) {
          (void)runtime.dumpObjectNvm(object.id);
          (void)runtime.dumpObjectCurrent(object.id);
          (void)runtime.inconsistentRate(object.id);
        }
        (void)runtime.bookmarkedIterationNvm();
        (void)runtime.regionPath();
      });
    }
    const auto run = rt::Driver::run(app, runtime, 1, app.nominalIterations());
    *events = runtime.events();
    *windowAccesses = runtime.windowAccesses();
    *metric = run.verification.metric;
    *nvmWrites = runtime.nvm().blockWrites();
  };

  ms::MemEvents bare;
  ms::MemEvents observed;
  std::uint64_t bareAccesses = 0;
  std::uint64_t observedAccesses = 0;
  double bareMetric = 0;
  double observedMetric = 0;
  std::uint64_t bareNvmWrites = 0;
  std::uint64_t observedNvmWrites = 0;
  execute(false, &bare, &bareAccesses, &bareMetric, &bareNvmWrites);
  execute(true, &observed, &observedAccesses, &observedMetric, &observedNvmWrites);

  EXPECT_EQ(observedAccesses, bareAccesses);
  EXPECT_EQ(observedMetric, bareMetric);
  EXPECT_EQ(observedNvmWrites, bareNvmWrites);
  EXPECT_EQ(observed.loads, bare.loads);
  EXPECT_EQ(observed.stores, bare.stores);
  EXPECT_EQ(observed.hits, bare.hits);
  EXPECT_EQ(observed.misses, bare.misses);
  EXPECT_EQ(observed.nvmBlockReads, bare.nvmBlockReads);
  EXPECT_EQ(observed.nvmBlockWrites, bare.nvmBlockWrites);
  EXPECT_EQ(observed.totalFlushes(), bare.totalFlushes());
}

// ---- Campaign-level equivalence ---------------------------------------------

TEST(SweepTest, SweepMatchesThePerTrialReferenceAcrossThreadCounts) {
  auto config = tinyConfig(40);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  const auto reference = easycrash::reference::referenceCampaign(sweepFactory({}), config);
  EXPECT_TRUE(reference.failures.empty());

  for (const int threads : {1, 4}) {
    config.threads = threads;
    const auto sweep = cr::CampaignRunner(sweepFactory({}), config).run();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expectSameRecords(reference, sweep);
    EXPECT_EQ(campaignCsv(reference), campaignCsv(sweep));
  }
}

TEST(SweepTest, DuplicateCrashIndicesShareOneCaptureAndStayIdentical) {
  // A window of a few dozen accesses with 200 draws guarantees duplicate
  // crash indices (pigeonhole), exercising the shared-capture path.
  SweepApp::Knobs knobs;
  knobs.cells = 4;
  knobs.iterations = 3;
  auto config = tinyConfig(200);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  const auto reference = easycrash::reference::referenceCampaign(sweepFactory(knobs), config);

  const auto runsBefore = counterValue("campaign.sweep_runs");
  const auto capturesBefore = counterValue("campaign.sweep_captures");
  const auto sweep = cr::CampaignRunner(sweepFactory(knobs), config).run();
  expectSameRecords(reference, sweep);
  EXPECT_EQ(campaignCsv(reference), campaignCsv(sweep));

  std::set<std::uint64_t> distinct;
  for (const auto& record : sweep.tests) distinct.insert(record.crashAccessIndex);
  ASSERT_EQ(sweep.tests.size(), 200u);
  EXPECT_LT(distinct.size(), 200u) << "window too large to force duplicates";
  // One crashing run, one capture per DISTINCT index — duplicates share.
  EXPECT_EQ(counterValue("campaign.sweep_runs") - runsBefore, 1u);
  EXPECT_EQ(counterValue("campaign.sweep_captures") - capturesBefore,
            distinct.size());
}

TEST(SweepTest, DeadSweepRestartsAtTheFirstUncapturedPoint) {
  // Crashing runs die at iteration 3, so a sweep captures only the crash
  // points inside the first two iterations. Each death charges one attempt
  // to the head — the first uncaptured point — and a fresh sweep restarts
  // there; once the head's attempts are spent, its trials fail and the next
  // sweep starts one point later. Every record, every failure (kind,
  // attempts, reason, crash site) and the retry/failure counters must equal
  // the per-trial reference's, under either isolation mode.
  SweepApp::Knobs knobs;
  knobs.throwAtIteration = 3;
  for (const int retries : {0, 1}) {
    auto config = tinyConfig(30);
    config.resilience.isolation = cr::IsolationMode::InProcess;
    config.resilience.maxRetries = retries;
    const auto reference =
        easycrash::reference::referenceCampaign(sweepFactory(knobs), config);
    ASSERT_GT(reference.failures.size(), 0u) << "expected late crash points to fail";
    ASSERT_GT(reference.tests.size(), 0u) << "expected early crash points to complete";
    std::set<std::uint64_t> failedPoints;
    for (const auto& failure : reference.failures) {
      failedPoints.insert(failure.crashAccessIndex);
    }
    // The last crash point lies past the throw, so no sweep ever completes:
    // every sweep run ends in exactly one charged death.
    const std::uint64_t chargedDeaths =
        failedPoints.size() * static_cast<std::uint64_t>(1 + retries);

    for (const auto isolation : {cr::IsolationMode::InProcess, cr::IsolationMode::Fork}) {
      config.resilience.isolation = isolation;
      const auto retriesBefore = counterValue("campaign.trial_retries");
      const auto failuresBefore = counterValue("campaign.trial_failures");
      const auto runsBefore = counterValue("campaign.sweep_runs");
      const auto fallbacksBefore = counterValue("campaign.sweep_fallbacks");
      const auto sweep = cr::CampaignRunner(sweepFactory(knobs), config).run();
      SCOPED_TRACE(std::string(isolationName(isolation)) +
                   " retries=" + std::to_string(retries));
      expectSameRecords(reference, sweep);
      expectSameFailures(reference, sweep);
      EXPECT_EQ(counterValue("campaign.trial_retries") - retriesBefore,
                reference.failures.size() * static_cast<std::uint64_t>(retries));
      EXPECT_EQ(counterValue("campaign.trial_failures") - failuresBefore,
                reference.failures.size());
      EXPECT_EQ(counterValue("campaign.sweep_runs") - runsBefore, chargedDeaths);
      EXPECT_GT(counterValue("campaign.sweep_fallbacks") - fallbacksBefore, 0u);
    }
  }
}

TEST(SweepTest, ThrowBeforeArmedCrashStillNamesTheCrashSite) {
  // Regression: a trial whose crashing run threw before its crash point
  // reported regionPath "main" instead of the region stack the run actually
  // stood in when it died.
  SweepApp::Knobs knobs;
  knobs.throwAtIteration = 2;
  auto config = tinyConfig(20);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  config.resilience.maxRetries = 0;
  for (const auto isolation : {cr::IsolationMode::InProcess, cr::IsolationMode::Fork}) {
    config.resilience.isolation = isolation;
    const auto result = cr::CampaignRunner(sweepFactory(knobs), config).run();
    SCOPED_TRACE(isolationName(isolation));
    ASSERT_GT(result.failures.size(), 0u);
    for (const auto& failure : result.failures) {
      // The induced throw happens inside region 0 ("R1").
      EXPECT_EQ(failure.regionPath, "R1") << "trial " << failure.trial;
    }
  }
}

namespace {

/// The sweep against the reference on a real app, on every thread/isolation
/// axis: records, CSV bytes, and completed-journal bytes (the reference
/// journal written through TrialJournal). The reference restarts every
/// trial to its end, so this is also the convergence memo's byte oracle;
/// one more in-process run checks as often as the memo may and compares
/// the full state bytes on every hit (MemoSeams::compareBytes). sp shares
/// few restart inputs; ft shares most, so its grouping carries the
/// comparison. lulesh leans hardest on the bulk range path (overlapping
/// stencil reads, a mid-range AppInterrupt), and kmeans mixes int32
/// membership writes with double point reads between bulk chunks — against
/// the reference's scalar paths.
void expectAppMatchesTheReference(const std::string& app, int tests) {
  const auto& entry = easycrash::apps::findBenchmark(app);
  cr::CampaignConfig config;
  config.numTests = tests;
  config.appLabel = entry.name;
  config.resilience.isolation = cr::IsolationMode::InProcess;
  const auto reference = easycrash::reference::referenceCampaign(entry.factory, config);
  ASSERT_TRUE(reference.failures.empty());
  const std::string referencePath = testing::TempDir() + app + "_reference.jsonl";
  easycrash::reference::writeReferenceJournal(reference, config, referencePath);
  const std::string referenceJournal = readFile(referencePath);
  std::remove(referencePath.c_str());

  const auto expectMatch = [&](cr::IsolationMode isolation, int threads,
                                const std::string& axis) {
    const std::string path = testing::TempDir() + app + "_sweep.jsonl";
    std::remove(path.c_str());
    config.resilience.isolation = isolation;
    config.resilience.journalPath = path;
    config.threads = threads;
    const auto sweep = cr::CampaignRunner(entry.factory, config).run();
    SCOPED_TRACE(app + " " + axis);
    expectSameRecords(reference, sweep);
    EXPECT_TRUE(sweep.failures.empty());
    EXPECT_EQ(campaignCsv(reference), campaignCsv(sweep));
    EXPECT_EQ(readFile(path), referenceJournal);
    std::remove(path.c_str());
  };
  for (const auto isolation : {cr::IsolationMode::InProcess, cr::IsolationMode::Fork}) {
    for (const int threads : {1, 4}) {
      expectMatch(isolation, threads,
                  std::string(isolationName(isolation)) + " threads=" + std::to_string(threads));
    }
  }
  // A digest collision would throw here and surface as a failure.
  const ScopedMemoSeams compareBytes({.trialMatches = true, .compareBytes = true});
  const auto checks = counterValue("campaign.memo_checks");
  expectMatch(cr::IsolationMode::InProcess, 4, "compareBytes");
  EXPECT_GT(counterValue("campaign.memo_checks"), checks)
      << app << ": the memo never checked";
}

}  // namespace

TEST(SweepReferenceTest, SpMatchesOnEveryAxis) { expectAppMatchesTheReference("sp", 16); }

TEST(SweepReferenceTest, FtMatchesOnEveryAxis) { expectAppMatchesTheReference("ft", 60); }

TEST(SweepReferenceTest, LuleshMatchesOnEveryAxis) { expectAppMatchesTheReference("lulesh", 16); }

TEST(SweepReferenceTest, KmeansMatchesOnEveryAxis) { expectAppMatchesTheReference("kmeans", 10); }

TEST(SweepReferenceTest, MgMatchesOnEveryAxis) { expectAppMatchesTheReference("mg", 16); }

TEST(SweepReferenceTest, CgMatchesOnEveryAxis) { expectAppMatchesTheReference("cg", 16); }

TEST(SweepReferenceTest, BtMatchesOnEveryAxis) { expectAppMatchesTheReference("bt", 16); }

TEST(SweepReferenceTest, BotssparMatchesOnEveryAxis) {
  expectAppMatchesTheReference("botsspar", 16);
}

TEST(SweepReferenceTest, LuMatchesOnEveryAxis) { expectAppMatchesTheReference("lu", 16); }

TEST(SweepReferenceTest, IsMatchesOnEveryAxis) { expectAppMatchesTheReference("is", 16); }

TEST(SweepReferenceTest, EpMatchesOnEveryAxis) { expectAppMatchesTheReference("ep", 6); }

// ---- Restart grouping -------------------------------------------------------

TEST(RestartGroupTest, GroupedRecordsMatchThePerTrialPathOnEveryAxis) {
  auto config = tinyConfig(60);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  const auto reference = easycrash::reference::referenceCampaign(sweepFactory({}), config);
  ASSERT_TRUE(reference.failures.empty());
  const std::size_t groups = adjacentDistinctInputs(sweepFactory({}), config, reference);
  ASSERT_LT(groups, reference.tests.size()) << "no two adjacent captures share an input";

  for (const auto isolation : {cr::IsolationMode::InProcess, cr::IsolationMode::Fork}) {
    for (const int threads : {1, 4}) {
      config.resilience.isolation = isolation;
      config.threads = threads;
      const auto followers = counterValue("campaign.restart_group_followers");
      const auto executed = counterValue("campaign.restarts_executed");
      const auto grouped = cr::CampaignRunner(sweepFactory({}), config).run();
      SCOPED_TRACE(std::string(isolationName(isolation)) +
                   " threads=" + std::to_string(threads));
      expectSameRecords(reference, grouped);
      EXPECT_EQ(campaignCsv(reference), campaignCsv(grouped));
      EXPECT_EQ(counterValue("campaign.restarts_executed") - executed, groups);
      EXPECT_EQ(counterValue("campaign.restart_group_followers") - followers,
                reference.tests.size() - groups);
    }
  }
}

TEST(RestartGroupTest, ALeadersFailureIsNeverShared) {
  // Restarts resuming at iteration 1..3 throw; later ones succeed. When a
  // group's leader fails, each follower must run — and fail — on its own,
  // with the reference's kind, reason, crash site and attempts.
  SweepApp::Knobs knobs;
  knobs.restartThrowsAt = 3;
  auto config = tinyConfig(60);
  config.resilience.isolation = cr::IsolationMode::InProcess;
  config.resilience.maxRetries = 1;
  const auto reference = easycrash::reference::referenceCampaign(sweepFactory(knobs), config);
  ASSERT_GT(reference.failures.size(), 0u) << "expected early restarts to fail";
  ASSERT_GT(reference.tests.size(), 0u) << "expected late restarts to succeed";
  const std::size_t groups = adjacentDistinctInputs(sweepFactory(knobs), config, reference);

  for (const auto isolation : {cr::IsolationMode::InProcess, cr::IsolationMode::Fork}) {
    config.resilience.isolation = isolation;
    const auto executedBefore = counterValue("campaign.restarts_executed");
    const auto retries = counterValue("campaign.trial_retries");
    const auto grouped = cr::CampaignRunner(sweepFactory(knobs), config).run();
    SCOPED_TRACE(isolationName(isolation));
    expectSameRecords(reference, grouped);
    expectSameFailures(reference, grouped);
    EXPECT_EQ(counterValue("campaign.trial_retries") - retries, reference.failures.size());
    // Every failed trial ran its own restart; only successes were shared.
    const auto executed = counterValue("campaign.restarts_executed") - executedBefore;
    EXPECT_GT(executed, groups) << "no failing group had a follower";
    EXPECT_GE(executed, reference.failures.size());
  }
}

TEST(RestartGroupTest, PhaseHistogramsAgreeAcrossIsolation) {
  // Fork workers record exactly as the parent does and ship their whole
  // registry delta back, so a default (fork) campaign reports every counter
  // and histogram count an in-process one does — bar the fork-only
  // campaign.worker_* — and restart_us counts exactly the restarts executed.
  // The persistence plan keeps the runtime.* instruments live. Trial memo
  // keys are on: which restart computes a shared key depends on lane
  // timing, but each key is computed once, so the totals do not.
  auto config = tinyConfig(24);
  config.threads = 2;
  config.plan = rt::PersistencePlan::atMainLoopEnd({1, 2});
  std::vector<std::map<std::string, std::uint64_t>> deltas;
  for (const auto isolation : {cr::IsolationMode::InProcess, cr::IsolationMode::Fork}) {
    config.resilience.isolation = isolation;
    const auto before = tl::MetricsRegistry::instance().snapshot();
    (void)cr::CampaignRunner(sweepFactory({}), config).run();
    auto delta = registryDelta(before, tl::MetricsRegistry::instance().snapshot());
    std::erase_if(delta, [](const auto& entry) {
      return entry.first.rfind("campaign.worker_", 0) == 0;
    });
    deltas.push_back(std::move(delta));
  }
  std::set<std::string> names;
  for (const auto& delta : deltas) {
    for (const auto& [name, value] : delta) names.insert(name);
  }
  for (const std::string& name : names) {
    const auto value = [&name](const std::map<std::string, std::uint64_t>& delta) {
      const auto it = delta.find(name);
      return it == delta.end() ? std::uint64_t{0} : it->second;
    };
    EXPECT_EQ(value(deltas[0]), value(deltas[1])) << name << " (in-process vs fork)";
  }
  const auto& inProcess = deltas[0];
  EXPECT_GT(inProcess.count("runtime.persistence_ops"), 0u);
  EXPECT_GT(inProcess.count("runtime.persist_us.count"), 0u);
  for (const auto& delta : deltas) {
    EXPECT_EQ(delta.at("campaign.golden_us.count"), 1u);  // in the parent
  }
  EXPECT_EQ(inProcess.at("campaign.crash_run_us.count"), 1u);  // one span: the sweep
  EXPECT_GT(inProcess.count("campaign.postmortem_us.count"), 0u);
  EXPECT_EQ(inProcess.at("campaign.restart_us.count"),
            inProcess.at("campaign.restarts_executed"));
}

TEST(RestartGroupTest, TrialMatchesAgreeAcrossIsolation) {
  // With trial memo keys on, which restart computes a shared key depends
  // on lane timing, but each key is computed once, so the records, the
  // restarts executed and every memo counter agree across isolation modes.
  const auto& entry = easycrash::apps::findBenchmark("mg");
  cr::CampaignConfig config;
  config.numTests = 100;
  config.threads = 2;
  config.appLabel = entry.name;
  std::vector<cr::CampaignResult> results;
  std::vector<std::map<std::string, std::uint64_t>> deltas;
  for (const auto isolation : {cr::IsolationMode::InProcess, cr::IsolationMode::Fork}) {
    config.resilience.isolation = isolation;
    const auto before = tl::MetricsRegistry::instance().snapshot();
    results.push_back(cr::CampaignRunner(entry.factory, config).run());
    deltas.push_back(registryDelta(before, tl::MetricsRegistry::instance().snapshot()));
  }
  expectSameRecords(results[0], results[1]);
  EXPECT_EQ(campaignCsv(results[0]), campaignCsv(results[1]));
  const auto value = [](const std::map<std::string, std::uint64_t>& delta,
                        const std::string& name) {
    const auto it = delta.find(name);
    return it == delta.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_GT(value(deltas[0], "campaign.memo_trial_hits") +
                value(deltas[1], "campaign.memo_trial_hits"),
            0u)
      << "no trial key was hit";
  for (const auto& delta : deltas) {
    EXPECT_EQ(value(delta, "campaign.restart_us.count"),
              value(delta, "campaign.restarts_executed"));
  }
  EXPECT_EQ(value(deltas[0], "campaign.restart_us.count"),
            value(deltas[1], "campaign.restart_us.count"));
  for (const char* name : {"campaign.memo_checks", "campaign.memo_golden_hits",
                           "campaign.memo_trial_hits", "campaign.memo_iterations_skipped",
                           "campaign.restart_iterations"}) {
    EXPECT_EQ(value(deltas[0], name), value(deltas[1], name)) << name;
  }
}
