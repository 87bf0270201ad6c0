// Tests for the Driver protocol and the crash-test campaign engine, using a
// purpose-built miniature application whose failure behaviour is fully
// controllable.
#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/runtime/tracked.hpp"

namespace rt = easycrash::runtime;
namespace cr = easycrash::crash;
namespace ms = easycrash::memsim;

namespace {

/// A controllable test app: accumulates a counter array; verification checks
/// the exact expected sum. Knobs select convergence/interrupt behaviour.
class ProbeApp final : public rt::IApp {
 public:
  struct Knobs {
    int iterations = 6;
    int cells = 256;
    bool interruptOnBadState = false;  // S3 path
    bool tolerant = false;             // loose verification (S1/S2-friendly)
    bool convergenceDriven = false;    // can use extra iterations
  };

  explicit ProbeApp(Knobs knobs) : knobs_(knobs) {}

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
    {  // R1: accumulate — lost increments are unrecoverable by re-execution.
      rt::RegionScope region(runtime, 0);
      for (int i = 0; i < knobs_.cells; ++i) {
        data_.set(i, data_.get(i) + 1);
      }
      region.iterationEnd();
    }
    {  // R2: reduce + uniformity invariant (the interrupt path).
      rt::RegionScope region(runtime, 1);
      std::int64_t total = 0;
      for (int i = 0; i < knobs_.cells; ++i) total += data_.get(i);
      if (knobs_.interruptOnBadState) {
        const std::int64_t first = data_.get(0);
        for (int s = 0; s < 16; ++s) {
          if (data_.get((s * 37) % knobs_.cells) != first) {
            throw rt::AppInterrupt{"probe: non-uniform state"};
          }
        }
      }
      sum_.set(total);
      region.iterationEnd();
    }
  }

  [[nodiscard]] int nominalIterations() const override { return knobs_.iterations; }

  [[nodiscard]] bool converged(rt::Runtime& runtime, int iteration) override {
    if (!knobs_.convergenceDriven) return iteration >= knobs_.iterations;
    (void)runtime;
    // Converged once the committed sum corresponds to >= nominal iterations.
    return sum_.peek() >=
           static_cast<std::int64_t>(knobs_.iterations) * knobs_.cells;
  }

  [[nodiscard]] rt::VerifyOutcome verify(rt::Runtime& runtime) override {
    (void)runtime;
    rt::VerifyOutcome out;
    std::int64_t total = 0;
    for (int i = 0; i < knobs_.cells; ++i) total += data_.peek(i);
    const auto expected =
        static_cast<std::int64_t>(knobs_.iterations) * knobs_.cells;
    out.metric = static_cast<double>(total);
    out.pass = knobs_.tolerant
                   ? total >= expected / 2 && total <= expected * 3 / 2
                   : total == expected;
    return out;
  }

 private:
  Knobs knobs_;
  rt::AppInfo info_{"probe", "controllable test app"};
  rt::TrackedArray<std::int64_t> data_;
  rt::TrackedScalar<std::int64_t> sum_;
};

rt::AppFactory probeFactory(ProbeApp::Knobs knobs) {
  return [knobs] { return std::make_unique<ProbeApp>(knobs); };
}

cr::CampaignConfig tinyConfig(int tests) {
  cr::CampaignConfig config;
  config.numTests = tests;
  config.cache = ms::CacheConfig::tiny();
  return config;
}

}  // namespace

TEST(DriverTest, FreshRunCompletesAndVerifies) {
  rt::Runtime runtime(ms::CacheConfig::tiny());
  ProbeApp app({});
  const auto result = rt::Driver::freshRun(app, runtime);
  EXPECT_FALSE(result.interrupted);
  EXPECT_TRUE(result.verification.pass);
  EXPECT_EQ(result.finalIteration, 6);
  EXPECT_EQ(result.iterationsExecuted, 6);
  EXPECT_FALSE(result.reachedCap);
}

TEST(DriverTest, RunFromMiddleExecutesRemainingIterations) {
  rt::Runtime runtime(ms::CacheConfig::tiny());
  ProbeApp app({});
  app.setup(runtime);
  app.initialize(runtime);
  const auto result = rt::Driver::run(app, runtime, 4, 6);
  EXPECT_EQ(result.iterationsExecuted, 3);  // iterations 4, 5, 6
  EXPECT_EQ(result.finalIteration, 6);
}

TEST(DriverTest, InterruptIsCaptured) {
  ProbeApp::Knobs knobs;
  knobs.interruptOnBadState = true;
  rt::Runtime runtime(ms::CacheConfig::tiny());
  ProbeApp app(knobs);
  app.setup(runtime);
  app.initialize(runtime);
  // Corrupt one cell so the uniformity invariant trips inside iterate().
  runtime.storeValue<std::int64_t>(runtime.object(1).addr, 99);
  const auto result = rt::Driver::run(app, runtime, 1, 6);
  EXPECT_TRUE(result.interrupted);
  EXPECT_FALSE(result.interruptReason.empty());
}

TEST(CampaignTest, InterruptingProbeProducesS3) {
  ProbeApp::Knobs knobs;
  knobs.interruptOnBadState = true;
  const cr::CampaignRunner runner(probeFactory(knobs), tinyConfig(40));
  const auto result = runner.run();
  EXPECT_GT(result.responseCounts()[2], 0) << "expected some S3 interruptions";
}

TEST(DriverTest, ConvergenceStopsEarly) {
  ProbeApp::Knobs knobs;
  knobs.convergenceDriven = true;
  rt::Runtime runtime(ms::CacheConfig::tiny());
  ProbeApp app(knobs);
  app.setup(runtime);
  app.initialize(runtime);
  const auto result = rt::Driver::run(app, runtime, 1, 20);
  EXPECT_EQ(result.finalIteration, 6);  // sum reaches the target at 6
  EXPECT_FALSE(result.reachedCap);
}

TEST(DriverTest, CapIsReported) {
  ProbeApp::Knobs knobs;
  knobs.convergenceDriven = true;
  knobs.iterations = 100;  // unreachable within the cap below
  rt::Runtime runtime(ms::CacheConfig::tiny());
  ProbeApp app(knobs);
  app.setup(runtime);
  app.initialize(runtime);
  const auto result = rt::Driver::run(app, runtime, 1, 5);
  EXPECT_TRUE(result.reachedCap);
  EXPECT_EQ(result.finalIteration, 5);
}

TEST(CampaignTest, GoldenRunStatsAreSane) {
  const cr::CampaignRunner runner(probeFactory({}), tinyConfig(0));
  const auto golden = runner.goldenRun();
  EXPECT_GT(golden.windowAccesses, 0u);
  EXPECT_EQ(golden.finalIteration, 6);
  EXPECT_EQ(golden.regionCount, 2u);
  EXPECT_GT(golden.footprintBytes, 0u);
  EXPECT_GT(golden.candidateBytes, 0u);
  EXPECT_EQ(golden.regionIterationEnds.at(rt::kMainLoopEnd), 6u);
  // Time shares over the two regions sum to ~1.
  double shareSum = 0.0;
  for (const auto& [region, share] : golden.regionTimeShare) shareSum += share;
  EXPECT_NEAR(shareSum, 1.0, 1e-9);
}

TEST(CampaignTest, StrictProbeMostlyFailsWithoutPersistence) {
  // Exact-sum verification + no flushing: restarts usually see stale data.
  const cr::CampaignRunner runner(probeFactory({}), tinyConfig(30));
  const auto result = runner.run();
  EXPECT_EQ(static_cast<int>(result.tests.size()), 30);
  EXPECT_LT(result.recomputability(), 0.9);
}

TEST(CampaignTest, TolerantProbeRecomputesWell) {
  ProbeApp::Knobs knobs;
  knobs.tolerant = true;
  const cr::CampaignRunner runner(probeFactory(knobs), tinyConfig(30));
  const auto result = runner.run();
  // Re-running an iteration rewrites all of data, so a tolerant check passes.
  EXPECT_GT(result.recomputability(), 0.9);
}

TEST(CampaignTest, PersistencePlanRescuesCacheResidentState) {
  // With a working set that fits in the caches, nothing reaches NVM
  // naturally (the paper's "small footprint" pathology): without flushing,
  // only iteration-1 crashes recompute; with an end-of-iteration flush the
  // NVM image always holds the exact iteration boundary, so every crash
  // recomputes.
  ProbeApp::Knobs knobs;
  knobs.cells = 16;  // 128 bytes — far below the tiny 1KB LLC
  const auto factory = probeFactory(knobs);
  const auto baseline = cr::CampaignRunner(factory, tinyConfig(40)).run();
  EXPECT_LT(baseline.recomputability(), 0.5);

  cr::CampaignConfig withPlan = tinyConfig(40);
  // Objects 1 and 2 are data/sum (0 is the runtime's iterator bookmark).
  withPlan.plan = rt::PersistencePlan::atMainLoopEnd({1, 2});
  const auto persisted = cr::CampaignRunner(factory, withPlan).run();
  EXPECT_DOUBLE_EQ(persisted.recomputability(), 1.0);
}

TEST(CampaignTest, DeterministicForSameSeed) {
  const auto factory = probeFactory({});
  const auto a = cr::CampaignRunner(factory, tinyConfig(15)).run();
  const auto b = cr::CampaignRunner(factory, tinyConfig(15)).run();
  ASSERT_EQ(a.tests.size(), b.tests.size());
  for (std::size_t i = 0; i < a.tests.size(); ++i) {
    EXPECT_EQ(a.tests[i].crashAccessIndex, b.tests[i].crashAccessIndex);
    EXPECT_EQ(a.tests[i].response, b.tests[i].response);
    EXPECT_EQ(a.tests[i].crashIteration, b.tests[i].crashIteration);
  }
}

TEST(CampaignTest, DifferentSeedsSampleDifferentCrashes) {
  const auto factory = probeFactory({});
  auto configB = tinyConfig(15);
  configB.seed = 99;
  const auto a = cr::CampaignRunner(factory, tinyConfig(15)).run();
  const auto b = cr::CampaignRunner(factory, configB).run();
  int same = 0;
  for (std::size_t i = 0; i < a.tests.size(); ++i) {
    same += a.tests[i].crashAccessIndex == b.tests[i].crashAccessIndex;
  }
  EXPECT_LT(same, 3);
}

TEST(CampaignTest, CoherentSnapshotsBeatNvmSnapshotsForTolerantApps) {
  // The paper's "verified" methodology copies fully-consistent data. For an
  // error-tolerant application that must recompute at least as often as with
  // the torn NVM image (for trajectory-exact applications the re-executed
  // iteration double-applies — see EXPERIMENTS.md).
  ProbeApp::Knobs knobs;
  knobs.tolerant = true;
  const auto factory = probeFactory(knobs);
  auto coherentConfig = tinyConfig(40);
  coherentConfig.mode = cr::SnapshotMode::Coherent;
  const auto nvm = cr::CampaignRunner(factory, tinyConfig(40)).run();
  const auto coherent = cr::CampaignRunner(factory, coherentConfig).run();
  EXPECT_GE(coherent.recomputability() + 0.05, nvm.recomputability());
}

TEST(CampaignTest, InconsistencyRatesRecorded) {
  const cr::CampaignRunner runner(probeFactory({}), tinyConfig(10));
  const auto result = runner.run();
  for (const auto& test : result.tests) {
    EXPECT_EQ(test.inconsistentRate.size(), 2u);  // data + sum
    for (const auto& [id, rate] : test.inconsistentRate) {
      EXPECT_GE(rate, 0.0);
      EXPECT_LE(rate, 1.0);
    }
  }
}

TEST(CampaignTest, RegionAttributionCoversBothRegions) {
  const cr::CampaignRunner runner(probeFactory({}), tinyConfig(60));
  const auto result = runner.run();
  const auto regions = result.tally().byRegion;
  EXPECT_TRUE(regions.count(0));
  EXPECT_TRUE(regions.count(1));
}

TEST(CampaignTest, ResponseAggregationConsistent) {
  const cr::CampaignRunner runner(probeFactory({}), tinyConfig(25));
  const auto result = runner.run();
  const auto counts = result.responseCounts();
  EXPECT_EQ(counts[0] + counts[1] + counts[2] + counts[3], 25);
  EXPECT_NEAR(result.recomputability(), counts[0] / 25.0, 1e-12);
  EXPECT_NEAR(result.successWithExtra(), (counts[0] + counts[1]) / 25.0, 1e-12);
}

TEST(CampaignTest, RestartIterationNeverExceedsCrashIteration) {
  const cr::CampaignRunner runner(probeFactory({}), tinyConfig(25));
  const auto result = runner.run();
  for (const auto& test : result.tests) {
    EXPECT_GE(test.restartIteration, 1);
    EXPECT_LE(test.restartIteration, test.crashIteration);
  }
}
