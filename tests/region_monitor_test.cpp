// Tests for the adaptive region monitor (docs/INTERNALS.md "Adaptive region
// monitor"), in three layers:
//
// * unit: split/merge mechanics, region-count bounds, and the sampling
//   countdown's invariance across bulk/scalar/chunked access feeds;
// * campaign: the sampled pre-pass summary is seed-deterministic at any
//   --threads / --isolation, and full mode records no monitor state;
// * selection: the Spearman critical-object set computed from a sampled
//   campaign matches the full-tracking set on every bundled benchmark.
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/apps/registry.hpp"
#include "easycrash/core/object_selection.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/memsim/region_monitor.hpp"

namespace ec = easycrash;
namespace ms = easycrash::memsim;
namespace cr = easycrash::crash;

namespace {

/// Structural invariants every monitored object must keep: regions partition
/// [addr, addr+bytes) in ascending order and region counters sum to the
/// object counters.
void expectRegionInvariants(const ms::MonitoredObject& object,
                            const ms::RegionMonitorConfig& config) {
  ASSERT_FALSE(object.regions.empty());
  EXPECT_LE(object.regions.size(), config.maxRegionsPerObject);
  std::uint64_t next = object.addr;
  std::uint64_t samples = 0;
  std::uint64_t writes = 0;
  for (const auto& region : object.regions) {
    EXPECT_EQ(region.base, next);
    EXPECT_GT(region.bytes, 0u);
    next = region.base + region.bytes;
    samples += region.samples;
    writes += region.writes;
  }
  EXPECT_EQ(next, object.addr + object.bytes);
  EXPECT_EQ(samples, object.samples);
  EXPECT_EQ(writes, object.writes);
}

std::string describeRegions(const ms::RegionMonitor& monitor) {
  std::ostringstream out;
  for (const auto& object : monitor.objects()) {
    out << object.name << ":" << object.samples << "/" << object.writes << "/"
        << object.windowSamples << "/" << object.windowWrites << "[";
    for (const auto& region : object.regions) {
      out << region.base << "+" << region.bytes << "=" << region.samples << ","
          << region.writes << ";";
    }
    out << "]";
  }
  return out.str();
}

ms::RegionMonitorConfig tinyConfig() {
  ms::RegionMonitorConfig config;
  config.seed = 7;
  config.sampleInterval = 4;
  config.aggregateEvery = 64;
  config.minRegionBytes = 64;
  config.minSplitSamples = 8;
  return config;
}

}  // namespace

TEST(RegionMonitorTest, SamplingRateTracksInterval) {
  ms::RegionMonitorConfig config = tinyConfig();
  config.sampleInterval = 8;
  ms::RegionMonitor monitor(config);
  monitor.attach(0, "a", 0, 8 * 4096);
  for (std::uint64_t i = 0; i < 4096; ++i) {
    monitor.onRange(i * 8, 8, 1, /*write=*/false);
  }
  // A pure countdown sampler hits exactly every interval-th element after the
  // seeded phase offset.
  EXPECT_GE(monitor.totalSamples(), 4096 / 8 - 1);
  EXPECT_LE(monitor.totalSamples(), 4096 / 8 + 1);
}

TEST(RegionMonitorTest, BulkScalarAndChunkedFeedsAreIdentical) {
  // The same logical element stream fed three ways: element-wise, one big
  // range, and irregular chunks. The countdown must land on the same
  // elements each time (the determinism claim the bulk path relies on).
  const std::uint64_t kElems = 10000;
  const auto feedScalar = [](ms::RegionMonitor& monitor) {
    for (std::uint64_t i = 0; i < kElems; ++i) {
      monitor.onRange(i * 8, 8, 1, (i % 3) == 0);
    }
  };
  const auto feedBulk = [](ms::RegionMonitor& monitor) {
    // Writes in a bulk range apply to the whole range; mirror the scalar
    // stream by splitting on the write flag boundaries (period 3).
    for (std::uint64_t i = 0; i < kElems; ++i) {
      if ((i % 3) == 0) {
        monitor.onRange(i * 8, 8, 1, true);
      } else {
        const std::uint64_t n = std::min<std::uint64_t>(2, kElems - i);
        monitor.onRange(i * 8, 8, n, false);
        i += n - 1;
      }
    }
  };
  const auto feedChunks = [](ms::RegionMonitor& monitor) {
    std::uint64_t i = 0;
    std::uint64_t chunk = 1;
    while (i < kElems) {
      // Chunk boundaries must not straddle a write-flag change, so emit
      // element-wise on write positions and growing chunks elsewhere.
      if ((i % 3) == 0) {
        monitor.onRange(i * 8, 8, 1, true);
        ++i;
        continue;
      }
      std::uint64_t n = std::min<std::uint64_t>(chunk % 2 + 1, kElems - i);
      if ((i + n - 1) % 3 == 0 || (i + n - 1) / 3 != i / 3) n = 1;
      monitor.onRange(i * 8, 8, n, false);
      i += n;
      ++chunk;
    }
  };

  ms::RegionMonitor scalar(tinyConfig());
  ms::RegionMonitor bulk(tinyConfig());
  ms::RegionMonitor chunked(tinyConfig());
  for (auto* monitor : {&scalar, &bulk, &chunked}) {
    monitor->attach(0, "a", 0, kElems * 8);
  }
  feedScalar(scalar);
  feedBulk(bulk);
  feedChunks(chunked);
  EXPECT_EQ(describeRegions(scalar), describeRegions(bulk));
  EXPECT_EQ(describeRegions(scalar), describeRegions(chunked));
  EXPECT_EQ(scalar.totalSamples(), bulk.totalSamples());
  EXPECT_EQ(scalar.totalSplits(), bulk.totalSplits());
}

TEST(RegionMonitorTest, SkewedAccessSplitsHotRegion) {
  ms::RegionMonitor monitor(tinyConfig());
  const std::uint64_t kBytes = 64 * 1024;
  monitor.attach(0, "a", 0, kBytes);
  // Hammer the first eighth of the object only.
  for (int pass = 0; pass < 64; ++pass) {
    for (std::uint64_t i = 0; i < kBytes / 8 / 8; ++i) {
      monitor.onRange(i * 8, 8, 1, true);
    }
  }
  EXPECT_GT(monitor.totalSplits(), 0u);
  ASSERT_EQ(monitor.objects().size(), 1u);
  const auto& object = monitor.objects().front();
  EXPECT_GT(object.regions.size(), 1u);
  expectRegionInvariants(object, tinyConfig());
  // The hot prefix must end up in denser regions than the cold tail.
  const auto& first = object.regions.front();
  const auto& last = object.regions.back();
  const double dFirst =
      static_cast<double>(first.samples) / static_cast<double>(first.bytes);
  const double dLast =
      static_cast<double>(last.samples) / static_cast<double>(last.bytes);
  EXPECT_GT(dFirst, dLast);
}

TEST(RegionMonitorTest, UniformPhaseMergesRegionsBack) {
  ms::RegionMonitorConfig config = tinyConfig();
  ms::RegionMonitor monitor(config);
  const std::uint64_t kBytes = 64 * 1024;
  monitor.attach(0, "a", 0, kBytes);
  for (int pass = 0; pass < 32; ++pass) {
    for (std::uint64_t i = 0; i < kBytes / 8 / 8; ++i) {
      monitor.onRange(i * 8, 8, 1, true);
    }
  }
  ASSERT_GT(monitor.totalSplits(), 0u);
  // Long uniform phase: densities converge, adjacent regions fold back.
  for (int pass = 0; pass < 64; ++pass) {
    monitor.onRange(0, 8, kBytes / 8, false);
  }
  EXPECT_GT(monitor.totalMerges(), 0u);
  expectRegionInvariants(monitor.objects().front(), config);
}

TEST(RegionMonitorTest, RegionCountStaysBounded) {
  ms::RegionMonitorConfig config = tinyConfig();
  config.maxRegionsPerObject = 4;
  ms::RegionMonitor monitor(config);
  monitor.attach(0, "a", 0, 256 * 1024);
  monitor.attach(1, "b", 256 * 1024, 256 * 1024);
  // Adversarial stream: rotate a hot stripe so splits keep triggering.
  for (int pass = 0; pass < 128; ++pass) {
    const std::uint64_t stripe = (pass % 16) * 16 * 1024;
    for (std::uint64_t i = 0; i < 2048; ++i) {
      monitor.onRange(stripe + (i % (16 * 1024 / 8)) * 8, 8, 1, true);
    }
  }
  for (const auto& object : monitor.objects()) {
    EXPECT_LE(object.regions.size(), 4u);
    expectRegionInvariants(object, config);
  }
}

TEST(RegionMonitorTest, WindowCountersTrackOnlyWindowSamples) {
  ms::RegionMonitor monitor(tinyConfig());
  monitor.attach(0, "a", 0, 4096 * 8);
  for (std::uint64_t i = 0; i < 4096; ++i) monitor.onRange(i * 8, 8, 1, true);
  const auto& object = monitor.objects().front();
  const std::uint64_t setupSamples = object.samples;
  EXPECT_EQ(object.windowSamples, 0u);
  monitor.setWindow(true);
  for (std::uint64_t i = 0; i < 4096; ++i) monitor.onRange(i * 8, 8, 1, true);
  EXPECT_GT(object.windowSamples, 0u);
  EXPECT_EQ(object.samples, setupSamples + object.windowSamples);
  EXPECT_EQ(object.windowWrites, object.windowSamples);
}

TEST(RegionMonitorTest, SeedShiftsTheSamplingPhase) {
  std::map<std::uint64_t, std::uint64_t> firstSample;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    ms::RegionMonitorConfig config = tinyConfig();
    config.seed = seed;
    config.sampleInterval = 16;
    ms::RegionMonitor monitor(config);
    monitor.attach(0, "a", 0, 16 * 64);
    std::uint64_t first = 0;
    for (std::uint64_t i = 0; i < 64 && first == 0; ++i) {
      monitor.onRange(i * 64, 64, 1, false);
      if (monitor.totalSamples() > 0) first = i + 1;
    }
    firstSample[first] = seed;
  }
  // The splitmix64 phase must actually spread across the interval.
  EXPECT_GT(firstSample.size(), 4u);
}

// ---------------------------------------------------------------------------
// Campaign layer.

namespace {

cr::CampaignConfig sampledConfig(int tests) {
  cr::CampaignConfig config;
  config.numTests = tests;
  config.seed = 11;
  config.monitor.mode = cr::MonitorMode::Sampled;
  config.profile = false;
  return config;
}

void expectSameMonitorSummary(const cr::MonitorSummary& a,
                              const cr::MonitorSummary& b) {
  EXPECT_EQ(a.active, b.active);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.splits, b.splits);
  EXPECT_EQ(a.merges, b.merges);
  EXPECT_EQ(a.demotedObjects, b.demotedObjects);
  EXPECT_EQ(a.demotedBytes, b.demotedBytes);
  EXPECT_EQ(a.trackedObjects, b.trackedObjects);
  EXPECT_EQ(a.trackedBytes, b.trackedBytes);
  ASSERT_EQ(a.objects.size(), b.objects.size());
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    const auto& oa = a.objects[i];
    const auto& ob = b.objects[i];
    EXPECT_EQ(oa.name, ob.name);
    EXPECT_EQ(oa.demoted, ob.demoted);
    EXPECT_EQ(oa.samples, ob.samples);
    EXPECT_EQ(oa.writes, ob.writes);
    EXPECT_EQ(oa.windowWrites, ob.windowWrites);
    ASSERT_EQ(oa.regions.size(), ob.regions.size());
    for (std::size_t r = 0; r < oa.regions.size(); ++r) {
      EXPECT_EQ(oa.regions[r].base, ob.regions[r].base);
      EXPECT_EQ(oa.regions[r].bytes, ob.regions[r].bytes);
      EXPECT_EQ(oa.regions[r].samples, ob.regions[r].samples);
      EXPECT_EQ(oa.regions[r].writes, ob.regions[r].writes);
    }
  }
}

void expectSameTrialRecords(const cr::CampaignResult& a,
                            const cr::CampaignResult& b) {
  ASSERT_EQ(a.tests.size(), b.tests.size());
  for (std::size_t i = 0; i < a.tests.size(); ++i) {
    EXPECT_EQ(a.tests[i].crashAccessIndex, b.tests[i].crashAccessIndex);
    EXPECT_EQ(a.tests[i].response, b.tests[i].response);
    EXPECT_EQ(a.tests[i].inconsistentRate, b.tests[i].inconsistentRate);
  }
}

}  // namespace

TEST(MonitorCampaignTest, FullModeRecordsNoMonitorState) {
  const auto factory = ec::apps::findBenchmark("cg").factory;
  cr::CampaignConfig config;
  config.numTests = 4;
  config.profile = false;
  const auto result = cr::CampaignRunner(factory, config).run();
  EXPECT_FALSE(result.monitor.active);
  EXPECT_TRUE(result.monitor.objects.empty());
  EXPECT_EQ(result.monitor.demotedObjects, 0u);
}

TEST(MonitorCampaignTest, SampledSummaryDeterministicAcrossThreads) {
  const auto factory = ec::apps::findBenchmark("cg").factory;
  cr::CampaignConfig one = sampledConfig(8);
  cr::CampaignConfig four = sampledConfig(8);
  four.threads = 4;
  const auto a = cr::CampaignRunner(factory, one).run();
  const auto b = cr::CampaignRunner(factory, four).run();
  ASSERT_TRUE(a.monitor.active);
  expectSameMonitorSummary(a.monitor, b.monitor);
  expectSameTrialRecords(a, b);
}

TEST(MonitorCampaignTest, SampledSummaryDeterministicAcrossIsolation) {
  const auto factory = ec::apps::findBenchmark("cg").factory;
  cr::CampaignConfig inProcess = sampledConfig(8);
  cr::CampaignConfig forked = sampledConfig(8);
  forked.resilience.isolation = cr::IsolationMode::Fork;
  const auto a = cr::CampaignRunner(factory, inProcess).run();
  const auto b = cr::CampaignRunner(factory, forked).run();
  ASSERT_TRUE(a.monitor.active);
  expectSameMonitorSummary(a.monitor, b.monitor);
  expectSameTrialRecords(a, b);
}

TEST(MonitorCampaignTest, SampledDemotesOnlyLargeUnplannedObjects) {
  const auto factory = ec::apps::findBenchmark("cg").factory;
  const auto result = cr::CampaignRunner(factory, sampledConfig(4)).run();
  ASSERT_TRUE(result.monitor.active);
  EXPECT_GT(result.monitor.demotedObjects, 0u);
  for (const auto& object : result.monitor.objects) {
    if (!object.demoted) continue;
    EXPECT_GT(object.bytes, cr::kMonitorSmallObjectBytes);
    // Demotion never claims a candidate: candidates' inconsistency rates
    // are the Spearman selection's input and must stay value-tracked.
    EXPECT_FALSE(object.candidate);
  }
  // Golden stats must be identical to full mode, so crash indices are drawn
  // from the same window.
  cr::CampaignConfig full;
  full.numTests = 4;
  full.seed = 11;
  full.profile = false;
  const auto fullResult = cr::CampaignRunner(factory, full).run();
  EXPECT_EQ(result.golden.windowAccesses, fullResult.golden.windowAccesses);
  EXPECT_EQ(result.golden.finalIteration, fullResult.golden.finalIteration);
}

// ---------------------------------------------------------------------------
// Selection agreement: the point of the sampled mode is that the Spearman
// critical-object selection still gets the rates it needs. Campaigns are
// small here, so this also guards the ranking against sampling noise.

class MonitorSelectionSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(MonitorSelectionSuite, SampledSelectionMatchesFull) {
  const auto& entry = ec::apps::findBenchmark(GetParam());
  cr::CampaignConfig full;
  full.numTests = 12;
  full.seed = 5;
  full.profile = false;
  cr::CampaignConfig sampled = full;
  sampled.monitor.mode = cr::MonitorMode::Sampled;

  const auto fullResult = cr::CampaignRunner(entry.factory, full).run();
  const auto sampledResult = cr::CampaignRunner(entry.factory, sampled).run();

  // Demoted blocks keep metadata-only cache residency, so the tracked
  // candidates' rates, snapshots and restart outcomes are bit-identical to
  // full tracking — not merely rank-equivalent.
  expectSameTrialRecords(fullResult, sampledResult);

  const auto fullSelection = ec::core::selectCriticalObjects(fullResult);
  const auto sampledSelection = ec::core::selectCriticalObjects(sampledResult);
  EXPECT_EQ(fullSelection.critical, sampledSelection.critical)
      << "critical-object sets diverged for " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllApps, MonitorSelectionSuite,
                         ::testing::ValuesIn([] {
                           std::vector<std::string> names;
                           for (const auto& e : ec::apps::allBenchmarks()) {
                             names.push_back(e.name);
                           }
                           return names;
                         }()),
                         [](const auto& info) { return info.param; });
