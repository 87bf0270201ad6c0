// Tests for sharded campaign execution and `nvct merge` (docs/INTERNALS.md
// "Sharded campaigns"): the trial partition is exact, every shard draws the
// same campaign, and merging the shard journals reproduces the unsharded
// run's journal/CSV byte-for-byte — in any merge order, idempotently, and
// across isolation/thread settings. Mismatched campaigns are rejected loudly.
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/core/object_selection.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/flight_report.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/crash/shard.hpp"
#include "easycrash/crash/status.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/runtime/tracked.hpp"
#include "easycrash/telemetry/trace.hpp"
#include "reference_campaign.hpp"

namespace rt = easycrash::runtime;
namespace cr = easycrash::crash;
namespace ms = easycrash::memsim;

namespace {

/// Minimal two-region accumulator app (campaign_test's ProbeApp shape):
/// enough structure for S1-S4 outcomes without being slow.
class ShardProbeApp final : public rt::IApp {
 public:
  [[nodiscard]] const rt::AppInfo& info() const override { return info_; }

  void setup(rt::Runtime& runtime) override {
    runtime.declareRegionCount(2);
    data_ = rt::TrackedArray<std::int64_t>(runtime, "data", kCells, true);
    sum_ = rt::TrackedScalar<std::int64_t>(runtime, "sum", true);
  }

  void initialize(rt::Runtime& runtime) override {
    (void)runtime;
    for (int i = 0; i < kCells; ++i) data_.set(i, 0);
    sum_.set(0);
  }

  void iterate(rt::Runtime& runtime, int iteration) override {
    (void)iteration;
    {
      rt::RegionScope region(runtime, 0);
      for (int i = 0; i < kCells; ++i) data_.set(i, data_.get(i) + 1);
      region.iterationEnd();
    }
    {
      rt::RegionScope region(runtime, 1);
      std::int64_t total = 0;
      for (int i = 0; i < kCells; ++i) total += data_.get(i);
      sum_.set(total);
      region.iterationEnd();
    }
  }

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

 private:
  static constexpr int kCells = 256;
  static constexpr int kIterations = 6;
  rt::AppInfo info_{"shard-probe", "sharding test app"};
  rt::TrackedArray<std::int64_t> data_;
  rt::TrackedScalar<std::int64_t> sum_;
};

rt::AppFactory probeFactory() {
  return [] { return std::make_unique<ShardProbeApp>(); };
}

cr::CampaignConfig tinyConfig(int tests) {
  cr::CampaignConfig config;
  config.numTests = tests;
  config.cache = ms::CacheConfig::tiny();
  return config;
}

std::string tempPath(const char* name) { return testing::TempDir() + name; }

std::string readFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << "cannot open " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Run one shard (or the unsharded campaign when count == 1) of the probe
/// campaign, journaling to `path`. Returns the in-process result.
cr::CampaignResult runShard(const std::string& path, int tests, int index, int count,
                            cr::IsolationMode isolation = cr::IsolationMode::InProcess,
                            int threads = 1) {
  std::remove(path.c_str());
  auto config = tinyConfig(tests);
  config.resilience.isolation = isolation;
  config.threads = threads;
  config.shard.index = index;
  config.shard.count = count;
  config.resilience.journalPath = path;
  return cr::CampaignRunner(probeFactory(), config).run();
}

struct StopFlagGuard {
  StopFlagGuard() { cr::clearStopFlag(); }
  ~StopFlagGuard() { cr::clearStopFlag(); }
};

}  // namespace

// ---- Partition function -----------------------------------------------------

TEST(ShardTest, PartitionAssignsEveryTrialToExactlyOneShard) {
  for (const int count : {1, 2, 3, 4, 7}) {
    for (std::size_t t = 0; t < 100; ++t) {
      int owners = 0;
      for (int index = 0; index < count; ++index) {
        cr::ShardConfig shard;
        shard.index = index;
        shard.count = count;
        if (shard.owns(t)) ++owners;
      }
      EXPECT_EQ(owners, 1) << "trial " << t << " with k=" << count;
    }
  }
}

TEST(ShardTest, UnshardedConfigOwnsEverything) {
  const cr::ShardConfig shard;  // defaults: 0/1
  EXPECT_FALSE(shard.active());
  for (std::size_t t = 0; t < 50; ++t) EXPECT_TRUE(shard.owns(t));
}

TEST(ShardTest, CampaignHashIgnoresShardCoordinates) {
  cr::JournalHeader a;
  a.app = "probe";
  a.seed = 7;
  a.tests = 40;
  a.planFingerprint = 1234;
  a.windowAccesses = 9999;
  cr::JournalHeader b = a;
  b.shardIndex = 2;
  b.shardCount = 4;
  EXPECT_EQ(cr::campaignHash(a), cr::campaignHash(b));
  b.seed = 8;
  EXPECT_NE(cr::campaignHash(a), cr::campaignHash(b));
}

// Every shard journal stamps this hash and `nvct merge` recomputes it, so a
// change to what it mixes orphans every journal already written. The literal
// is the value computed before the monitor-mode field left the header.
TEST(ShardTest, CampaignHashOfAFixedHeaderIsPinned) {
  cr::JournalHeader h;
  h.app = "sp";
  h.seed = 7;
  h.tests = 12;
  h.mode = "nvm";
  h.planFingerprint = 0x9e3779b97f4a7c15ull;
  h.windowAccesses = 123456789;
  h.shardIndex = 1;
  h.shardCount = 2;
  h.candidates = {{1, "u"}, {2, "rhs"}};
  EXPECT_EQ(cr::campaignHash(h), 16046924947781939712ull);
}

// ---- Byte-identity ----------------------------------------------------------

TEST(ShardTest, MergedShardJournalsMatchUnshardedRunByteForByte) {
  // The unsharded reference: the per-trial model's campaign, journaled.
  const std::string ref = tempPath("shard_ref.jsonl");
  auto refConfig = tinyConfig(30);
  refConfig.resilience.isolation = cr::IsolationMode::InProcess;
  const auto fresh = easycrash::reference::referenceCampaign(probeFactory(), refConfig);
  easycrash::reference::writeReferenceJournal(fresh, refConfig, ref);
  const std::string refBytes = readFile(ref);

  // The partition must hold whichever isolation/thread mix each shard used.
  struct Mix {
    cr::IsolationMode isolation;
    int threads;
  };
  const Mix mixes[] = {{cr::IsolationMode::InProcess, 1}, {cr::IsolationMode::Fork, 2}};
  for (const auto& mix : mixes) {
    std::vector<std::string> paths;
    for (int index = 0; index < 2; ++index) {
      const std::string path =
          tempPath(("shard_half" + std::to_string(index) + ".jsonl").c_str());
      const auto part = runShard(path, 30, index, 2, mix.isolation, mix.threads);
      EXPECT_EQ(part.tests.size(), 15u);
      paths.push_back(path);
    }
    const auto merge = cr::mergeShardJournals(paths);
    EXPECT_TRUE(merge.complete());
    EXPECT_EQ(merge.shardsSeen.size(), 2u);
    EXPECT_EQ(cr::renderMergedJournal(merge), refBytes)
        << "fork=" << (mix.isolation == cr::IsolationMode::Fork)
        << " threads=" << mix.threads;

    std::ostringstream csv;
    cr::writeCampaignCsv(fresh, csv);
    EXPECT_EQ(cr::renderMergedCsv(merge), csv.str());
    for (const auto& path : paths) std::remove(path.c_str());
  }
  std::remove(ref.c_str());
}

TEST(ShardTest, MergeIsCommutativeAndIdempotent) {
  std::vector<std::string> paths;
  for (int index = 0; index < 3; ++index) {
    const std::string path =
        tempPath(("shard_ci" + std::to_string(index) + ".jsonl").c_str());
    runShard(path, 21, index, 3);
    paths.push_back(path);
  }
  const std::string forward =
      cr::renderMergedJournal(cr::mergeShardJournals(paths));
  const std::string reversed = cr::renderMergedJournal(
      cr::mergeShardJournals({paths[2], paths[0], paths[1]}));
  EXPECT_EQ(forward, reversed);

  // Feeding a journal twice changes nothing (last-wins over a disjoint set).
  const std::string doubled = cr::renderMergedJournal(
      cr::mergeShardJournals({paths[0], paths[1], paths[1], paths[2]}));
  EXPECT_EQ(forward, doubled);

  // Merging the merged (now unsharded) journal is the k=1 identity.
  const std::string mergedPath = tempPath("shard_ci_merged.jsonl");
  cr::atomicWriteFile(mergedPath, forward);
  const auto again = cr::mergeShardJournals({mergedPath});
  EXPECT_EQ(cr::renderMergedJournal(again), forward);
  EXPECT_EQ(again.shardCount, 1);

  // The deterministic metrics projection is also layout-independent: the
  // k=3 merge and the k=1 re-merge project byte-identical JSON.
  EXPECT_EQ(cr::renderMergedMetrics(cr::mergeShardJournals(paths)),
            cr::renderMergedMetrics(again));

  for (const auto& path : paths) std::remove(path.c_str());
  std::remove(mergedPath.c_str());
}

// ---- Merge property -----------------------------------------------------------

namespace {

/// A synthetic decided set: each index is a trial, a failure or undecided.
struct DecidedSet {
  cr::JournalHeader header;
  std::map<std::size_t, cr::CrashTestRecord> trials;
  std::map<std::size_t, cr::TrialFailure> failures;
};

DecidedSet randomDecidedSet(std::mt19937_64& rng) {
  const auto below = [&rng](std::uint64_t n) { return rng() % n; };
  DecidedSet set;
  set.header.app = "synthetic";
  set.header.seed = rng();  // full 64-bit: no double holds most of these
  set.header.tests = 1 + static_cast<int>(below(40));
  set.header.mode = below(2) ? "nvm" : "coherent";
  set.header.planFingerprint = rng();
  set.header.windowAccesses = rng();
  set.header.candidates = {{1, "u"}, {4, "r\"hs"}, {9, "p"}};
  const char* kinds[] = {"exception", "crashed", "killed", "oom", "protocol"};
  for (std::size_t t = 0; t < static_cast<std::size_t>(set.header.tests); ++t) {
    const auto roll = below(10);
    if (roll < 7) {
      cr::CrashTestRecord r;
      r.crashAccessIndex = rng();
      r.region = static_cast<rt::PointId>(below(5)) - 1;
      for (std::uint64_t d = below(3); d > 0; --d) {
        r.regionPath.push_back(static_cast<rt::PointId>(below(4)));
      }
      r.crashIteration = static_cast<int>(below(100));
      r.restartIteration = r.crashIteration + static_cast<int>(below(3));
      r.response = static_cast<cr::Response>(below(4));
      r.extraIterations = static_cast<int>(below(4));
      for (const auto& candidate : set.header.candidates) {
        if (below(2)) {
          r.inconsistentRate[candidate.id] =
              static_cast<double>(rng() >> 11) / static_cast<double>(1ull << 53);
        }
      }
      r.note = "note " + std::to_string(below(1000)) + (below(2) ? " \"q\"\n" : "");
      set.trials[t] = std::move(r);
    } else if (roll < 9) {
      cr::TrialFailure f;
      f.trial = t;
      f.crashAccessIndex = rng();
      f.timeout = below(2) != 0;
      f.kind = kinds[below(5)];
      f.attempts = 1 + static_cast<int>(below(3));
      f.reason = "reason " + std::to_string(below(1000));
      f.regionPath = below(2) ? "R1>R2" : "";
      set.failures[t] = std::move(f);
    }
  }
  return set;
}

/// Journal the decided indices `keep` accepts through TrialJournal, in a
/// shuffled decision order and at a random flush cadence (so finished and
/// segment-appended journals both occur; `close` picks which).
void journalSet(const DecidedSet& set, const cr::JournalHeader& header,
                const std::string& path, std::mt19937_64& rng,
                const std::function<bool(std::size_t)>& keep, bool close) {
  std::remove(path.c_str());
  std::vector<std::size_t> order;
  for (const auto& [t, record] : set.trials) if (keep(t)) order.push_back(t);
  for (const auto& [t, failure] : set.failures) if (keep(t)) order.push_back(t);
  std::shuffle(order.begin(), order.end(), rng);
  std::string segments;
  {
    cr::TrialJournal journal(path, header, 1 + static_cast<int>(rng() % 4));
    journal.flush();
    for (const std::size_t t : order) {
      if (set.trials.count(t)) {
        journal.recordTrial(t, set.trials.at(t));
      } else {
        journal.recordFailure(set.failures.at(t));
      }
    }
    journal.flush();
    segments = readFile(path);
  }
  // Unclosed: the appended segments as a killed campaign leaves them, before
  // the close-time compaction.
  if (!close) cr::atomicWriteFile(path, segments);
}

}  // namespace

TEST(ShardTest, MergeOfAnySplitEqualsTheUnshardedCompaction) {
  // Property: for k in [1, 5] shard journals of one synthetic decided set,
  // merged in any order and from any subset, the merged journal equals the
  // unsharded compaction of the union of the merged shards, and the metrics
  // projection does not depend on k.
  std::mt19937_64 rng(4242);
  const std::string unsharded = tempPath("merge_property_union.jsonl");
  for (int round = 0; round < 12; ++round) {
    const DecidedSet set = randomDecidedSet(rng);
    cr::JournalHeader plain = set.header;
    plain.candidates.clear();
    journalSet(set, plain, unsharded, rng, [](std::size_t) { return true; }, true);
    const std::string whole = readFile(unsharded);
    std::string metrics;
    for (int k = 1; k <= 5; ++k) {
      std::vector<std::string> paths;
      for (int i = 0; i < k; ++i) {
        cr::JournalHeader header = k == 1 ? plain : set.header;
        if (k > 1) {
          header.shardIndex = i;
          header.shardCount = k;
          header.campaignHash = cr::campaignHash(header);
        }
        paths.push_back(
            tempPath(("merge_property_" + std::to_string(i) + ".jsonl").c_str()));
        journalSet(set, header, paths.back(), rng,
                   [&](std::size_t t) { return static_cast<int>(t) % k == i; },
                   rng() % 2 == 0);
      }
      std::shuffle(paths.begin(), paths.end(), rng);
      const auto merge = cr::mergeShardJournals(paths);
      EXPECT_EQ(cr::renderMergedJournal(merge), whole) << "round " << round << " k=" << k;
      EXPECT_EQ(merge.complete(), set.trials.size() + set.failures.size() ==
                                      static_cast<std::size_t>(set.header.tests));
      const std::string projected = cr::renderMergedMetrics(merge);
      if (k == 1) metrics = projected;
      EXPECT_EQ(projected, metrics) << "round " << round << " k=" << k;

      // A random non-empty subset merges to the compaction of its union.
      std::vector<std::string> subset;
      std::set<int> shards;
      for (std::size_t p = 0; p < paths.size(); ++p) {
        if (rng() % 2 == 0 || (subset.empty() && p + 1 == paths.size())) {
          subset.push_back(paths[p]);
          shards.insert(cr::readJournal(paths[p]).header.shardIndex);
        }
      }
      journalSet(set, plain, unsharded, rng,
                 [&](std::size_t t) { return shards.count(static_cast<int>(t) % k) > 0; },
                 true);
      EXPECT_EQ(cr::renderMergedJournal(cr::mergeShardJournals(subset)),
                readFile(unsharded))
          << "round " << round << " k=" << k << " subset of " << subset.size();
      for (const auto& path : paths) std::remove(path.c_str());
    }
  }
  std::remove(unsharded.c_str());
}

// printf-formats one value (the renderers' own formats, restated).
template <typename... Args>
std::string format(const char* spec, Args... args) {
  char buf[160];
  std::snprintf(buf, sizeof buf, spec, args...);
  return buf;
}

TEST(TrialTally, MatchesARecountAndEveryRendererCarriesIt) {
  // Random decided sets — S2 trials with extra iterations, multi-level region
  // paths, objects some trials recorded no rate for: the tally equals a
  // recount written here, and the summary, `nvct report`'s tables and the
  // merged metrics projection, all rendered from one set, carry the same
  // S1-S4 counts, S2 extra sum and per-object means (each over the trials
  // that recorded the object), and object selection uses those means.
  struct Rate {
    double sum = 0.0;
    double max = 0.0;
    int samples = 0;
  };
  std::mt19937_64 rng(2929);
  const std::string path = tempPath("tally_property.jsonl");
  for (int round = 0; round < 16; ++round) {
    const DecidedSet set = randomDecidedSet(rng);
    std::array<int, 4> counts{};
    long long extra = 0;
    std::map<rt::PointId, std::array<int, 4>> byRegion;
    std::map<std::string, std::pair<std::array<int, 4>, long long>> byPath;
    std::map<rt::ObjectId, Rate> rates;
    cr::TrialTally tally;
    cr::CampaignResult campaign;
    for (const auto& [t, record] : set.trials) {
      tally.add(record);
      campaign.tests.push_back(record);
      const auto s = static_cast<std::size_t>(record.response);
      auto& pathStats = byPath[cr::formatRegionPath(record.regionPath)];
      counts[s] += 1;
      byRegion[record.region][s] += 1;
      pathStats.first[s] += 1;
      if (record.response == cr::Response::S2) {
        extra += record.extraIterations;
        pathStats.second += record.extraIterations;
      }
      for (const auto& [id, rate] : record.inconsistentRate) {
        rates[id].sum += rate;
        rates[id].max = rate > rates[id].max ? rate : rates[id].max;
        rates[id].samples += 1;
      }
    }
    const std::string where = "round " + std::to_string(round);
    EXPECT_EQ(tally.all.responses, counts) << where;
    EXPECT_EQ(tally.all.s2ExtraIterations, extra) << where;
    EXPECT_EQ(tally.all.trials(), static_cast<int>(set.trials.size())) << where;
    ASSERT_EQ(tally.byRegion.size(), byRegion.size()) << where;
    for (const auto& [region, regionCounts] : byRegion) {
      EXPECT_EQ(tally.byRegion.at(region).responses, regionCounts) << where;
    }
    ASSERT_EQ(tally.byRegionPath.size(), byPath.size()) << where;
    for (const auto& [name, pathStats] : byPath) {
      EXPECT_EQ(tally.byRegionPath.at(name).responses, pathStats.first) << where;
      EXPECT_EQ(tally.byRegionPath.at(name).s2ExtraIterations, pathStats.second) << where;
    }
    ASSERT_EQ(tally.rates.size(), rates.size()) << where;
    for (const auto& [id, rate] : rates) {
      EXPECT_EQ(tally.rates.at(id).sum, rate.sum) << where;
      EXPECT_EQ(tally.rates.at(id).max, rate.max) << where;
      EXPECT_EQ(tally.rates.at(id).samples, rate.samples) << where;
    }

    cr::JournalHeader plain = set.header;
    plain.candidates.clear();
    journalSet(set, plain, path, rng, [](std::size_t) { return true; }, true);
    const auto merge = cr::mergeShardJournals({path});
    const std::string report = cr::renderFlightReport(merge.replay, "", "");
    const std::string metrics = cr::renderMergedMetrics(merge);
    for (const auto& candidate : set.header.candidates) {
      rt::DataObjectInfo object;
      object.id = candidate.id;
      object.name = candidate.name;
      object.candidate = true;
      campaign.golden.objects.push_back(object);
    }
    std::ostringstream summaryStream;
    cr::writeCampaignSummary(campaign, summaryStream);
    const std::string summary = summaryStream.str();

    const double decided = static_cast<double>(set.trials.size());
    const double avgExtra = counts[1] > 0 ? static_cast<double>(extra) / counts[1] : 0.0;
    std::vector<std::string> inReport, inSummary, inMetrics;
    for (int s = 0; s < 4; ++s) {
      inReport.push_back(format("| S%d | %d | %.1f%% |", s + 1, counts[s],
                                decided > 0 ? 100.0 * counts[s] / decided : 0.0));
    }
    inReport.push_back(format("- average extra iterations over S2: %.2f\n", avgExtra));
    for (const auto& [name, pathStats] : byPath) {
      const auto& c = pathStats.first;
      inReport.push_back(format("| `%s` | %d | %d | %d | %d | %d |", name.c_str(),
                                c[0] + c[1] + c[2] + c[3], c[0], c[1], c[2], c[3]));
    }
    inMetrics.push_back(format("\"responses\": {\"s1\": %d, \"s2\": %d, \"s3\": %d, "
                               "\"s4\": %d},\n  \"extra_iterations\": %lld,",
                               counts[0], counts[1], counts[2], counts[3], extra));
    for (const auto& [id, rate] : rates) {
      inReport.push_back(format("| `obj%d` | %d | %.4f | %.4f |", static_cast<int>(id),
                                rate.samples, rate.sum / rate.samples, rate.max));
      std::string entry = format("{\"id\": %d, \"samples\": %d, \"mean\": ",
                                 static_cast<int>(id), rate.samples);
      easycrash::telemetry::appendExactDouble(entry, rate.sum / rate.samples);
      entry += ", \"max\": ";
      easycrash::telemetry::appendExactDouble(entry, rate.max);
      inMetrics.push_back(entry + '}');
    }
    if (!set.trials.empty()) {
      inSummary.push_back(format("  S1 %.1f%%  S2 %.1f%%  S3 %.1f%%  S4 %.1f%%\n",
                                 100.0 * counts[0] / decided, 100.0 * counts[1] / decided,
                                 100.0 * counts[2] / decided, 100.0 * counts[3] / decided));
      inSummary.push_back(format("  avg extra iters:  %.2f\n", avgExtra));
      for (const auto& [region, c] : byRegion) {
        const int n = c[0] + c[1] + c[2] + c[3];
        inSummary.push_back(format("    %s: %.1f%% (%d crashes)\n",
                                   cr::regionName(region).c_str(),
                                   100.0 * (static_cast<double>(c[0]) / n), n));
      }
      for (const auto& candidate : set.header.candidates) {
        const auto it = rates.find(candidate.id);
        inSummary.push_back(format(
            "    %s: %.2f%%\n", candidate.name.c_str(),
            100.0 * (it == rates.end() ? 0.0 : it->second.sum / it->second.samples)));
      }
      // Object selection reads the same mean.
      for (const auto& corr : easycrash::core::selectCriticalObjects(campaign).correlations) {
        const auto it = rates.find(corr.id);
        EXPECT_EQ(corr.meanInconsistentRate,
                  it == rates.end() ? 0.0 : it->second.sum / it->second.samples)
            << where << ": " << corr.name;
      }
    }
    for (const auto& line : inReport) {
      EXPECT_NE(report.find(line), std::string::npos) << where << ": " << line;
    }
    for (const auto& line : inMetrics) {
      EXPECT_NE(metrics.find(line), std::string::npos) << where << ": " << line;
    }
    for (const auto& line : inSummary) {
      EXPECT_NE(summary.find(line), std::string::npos) << where << ": " << line;
    }
  }
  std::remove(path.c_str());
}

TEST(ShardTest, MergeKeepsTheLastRecordAcrossKinds) {
  // A journal given later re-decides an index whichever kind either record
  // is, as within one journal: the index counts once.
  cr::JournalHeader header;
  header.app = "probe";
  header.tests = 2;
  header.mode = "nvm";
  cr::TrialFailure failure;
  failure.reason = "boom";
  const std::string failed = tempPath("merge_kinds_failed.jsonl");
  const std::string decided = tempPath("merge_kinds_decided.jsonl");
  {
    cr::TrialJournal journal(failed, header, 1);
    journal.recordFailure(failure);
    journal.recordTrial(1, cr::CrashTestRecord{});
  }
  {
    cr::TrialJournal journal(decided, header, 1);
    journal.recordTrial(0, cr::CrashTestRecord{});
  }
  const auto later = cr::mergeShardJournals({failed, decided});
  EXPECT_EQ(later.replay.trials.size(), 2u);
  EXPECT_TRUE(later.replay.failures.empty());
  const auto earlier = cr::mergeShardJournals({decided, failed});
  EXPECT_EQ(earlier.replay.trials.size(), 1u);
  EXPECT_EQ(earlier.replay.failures.size(), 1u);
  EXPECT_TRUE(earlier.complete());
  std::remove(failed.c_str());
  std::remove(decided.c_str());
}

// ---- Rejection --------------------------------------------------------------

TEST(ShardTest, MergeRejectsJournalsFromDifferentCampaigns) {
  const std::string a = tempPath("shard_seed1.jsonl");
  const std::string b = tempPath("shard_seed2.jsonl");
  runShard(a, 20, 0, 2);
  {
    std::remove(b.c_str());
    auto config = tinyConfig(20);
    config.seed = 99;  // different campaign
    config.shard.index = 1;
    config.shard.count = 2;
    config.resilience.isolation = cr::IsolationMode::InProcess;
    config.resilience.journalPath = b;
    (void)cr::CampaignRunner(probeFactory(), config).run();
  }
  EXPECT_THROW(
      {
        try {
          (void)cr::mergeShardJournals({a, b});
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(ShardTest, MergeRejectsTamperedCampaignFingerprint) {
  const std::string path = tempPath("shard_tamper.jsonl");
  runShard(path, 20, 0, 2);
  std::string bytes = readFile(path);
  const auto pos = bytes.find("\"campaign_hash\":\"");
  ASSERT_NE(pos, std::string::npos);
  // Flip the last fingerprint digit downward: a different value with the
  // same digit count, so it still parses as a 64-bit decimal and reaches
  // the fingerprint recomputation.
  const auto digit = bytes.find('"', pos + std::string("\"campaign_hash\":\"").size()) - 1;
  bytes[digit] = bytes[digit] == '0' ? '5' : static_cast<char>(bytes[digit] - 1);
  cr::atomicWriteFile(path, bytes);
  EXPECT_THROW(
      {
        try {
          (void)cr::mergeShardJournals({path});
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::remove(path.c_str());
}

TEST(ShardTest, MergeRejectsForeignTrialsAndMixedShardCounts) {
  const std::string s0 = tempPath("shard_mix0.jsonl");
  const std::string s1 = tempPath("shard_mix1.jsonl");
  const std::string unsharded = tempPath("shard_mix_ref.jsonl");
  runShard(s0, 20, 0, 2);
  runShard(s1, 20, 1, 2);
  runShard(unsharded, 20, 0, 1);

  // A sharded and an unsharded journal never merge.
  EXPECT_THROW((void)cr::mergeShardJournals({s0, unsharded}), std::runtime_error);

  // Relabel shard 1's journal as shard 0: its trials (odd indices) are not
  // owned by shard 0, so the ownership check fires. The campaign fingerprint
  // deliberately ignores shard coordinates — this is exactly the mis-copied
  // journal it cannot catch, and the ownership check must.
  std::string bytes = readFile(s1);
  const auto pos = bytes.find("\"shard\":1");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos + std::string("\"shard\":").size()] = '0';
  cr::atomicWriteFile(s1, bytes);
  EXPECT_THROW(
      {
        try {
          (void)cr::mergeShardJournals({s0, s1});
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("not owned"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);

  std::remove(s0.c_str());
  std::remove(s1.c_str());
  std::remove(unsharded.c_str());
}

// ---- Cross-shard resume -----------------------------------------------------

TEST(ShardTest, InterruptedShardResumesAndMergesByteIdentical) {
  StopFlagGuard guard;
  const std::string ref = tempPath("shard_resume_ref.jsonl");
  const std::string s0 = tempPath("shard_resume0.jsonl");
  const std::string s1 = tempPath("shard_resume1.jsonl");
  runShard(ref, 30, 0, 1);
  runShard(s1, 30, 1, 2);

  // Interrupt shard 0 mid-flight; the partial journal must merge (decided
  // counts only), then the resumed shard must complete the identical bytes.
  std::remove(s0.c_str());
  auto config = tinyConfig(30);
  config.shard.index = 0;
  config.shard.count = 2;
  config.resilience.isolation = cr::IsolationMode::InProcess;
  config.resilience.journalPath = s0;
  config.resilience.journalFlushEvery = 2;
  config.resilience.stopAfterTrials = 5;
  const auto partial = cr::CampaignRunner(probeFactory(), config).run();
  EXPECT_TRUE(partial.interrupted);
  EXPECT_LT(partial.tests.size(), 15u);

  const auto partialMerge = cr::mergeShardJournals({s0, s1});
  EXPECT_FALSE(partialMerge.complete());
  EXPECT_LT(partialMerge.replay.trials.size() + partialMerge.replay.failures.size(),
            30u);

  cr::clearStopFlag();
  config.resilience.stopAfterTrials = 0;
  config.resilience.resumePath = s0;
  const auto resumed = cr::CampaignRunner(probeFactory(), config).run();
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.tests.size(), 15u);

  const auto merge = cr::mergeShardJournals({s0, s1});
  EXPECT_TRUE(merge.complete());
  EXPECT_EQ(cr::renderMergedJournal(merge), readFile(ref));

  std::remove(ref.c_str());
  std::remove(s0.c_str());
  std::remove(s1.c_str());
}

// ---- Status -----------------------------------------------------------------

TEST(ShardTest, StatusSnapshotCarriesShardCoordinates) {
  cr::CampaignStatus status;
  status.app = "probe";
  EXPECT_NE(cr::serializeStatus(status).find("\"shard\":\"0/1\""),
            std::string::npos);
  status.shardIndex = 2;
  status.shardCount = 4;
  EXPECT_NE(cr::serializeStatus(status).find("\"shard\":\"2/4\""),
            std::string::npos);
}
