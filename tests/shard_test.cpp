// Tests for the shard-journal fold (src/crash/shard.cpp), kept for
// nvbench's merge replay: merging shard journals split from one campaign
// reproduces its journal byte for byte — in any merge order, idempotently,
// from any subset — and journals of different campaigns, foreign trials and
// tampered fingerprints are rejected loudly. Campaigns no longer shard, so
// the shard journals are split from an unsharded campaign's journal
// (journal_fixtures.hpp).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/crash/shard.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/runtime/tracked.hpp"
#include "journal_fixtures.hpp"

namespace rt = easycrash::runtime;
namespace cr = easycrash::crash;
namespace ms = easycrash::memsim;
namespace fx = easycrash::fixtures;

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
  rt::AppInfo info_{"shard-probe", "shard-journal fold test app"};
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

/// Run the probe campaign unsharded, journaled to `path`, and split its
/// journal into `k` shard journals. Returns the shard journals' paths.
std::vector<std::string> shardJournals(const std::string& path, int tests, int k,
                                       std::uint64_t seed = 1) {
  std::remove(path.c_str());
  auto config = tinyConfig(tests);
  config.seed = seed;
  config.resilience.isolation = cr::IsolationMode::InProcess;
  config.resilience.journalPath = path;
  const auto campaign = cr::CampaignRunner(probeFactory(), config).run();
  return fx::splitIntoShardJournals(path, campaign.golden, k);
}

void removeAll(const std::vector<std::string>& paths) {
  for (const auto& path : paths) std::remove(path.c_str());
}

}  // namespace

// ---- Campaign fingerprint -------------------------------------------------

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

// Every shard journal stamps this hash and readJournal recomputes it, so a
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

TEST(ShardTest, MergeIsCommutativeAndIdempotent) {
  const std::string ref = tempPath("shard_ci.jsonl");
  const auto paths = shardJournals(ref, 21, 3);
  const std::string forward =
      cr::renderMergedJournal(cr::mergeShardJournals(paths));
  // The fold reproduces the unsharded campaign's journal.
  EXPECT_EQ(forward, fx::readFile(ref));
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

  removeAll(paths);
  std::remove(ref.c_str());
  std::remove(mergedPath.c_str());
}

// ---- Merge property -----------------------------------------------------------

TEST(ShardTest, MergeOfAnySplitEqualsTheUnshardedCompaction) {
  // Property: for k in [1, 5] shard journals of one synthetic decided set,
  // merged in any order and from any subset, the merged journal equals the
  // unsharded compaction of the union of the merged shards.
  std::mt19937_64 rng(4242);
  const std::string unsharded = tempPath("merge_property_union.jsonl");
  for (int round = 0; round < 12; ++round) {
    const fx::DecidedSet set = fx::randomDecidedSet(rng);
    cr::JournalHeader plain = set.header;
    plain.candidates.clear();
    fx::journalSet(set, plain, unsharded, rng, [](std::size_t) { return true; }, true);
    const std::string whole = fx::readFile(unsharded);
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
        fx::journalSet(set, header, paths.back(), rng,
                   [&](std::size_t t) { return static_cast<int>(t) % k == i; },
                   rng() % 2 == 0);
      }
      std::shuffle(paths.begin(), paths.end(), rng);
      const auto merge = cr::mergeShardJournals(paths);
      EXPECT_EQ(cr::renderMergedJournal(merge), whole) << "round " << round << " k=" << k;

      // A random non-empty subset merges to the compaction of its union.
      std::vector<std::string> subset;
      std::set<int> shards;
      for (std::size_t p = 0; p < paths.size(); ++p) {
        if (rng() % 2 == 0 || (subset.empty() && p + 1 == paths.size())) {
          subset.push_back(paths[p]);
          shards.insert(cr::readJournal(paths[p]).header.shardIndex);
        }
      }
      fx::journalSet(set, plain, unsharded, rng,
                     [&](std::size_t t) { return shards.count(static_cast<int>(t) % k) > 0; },
                     true);
      EXPECT_EQ(cr::renderMergedJournal(cr::mergeShardJournals(subset)),
                fx::readFile(unsharded))
          << "round " << round << " k=" << k << " subset of " << subset.size();
      for (const auto& path : paths) std::remove(path.c_str());
    }
  }
  std::remove(unsharded.c_str());
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
  std::remove(failed.c_str());
  std::remove(decided.c_str());
}

// ---- Rejection --------------------------------------------------------------

TEST(ShardTest, MergeRejectsJournalsFromDifferentCampaigns) {
  const std::string a = tempPath("shard_seed1.jsonl");
  const std::string b = tempPath("shard_seed99.jsonl");
  const auto first = shardJournals(a, 20, 2);
  const auto other = shardJournals(b, 20, 2, 99);  // different campaign
  EXPECT_THROW(
      {
        try {
          (void)cr::mergeShardJournals({first[0], other[1]});
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  removeAll(first);
  removeAll(other);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(ShardTest, MergeRejectsTamperedCampaignFingerprint) {
  const std::string ref = tempPath("shard_tamper.jsonl");
  const auto paths = shardJournals(ref, 20, 2);
  const std::string& path = paths[0];
  std::string bytes = fx::readFile(path);
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
  removeAll(paths);
  std::remove(ref.c_str());
}

TEST(ShardTest, MergeRejectsForeignTrialsAndMixedShardCounts) {
  const std::string unsharded = tempPath("shard_mix.jsonl");
  const auto paths = shardJournals(unsharded, 20, 2);
  const std::string& s0 = paths[0];
  const std::string& s1 = paths[1];

  // A sharded and an unsharded journal never merge.
  EXPECT_THROW((void)cr::mergeShardJournals({s0, unsharded}), std::runtime_error);

  // Relabel shard 1's journal as shard 0: its trials (odd indices) are not
  // owned by shard 0, so the ownership check fires. The campaign fingerprint
  // deliberately ignores shard coordinates — this is exactly the mis-copied
  // journal it cannot catch, and the ownership check must.
  std::string bytes = fx::readFile(s1);
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

  removeAll(paths);
  std::remove(unsharded.c_str());
}
