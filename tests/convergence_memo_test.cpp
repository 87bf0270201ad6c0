// The convergence memo's exactness oracles (docs/INTERNALS.md "Convergence
// memo"): the incremental state digest against a from-scratch digest at
// every iteration end of each app's golden run and of one restart, equal
// digests holding exactly when the bytes are equal across all those states,
// the table's own contract, and one restart's probe of it, in-process and
// over a fork worker's pipe. The campaign-level byte oracle is
// SweepReferenceTest.*, whose reference restarts every trial to its end.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <latch>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "convergence_memo.hpp"
#include "easycrash/apps/registry.hpp"
#include "easycrash/crash/worker_pool.hpp"
#include "easycrash/memsim/nvm_store.hpp"
#include "easycrash/runtime/app.hpp"
#include "wire.hpp"

namespace rt = easycrash::runtime;
namespace cr = easycrash::crash;
namespace ms = easycrash::memsim;

namespace {

/// The tracked bytes a direct-mode runtime holds.
std::string imageBytes(const rt::Runtime& runtime) {
  std::string bytes(runtime.footprintBytes(), '\0');
  runtime.readNvm(0, {reinterpret_cast<std::uint8_t*>(bytes.data()), bytes.size()});
  return bytes;
}

/// Call `visit` at every iteration end of the app's golden run and of one
/// restart from a crash in the middle of the golden run's window, a direct
/// and a restart-kind run with the digest armed before setup, as a
/// campaign runs them. Deterministic, so a second call visits the same
/// states.
void visitStates(const rt::AppFactory& factory, const std::function<void(rt::Runtime&)>& visit) {
  std::uint64_t window = 0;
  int finalIteration = 0;
  {
    rt::Runtime runtime;
    runtime.setRunKind(rt::RunKind::Direct);
    runtime.armStateDigest();
    auto app = factory();
    app->setup(runtime);
    app->initialize(runtime);
    const auto run = rt::Driver::run(*app, runtime, 1, 0, [&](int) {
      visit(runtime);
      return false;
    });
    window = runtime.windowAccesses();
    finalIteration = run.finalIteration;
  }
  std::map<rt::ObjectId, std::vector<std::uint8_t>> snapshots;
  int restartIteration = 0;
  {
    rt::Runtime runtime;
    auto app = factory();
    app->setup(runtime);
    app->initialize(runtime);
    runtime.armCrash(window / 2);
    try {
      (void)rt::Driver::run(*app, runtime, 1, finalIteration);
      FAIL() << "armed crash did not fire";
    } catch (const rt::CrashEvent&) {
      for (const auto& object : runtime.objects()) {
        if (object.candidate) snapshots[object.id] = runtime.dumpObjectNvm(object.id);
      }
      restartIteration = runtime.bookmarkedIterationNvm();
    }
  }
  rt::Runtime runtime;
  runtime.setRunKind(rt::RunKind::Restart);
  runtime.armStateDigest();
  auto app = factory();
  app->setup(runtime);
  app->initialize(runtime);
  for (const auto& [id, bytes] : snapshots) runtime.restoreObject(id, bytes);
  (void)rt::Driver::run(*app, runtime, restartIteration, 2 * finalIteration, [&](int) {
    visit(runtime);
    return false;
  });
}

using DigestPair = std::pair<std::uint64_t, std::uint64_t>;

DigestPair asPair(const ms::Digest128& d) { return {d.lo, d.hi}; }

std::vector<std::string> appNames() {
  std::vector<std::string> names;
  for (const auto& entry : easycrash::apps::allBenchmarks()) names.push_back(entry.name);
  return names;
}

class StateDigestTest : public testing::TestWithParam<std::string> {};

}  // namespace

TEST_P(StateDigestTest, IncrementalDigestIsExactAtEveryIterationEnd) {
  const auto& factory = easycrash::apps::findBenchmark(GetParam()).factory;
  // Pass 1: each state's incremental digest, checked against a from-scratch
  // digest, and a hash of its bytes.
  std::vector<DigestPair> digests;
  std::vector<std::size_t> byteHashes;
  visitStates(factory, [&](rt::Runtime& runtime) {
    const ms::Digest128 digest = runtime.stateDigest();
    EXPECT_EQ(digest, runtime.nvm().digestFromScratch())
        << "state " << digests.size();
    digests.push_back(asPair(digest));
    byteHashes.push_back(std::hash<std::string>{}(imageBytes(runtime)));
  });
  ASSERT_GT(digests.size(), 1u);

  // Pass 2: keep the bytes of every state whose digest or byte hash another
  // state shares — the only states where "equal digests exactly when equal
  // bytes" can fail — and compare them pairwise within each group.
  std::map<DigestPair, std::vector<std::size_t>> byDigest;
  std::map<std::size_t, std::vector<std::size_t>> byHash;
  for (std::size_t i = 0; i < digests.size(); ++i) {
    byDigest[digests[i]].push_back(i);
    byHash[byteHashes[i]].push_back(i);
  }
  std::set<std::size_t> keep;
  for (const auto& [digest, states] : byDigest) {
    if (states.size() > 1) keep.insert(states.begin(), states.end());
  }
  for (const auto& [hash, states] : byHash) {
    if (states.size() > 1) keep.insert(states.begin(), states.end());
  }
  std::map<std::size_t, std::string> bytes;
  std::size_t state = 0;
  visitStates(factory, [&](rt::Runtime& runtime) {
    if (keep.count(state) != 0) bytes[state] = imageBytes(runtime);
    ++state;
  });
  ASSERT_EQ(state, digests.size()) << "the runs are not deterministic";
  for (const std::size_t i : keep) {
    for (const std::size_t j : keep) {
      if (j <= i || (digests[i] != digests[j] && byteHashes[i] != byteHashes[j])) continue;
      EXPECT_EQ(digests[i] == digests[j], bytes[i] == bytes[j])
          << "states " << i << " and " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, StateDigestTest,
                         testing::ValuesIn(appNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(NvmDigestTest, ZeroBlocksHashToZeroAndIndicesSeparateContents) {
  std::vector<std::uint8_t> block(64, 0);
  EXPECT_EQ(ms::blockDigest(3, block.data(), block.size()), ms::Digest128{});
  block[17] = 1;
  EXPECT_NE(ms::blockDigest(3, block.data(), block.size()),
            ms::blockDigest(4, block.data(), block.size()));

  // Growing the image with zeros leaves the digest alone; writing back a
  // block's old bytes restores it.
  ms::NvmStore nvm(64);
  nvm.armDigest();
  const ms::Digest128 empty = nvm.digest();
  std::vector<std::uint8_t> zeros(4096, 0);
  nvm.poke(1 << 21, zeros);
  EXPECT_EQ(nvm.digest(), empty);
  std::vector<std::uint8_t> value(8, 0x5a);
  nvm.poke(100, value);
  const ms::Digest128 written = nvm.digest();
  EXPECT_NE(written, empty);
  nvm.poke(100, {zeros.data(), 8});
  EXPECT_EQ(nvm.digest(), empty);
  nvm.writeBlock(128, {block.data(), 64});
  EXPECT_EQ(nvm.digest(), nvm.digestFromScratch());
}

// ---- The table --------------------------------------------------------------

namespace {

cr::MemoKey key(int iteration, std::uint64_t lo) { return {iteration, {lo, ~lo}}; }

cr::MemoOutcome outcome(cr::Response response, int last, const std::string& note) {
  return {response, 0, last, note};
}

}  // namespace

TEST(MemoTableTest, TheFirstOutcomeOfAKeyStands) {
  cr::MemoTable table;
  EXPECT_FALSE(table.find(key(2, 7)).has_value());
  table.insert({key(2, 7), key(3, 8)}, outcome(cr::Response::S1, 10, "golden"),
               cr::MemoSource::Golden);
  table.insert({key(3, 8), key(4, 9)}, outcome(cr::Response::S4, 20, "trial"),
               cr::MemoSource::Trial);
  EXPECT_EQ(table.size(), 3u);
  const auto hit = table.find(key(3, 8));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->source, cr::MemoSource::Golden);
  EXPECT_EQ(hit->outcome, outcome(cr::Response::S1, 10, "golden"));
  EXPECT_EQ(table.find(key(4, 9))->outcome.note, "trial");
  // The iteration is part of the key.
  EXPECT_FALSE(table.find(key(5, 9)).has_value());
}

TEST(MemoTableTest, KeptBytesExposeADigestCollision) {
  cr::MemoTable table;
  table.insert({key(1, 1)}, outcome(cr::Response::S1, 4, ""), cr::MemoSource::Golden,
               {"state-a"});
  const std::string same = "state-a";
  const std::string other = "state-b";
  EXPECT_TRUE(table.find(key(1, 1), &same).has_value());
  EXPECT_THROW((void)table.find(key(1, 1), &other), std::logic_error);
  EXPECT_THROW(table.insert({key(1, 1)}, outcome(cr::Response::S1, 4, ""),
                            cr::MemoSource::Trial, {"state-b"}),
               std::logic_error);
}

// ---- The probe: one restart's view of the table ----------------------------

TEST(MemoProbeTest, MissesJoinTheTrailInOrderAndDecideInsertsOnlyThem) {
  cr::MemoTable table;
  table.insert({key(6, 60)}, outcome(cr::Response::S1, 10, "golden"),
               cr::MemoSource::Golden);
  cr::MemoProbe probe(table, 2, 12);
  EXPECT_FALSE(probe.lookup(key(2, 20)).has_value());
  EXPECT_FALSE(probe.lookup(key(4, 40)).has_value());
  EXPECT_EQ(probe.trail(), (std::vector<cr::MemoKey>{key(2, 20), key(4, 40)}));
  const auto hit = probe.lookup(key(6, 60));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->source, cr::MemoSource::Golden);
  EXPECT_EQ(hit->outcome, outcome(cr::Response::S1, 10, "golden"));
  EXPECT_THROW((void)probe.lookup(key(8, 80)), std::runtime_error) << "a key after a hit";
  EXPECT_EQ(table.size(), 1u) << "nothing lands before the restart is decided";
  probe.decide(outcome(cr::Response::S1, 10, "golden"));
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.find(key(2, 20))->source, cr::MemoSource::Trial);
  EXPECT_EQ(table.find(key(4, 40))->outcome, outcome(cr::Response::S1, 10, "golden"));
  EXPECT_FALSE(table.find(key(8, 80)).has_value());
}

TEST(MemoProbeTest, KeysOutsideTheRestartOrNotAdvancingAreRefused) {
  cr::MemoTable table;
  cr::MemoProbe probe(table, 3, 6);
  EXPECT_THROW((void)probe.lookup(key(2, 1)), std::runtime_error) << "before the bookmark";
  EXPECT_THROW((void)probe.lookup(key(7, 1)), std::runtime_error) << "past the cap";
  EXPECT_FALSE(probe.lookup(key(3, 1)).has_value());
  EXPECT_THROW((void)probe.lookup(key(3, 2)), std::runtime_error) << "the same iteration";
  EXPECT_FALSE(probe.lookup(key(5, 3)).has_value());
  EXPECT_THROW((void)probe.lookup(key(4, 4)), std::runtime_error) << "going back";
  EXPECT_FALSE(probe.lookup(key(6, 5)).has_value());
  EXPECT_EQ(probe.trail(), (std::vector<cr::MemoKey>{key(3, 1), key(5, 3), key(6, 5)}));
}

TEST(MemoProbeTest, ADiscardedProbeInsertsNothing) {
  cr::MemoTable table;
  {
    cr::MemoProbe probe(table, 1, 8);
    EXPECT_FALSE(probe.lookup(key(2, 1)).has_value());
    EXPECT_FALSE(probe.lookup(key(4, 2)).has_value());
  }  // the attempt failed: never decided
  EXPECT_EQ(table.size(), 0u);
}

TEST(MemoProbeTest, WithoutTrialMatchesOnlyGoldenEntriesHit) {
  const cr::MemoSeams saved = cr::memoSeams();
  cr::setMemoSeams({.trialMatches = false});
  cr::MemoTable table;
  table.insert({key(2, 1)}, outcome(cr::Response::S4, 9, "trial"), cr::MemoSource::Trial);
  table.insert({key(4, 2)}, outcome(cr::Response::S1, 9, "golden"), cr::MemoSource::Golden);
  cr::MemoProbe probe(table, 1, 9);
  cr::setMemoSeams(saved);
  EXPECT_FALSE(probe.lookup(key(2, 1)).has_value());
  EXPECT_EQ(probe.lookup(key(4, 2))->source, cr::MemoSource::Golden);
  EXPECT_EQ(probe.trail(), std::vector<cr::MemoKey>{key(2, 1)});
  probe.decide(outcome(cr::Response::S1, 9, "golden"));
  EXPECT_EQ(table.find(key(2, 1))->outcome.note, "trial") << "the first outcome stands";
}

// ---- Pending keys: concurrent restarts share one trajectory -----------------

using namespace std::chrono_literals;

TEST(MemoProbeTest, AWaiterGetsTheOwnersOutcomeAsATrialHit) {
  cr::MemoTable table;
  cr::MemoProbe owner(table, 2, 10);
  EXPECT_FALSE(owner.lookup(key(4, 40)).has_value());
  EXPECT_FALSE(table.find(key(4, 40)).has_value()) << "a pending key is not found";
  EXPECT_EQ(table.size(), 0u) << "nor counted";
  cr::MemoProbe waiter(table, 3, 10);
  EXPECT_FALSE(waiter.lookup(key(3, 30)).has_value());
  auto hit = std::async(std::launch::async, [&waiter] { return waiter.lookup(key(4, 40)); });
  EXPECT_EQ(hit.wait_for(50ms), std::future_status::timeout) << "the waiter waits";
  owner.decide(outcome(cr::Response::S2, 9, "owner"));
  const std::optional<cr::MemoHit> got = hit.get();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->source, cr::MemoSource::Trial);
  EXPECT_EQ(got->outcome, outcome(cr::Response::S2, 9, "owner"));
  EXPECT_EQ(waiter.trail(), std::vector<cr::MemoKey>{key(3, 30)});
  waiter.decide(got->outcome);
  EXPECT_EQ(table.size(), 2u);
}

TEST(MemoProbeTest, ADiscardedOwnerReleasesItsWaiterWhichThenOwnsTheKey) {
  cr::MemoTable table;
  std::optional<cr::MemoProbe> owner;
  owner.emplace(table, 2, 10);
  EXPECT_FALSE(owner->lookup(key(4, 40)).has_value());
  cr::MemoProbe waiter(table, 4, 10);
  auto missed = std::async(std::launch::async, [&waiter] { return waiter.lookup(key(4, 40)); });
  EXPECT_EQ(missed.wait_for(50ms), std::future_status::timeout) << "the waiter waits";
  owner.reset();  // the owner's attempt failed
  EXPECT_FALSE(missed.get().has_value()) << "the key is free again: a miss";
  EXPECT_EQ(waiter.trail(), std::vector<cr::MemoKey>{key(4, 40)});
  // The waiter now owns the key: a third restart waits on it in turn.
  cr::MemoProbe third(table, 4, 10);
  auto hit = std::async(std::launch::async, [&third] { return third.lookup(key(4, 40)); });
  EXPECT_EQ(hit.wait_for(50ms), std::future_status::timeout) << "the third restart waits";
  waiter.decide(outcome(cr::Response::S1, 10, "waiter"));
  const std::optional<cr::MemoHit> got = hit.get();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->outcome.note, "waiter");
}

TEST(MemoProbeTest, WithoutTrialMatchesAProbeNeverWaits) {
  cr::MemoTable table;
  std::optional<cr::MemoProbe> owner;
  owner.emplace(table, 2, 10);
  EXPECT_FALSE(owner->lookup(key(4, 40)).has_value());
  const cr::MemoSeams saved = cr::memoSeams();
  cr::setMemoSeams({.trialMatches = false});
  cr::MemoProbe probe(table, 4, 10);
  cr::setMemoSeams(saved);
  auto missed = std::async(std::launch::async, [&probe] { return probe.lookup(key(4, 40)); });
  const bool answered = missed.wait_for(5s) == std::future_status::ready;
  owner.reset();  // frees a lookup that waited after all
  EXPECT_TRUE(answered) << "a probe without trial matches waited on a pending key";
  EXPECT_FALSE(missed.get().has_value());
  EXPECT_EQ(probe.waited().count(), 0);
}

TEST(MemoProbeTest, EightLanesOnOneTrajectoryComputeEachKeyOnce) {
  // Eight restarts join one trajectory at staggered iterations and race
  // along it: every key is computed (missed) by exactly one of them, one
  // runs it out, and the others stop on a trial hit with its outcome.
  constexpr int kLanes = 8;
  constexpr int kLast = 63;
  const cr::MemoOutcome end = outcome(cr::Response::S1, kLast, "end");
  for (int round = 0; round < 20; ++round) {
    const auto firstOf = [round](int lane) { return (lane * 5 + round) % 16; };
    cr::MemoTable table;
    std::array<std::atomic<int>, kLast + 1> computed{};
    std::atomic<int> ranOut{0};
    std::atomic<int> wrongHits{0};
    std::latch start(kLanes);
    std::vector<std::thread> lanes;
    int least = kLast;
    for (int lane = 0; lane < kLanes; ++lane) {
      least = std::min(least, firstOf(lane));
      lanes.emplace_back([&, first = firstOf(lane)] {
        cr::MemoProbe probe(table, first, kLast);
        start.arrive_and_wait();
        std::optional<cr::MemoHit> hit;
        for (int i = first; i <= kLast && !hit; ++i) {
          hit = probe.lookup(key(i, 1000 + static_cast<std::uint64_t>(i)));
          if (!hit) {
            computed[static_cast<std::size_t>(i)].fetch_add(1);
            std::this_thread::yield();
          }
        }
        if (!hit) {
          ranOut.fetch_add(1);
        } else if (hit->source != cr::MemoSource::Trial || !(hit->outcome == end)) {
          wrongHits.fetch_add(1);
        }
        probe.decide(end);
      });
    }
    for (auto& lane : lanes) lane.join();
    SCOPED_TRACE("round " + std::to_string(round));
    for (int i = 0; i <= kLast; ++i) {
      EXPECT_EQ(computed[static_cast<std::size_t>(i)].load(), i < least ? 0 : 1)
          << "key at iteration " << i;
    }
    EXPECT_EQ(ranOut.load(), 1);
    EXPECT_EQ(wrongHits.load(), 0);
    EXPECT_EQ(table.size(), static_cast<std::size_t>(kLast + 1 - least));
  }
}

// ---- The 'k' exchange: a fork worker asks the parent's probe -----------------
//
// A fake worker in a real WorkerPool plays the restart's side; the test plays
// the parent's with the same answerMemoQueries the fork evaluator uses, which
// turns its throw into a protocol death (the worker is killed and the probe
// discarded).

namespace {

/// The parent's side of one restart request: answer the worker's queries
/// through `probe` until it sends another frame.
std::string answerWorker(cr::WorkerPool& pool, cr::MemoProbe& probe,
                         std::chrono::milliseconds limit = 10s) {
  return cr::answerMemoQueries(
      probe, limit,
      [&pool](std::chrono::milliseconds within) {
        cr::WorkerPool::Reply reply = pool.recv(0, within);
        if (!reply.ok) throw std::runtime_error(reply.timedOut ? "timeout" : "worker died");
        return reply.frame;
      },
      [&pool](const std::string& answer) { (void)pool.send(0, answer); });
}

std::string queryFrame(std::int64_t iteration) {
  cr::WireWriter w;
  w.u8('k');
  w.i64(iteration);
  w.u64(7);
  w.u64(~std::uint64_t{7});
  return w.take();
}

/// "ask": a miss at 3, then the table's entry at 5, then a reply naming
/// what came back; "ask slowly" works 50 ms more before replying. Any other
/// request sends that request's bytes as a raw query after a miss at 3, and
/// waits for an answer that never comes.
void fakeWorker(int, const std::string& request, const cr::WorkerPool::ChildChannel& ch) {
  const bool miss = !cr::askParentMemo(ch, key(3, 30)).has_value();
  if (request != "ask" && request != "ask slowly") {
    ch.send(request);
    std::string answer;
    (void)ch.recv(answer);
    ch.send("answered");
    return;
  }
  const auto hit = cr::askParentMemo(ch, key(5, 50));
  const bool trialHit = hit && hit->source == cr::MemoSource::Trial &&
                        hit->outcome == outcome(cr::Response::S2, 9, "trial");
  if (request == "ask slowly") std::this_thread::sleep_for(50ms);
  ch.send(std::string("r") + (miss ? "M" : "?") + (trialHit ? "H" : "?"));
}

}  // namespace

TEST(MemoProbeTest, AForkWorkerAsksTheParentsProbeAtEachCheck) {
  cr::MemoTable table;
  table.insert({key(5, 50)}, outcome(cr::Response::S2, 9, "trial"), cr::MemoSource::Trial);
  cr::WorkerPool pool(1, 4096, fakeWorker);
  ASSERT_TRUE(pool.send(0, "ask"));
  cr::MemoProbe probe(table, 3, 6);
  EXPECT_EQ(answerWorker(pool, probe), "rMH");
  EXPECT_EQ(probe.trail(), std::vector<cr::MemoKey>{key(3, 30)});
  probe.decide(outcome(cr::Response::S2, 9, "trial"));
  EXPECT_EQ(table.size(), 2u);
}

TEST(MemoProbeTest, AForkLaneWaitingOnASlowOwnerStillDecidesWithoutATimeout) {
  // The attempt's deadline is 300 ms, and another restart owns the key its
  // worker reaches at 5 for 700 ms. The lane's wait is not the worker's
  // time: the attempt still decides, with the owner's outcome.
  cr::MemoTable table;
  cr::MemoProbe owner(table, 5, 6);
  ASSERT_FALSE(owner.lookup(key(5, 50)).has_value());
  cr::WorkerPool pool(1, 4096, fakeWorker);
  ASSERT_TRUE(pool.send(0, "ask slowly"));
  auto decided = std::async(std::launch::async, [&owner] {
    std::this_thread::sleep_for(700ms);
    owner.decide(outcome(cr::Response::S2, 9, "trial"));
  });
  cr::MemoProbe probe(table, 3, 6);
  std::string reply;
  EXPECT_NO_THROW(reply = answerWorker(pool, probe, 300ms));
  decided.get();
  EXPECT_EQ(reply, "rMH");
  EXPECT_GT(probe.waited().count(), 0);
}

TEST(MemoProbeTest, AMalformedOrOutOfRangeQueryLandsNothing) {
  cr::MemoTable table;
  cr::WorkerPool pool(1, 4096, fakeWorker);
  const std::string truncated = queryFrame(4).substr(0, 12);
  for (const std::string& query : {truncated, queryFrame(7), queryFrame(3), queryFrame(2),
                                   queryFrame(std::int64_t{1} << 40)}) {
    ASSERT_TRUE(pool.ensureWorker(0));
    ASSERT_TRUE(pool.send(0, query));
    cr::MemoProbe probe(table, 3, 6);
    EXPECT_THROW((void)answerWorker(pool, probe), std::runtime_error)
        << "query of " << query.size() << " bytes";
    EXPECT_EQ(probe.trail().size(), 1u) << "the miss at 3 was answered";
    pool.kill(0);
    EXPECT_EQ(table.size(), 0u);
  }
}

TEST(MemoStrideTest, TheStrideFollowsTheBlocksWrittenPerAccess) {
  // Cheap digests check every iteration; dearer ones spread checks out;
  // past the limit the memo is off. Long runs are held to a bounded number
  // of checks.
  EXPECT_EQ(cr::memoStride(10, 200000.0, 1000.0), 1);
  EXPECT_EQ(cr::memoStride(24, 100000.0, 1400.0), 2);
  EXPECT_EQ(cr::memoStride(30, 50000.0, 1000.0), 0);
  EXPECT_EQ(cr::memoStride(4096, 100000.0, 10.0), 64);
  EXPECT_EQ(cr::memoStride(1, 1000.0, 0.0), 1);
  EXPECT_EQ(cr::memoStride(0, 1000.0, 0.0), 0);
  // The golden run keys a multiple of the stride, spaced out by the cost
  // of hashing its whole footprint.
  EXPECT_EQ(cr::goldenKeyStride(1, 200000.0, 500.0), 1);
  EXPECT_EQ(cr::goldenKeyStride(1, 200000.0, 1800.0), 2);
  EXPECT_EQ(cr::goldenKeyStride(2, 1000000.0, 38000.0), 8);
  EXPECT_EQ(cr::goldenKeyStride(0, 1000.0, 100.0), 0);
}
