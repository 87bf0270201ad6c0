// Tests for the tracked-memory runtime: object registry, tracked accessors,
// persistence API, region markers, plan execution and crash injection.
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/runtime/app.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/runtime/tracked.hpp"

namespace rt = easycrash::runtime;
namespace ms = easycrash::memsim;

namespace {

rt::Runtime makeRuntime() { return rt::Runtime(ms::CacheConfig::tiny()); }

}  // namespace

TEST(Registry, AllocationsAreBlockAligned) {
  auto runtime = makeRuntime();
  const auto a = runtime.allocate("a", 10, true);
  const auto b = runtime.allocate("b", 100, true);
  EXPECT_EQ(runtime.object(a).addr % 64, 0u);
  EXPECT_EQ(runtime.object(b).addr % 64, 0u);
  EXPECT_GE(runtime.object(b).addr, runtime.object(a).addr + 64);
}

TEST(Registry, DuplicateNamesRejected) {
  auto runtime = makeRuntime();
  (void)runtime.allocate("x", 8, true);
  EXPECT_THROW((void)runtime.allocate("x", 8, true), std::logic_error);
}

TEST(Registry, FindObjectByName) {
  auto runtime = makeRuntime();
  const auto id = runtime.allocate("needle", 8, false);
  EXPECT_EQ(runtime.findObject("needle"), id);
  EXPECT_FALSE(runtime.findObject("missing").has_value());
}

TEST(Registry, CandidateFiltering) {
  auto runtime = makeRuntime();
  (void)runtime.allocate("cand", 8, true);
  (void)runtime.allocate("temp", 8, false);
  const auto candidates = runtime.candidateObjects();
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(runtime.object(candidates[0]).name, "cand");
}

TEST(Registry, FootprintGrowsWithAllocations) {
  auto runtime = makeRuntime();
  const auto before = runtime.footprintBytes();
  (void)runtime.allocate("big", 1000, true);
  EXPECT_GE(runtime.footprintBytes(), before + 1000);
}

TEST(Registry, ZeroByteAllocationRejected) {
  auto runtime = makeRuntime();
  EXPECT_THROW((void)runtime.allocate("empty", 0, true), std::logic_error);
}

TEST(TrackedArrayTest, GetSetRoundTrip) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 16, true);
  a.set(3, 2.5);
  EXPECT_DOUBLE_EQ(a.get(3), 2.5);
  EXPECT_DOUBLE_EQ(a.peek(3), 2.5);
}

TEST(TrackedArrayTest, ProxyAssignmentAndCompound) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 8, true);
  a[0] = 4.0;
  a[0] += 1.0;
  a[0] *= 2.0;
  a[0] -= 3.0;
  a[0] /= 7.0;
  EXPECT_DOUBLE_EQ(a.get(0), 1.0);
}

TEST(TrackedArrayTest, ProxyToProxyAssignment) {
  auto runtime = makeRuntime();
  rt::TrackedArray<int> a(runtime, "a", 4, true);
  a.set(0, 9);
  a[1] = a[0];
  EXPECT_EQ(a.get(1), 9);
}

TEST(TrackedArrayTest, OutOfBoundsThrows) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 4, true);
  EXPECT_THROW((void)a.get(4), std::logic_error);
  EXPECT_THROW(a.set(100, 1.0), std::logic_error);
}

TEST(TrackedScalarTest, RoundTrip) {
  auto runtime = makeRuntime();
  rt::TrackedScalar<double> s(runtime, "s", true);
  s.set(3.14);
  EXPECT_DOUBLE_EQ(s.get(), 3.14);
  EXPECT_DOUBLE_EQ(s.peek(), 3.14);
}

TEST(Persistence, PersistThenCrashKeepsValues) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 32, true);
  for (int i = 0; i < 32; ++i) a.set(i, i * 1.5);
  runtime.persistObject(a.id());
  runtime.powerLoss();
  for (int i = 0; i < 32; ++i) EXPECT_DOUBLE_EQ(a.peek(i), i * 1.5);
}

TEST(Persistence, UnpersistedValuesMayBeLost) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 4, true);  // fits in the cache
  a.set(0, 7.0);
  runtime.powerLoss();
  EXPECT_DOUBLE_EQ(a.peek(0), 0.0) << "dirty cached value must not survive";
}

TEST(Persistence, DumpAndRestoreRoundTrip) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 16, true);
  for (int i = 0; i < 16; ++i) a.set(i, i + 0.25);
  runtime.persistObject(a.id());
  const auto dump = runtime.dumpObjectNvm(a.id());

  auto runtime2 = makeRuntime();
  rt::TrackedArray<double> b(runtime2, "a", 16, true);
  runtime2.restoreObject(b.id(), dump);
  for (int i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(b.get(i), i + 0.25);
}

TEST(Persistence, RestoreSizeMismatchThrows) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 16, true);
  std::vector<std::uint8_t> wrong(8, 0);
  EXPECT_THROW(runtime.restoreObject(a.id(), wrong), std::logic_error);
}

TEST(Persistence, DumpCurrentSeesCachedValues) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 2, true);
  a.set(0, 42.0);  // dirty, not in NVM
  const auto nvm = runtime.dumpObjectNvm(a.id());
  const auto current = runtime.dumpObjectCurrent(a.id());
  EXPECT_NE(nvm, current);
  double v = 0;
  std::memcpy(&v, current.data(), 8);
  EXPECT_DOUBLE_EQ(v, 42.0);
}

TEST(Persistence, InconsistentRateReflectsDirtyBytes) {
  auto runtime = makeRuntime();
  rt::TrackedArray<std::uint64_t> a(runtime, "a", 8, true);  // one cache block
  EXPECT_DOUBLE_EQ(runtime.inconsistentRate(a.id()), 0.0);
  // Values with no zero bytes: every byte differs from the zeroed NVM image
  // (the rate counts *differing* bytes, per the paper's definition).
  for (int i = 0; i < 8; ++i) a.set(i, ~static_cast<std::uint64_t>(i));
  EXPECT_DOUBLE_EQ(runtime.inconsistentRate(a.id()), 1.0);
  runtime.persistObject(a.id());
  EXPECT_DOUBLE_EQ(runtime.inconsistentRate(a.id()), 0.0);
}

TEST(Persistence, InconsistentRateCountsOnlyDifferingBytes) {
  auto runtime = makeRuntime();
  rt::TrackedArray<std::uint64_t> a(runtime, "a", 8, true);
  a.set(0, 0x00000000000000FFULL);  // one byte differs from the zero image
  EXPECT_NEAR(runtime.inconsistentRate(a.id()), 1.0 / 64.0, 1e-12);
}

TEST(Bookmark, SurvivesCrash) {
  auto runtime = makeRuntime();
  runtime.bookmarkIteration(17);
  runtime.powerLoss();
  EXPECT_EQ(runtime.bookmarkedIterationNvm(), 17);
}

TEST(Regions, BalancedMarkersTrackActiveRegion) {
  auto runtime = makeRuntime();
  EXPECT_EQ(runtime.activeRegion(), rt::kMainLoopEnd);
  runtime.beginRegion(2);
  EXPECT_EQ(runtime.activeRegion(), 2);
  runtime.endRegion(2);
  EXPECT_EQ(runtime.activeRegion(), rt::kMainLoopEnd);
}

TEST(Regions, UnbalancedEndThrows) {
  auto runtime = makeRuntime();
  runtime.beginRegion(1);
  EXPECT_THROW(runtime.endRegion(2), std::logic_error);
}

TEST(Regions, IterationEndOutsideRegionThrows) {
  auto runtime = makeRuntime();
  EXPECT_THROW(runtime.regionIterationEnd(0), std::logic_error);
}

TEST(Regions, IterationEndsAreCounted) {
  auto runtime = makeRuntime();
  runtime.beginRegion(0);
  runtime.regionIterationEnd(0);
  runtime.regionIterationEnd(0);
  runtime.endRegion(0);
  runtime.mainLoopIterationEnd(1);
  EXPECT_EQ(runtime.regionIterationEnds().at(0), 2u);
  EXPECT_EQ(runtime.regionIterationEnds().at(rt::kMainLoopEnd), 1u);
}

TEST(Plans, EveryNControlsFlushFrequency) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 8, true);
  rt::PersistencePlan plan;
  rt::PersistDirective d;
  d.objects = {a.id()};
  d.everyN = 2;
  plan.points[0] = d;
  runtime.setPlan(plan);

  runtime.beginRegion(0);
  a.set(0, 1.0);
  runtime.regionIterationEnd(0);  // 1st: no flush
  EXPECT_GT(runtime.inconsistentRate(a.id()), 0.0);
  runtime.regionIterationEnd(0);  // 2nd: flush
  EXPECT_DOUBLE_EQ(runtime.inconsistentRate(a.id()), 0.0);
  runtime.endRegion(0);
  EXPECT_EQ(runtime.persistenceOps(), 1u);
}

TEST(Plans, AtRegionEndFlushesOnExit) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 8, true);
  rt::PersistencePlan plan;
  rt::PersistDirective d;
  d.objects = {a.id()};
  d.everyN = 0;
  d.atRegionEnd = true;
  plan.points[3] = d;
  runtime.setPlan(plan);

  runtime.beginRegion(3);
  a.set(0, 5.0);
  runtime.endRegion(3);
  EXPECT_DOUBLE_EQ(runtime.inconsistentRate(a.id()), 0.0);
}

TEST(Plans, MainLoopEndDirective) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 8, true);
  runtime.setPlan(rt::PersistencePlan::atMainLoopEnd({a.id()}));
  a.set(0, 2.0);
  runtime.mainLoopIterationEnd(1);
  EXPECT_DOUBLE_EQ(runtime.inconsistentRate(a.id()), 0.0);
}

TEST(CrashInjection, FiresAtExactAccessIndex) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 64, true);
  runtime.setCrashWindow(true);
  runtime.armCrash(10);
  int performed = 0;
  try {
    for (int i = 0; i < 64; ++i) {
      a.set(i, 1.0);
      ++performed;
    }
    FAIL() << "crash did not fire";
  } catch (const rt::CrashEvent& crash) {
    EXPECT_EQ(crash.accessIndex, 10u);
    EXPECT_EQ(performed, 9);  // the 10th access threw after completing
  }
}

TEST(CrashInjection, OnlyWindowAccessesTick) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 64, true);
  runtime.armCrash(5);
  for (int i = 0; i < 20; ++i) a.set(i, 1.0);  // window inactive: no crash
  EXPECT_EQ(runtime.windowAccesses(), 0u);
  runtime.setCrashWindow(true);
  EXPECT_THROW(
      {
        for (int i = 0; i < 10; ++i) a.set(i, 2.0);
      },
      rt::CrashEvent);
}

TEST(CrashInjection, RegionAttribution) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 64, true);
  runtime.setCrashWindow(true);
  runtime.armCrash(3);
  runtime.beginRegion(7);
  try {
    for (int i = 0; i < 10; ++i) a.set(i, 1.0);
    FAIL();
  } catch (const rt::CrashEvent& crash) {
    EXPECT_EQ(crash.activeRegion, 7);
  }
  runtime.endRegion(7);
}

TEST(CrashInjection, DisarmPreventsCrash) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 64, true);
  runtime.setCrashWindow(true);
  runtime.armCrash(5);
  runtime.disarmCrash();
  for (int i = 0; i < 20; ++i) a.set(i, 1.0);  // must not throw
  EXPECT_EQ(runtime.windowAccesses(), 20u);
}

TEST(CrashInjection, PastIndexRejected) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 8, true);
  runtime.setCrashWindow(true);
  a.set(0, 1.0);
  EXPECT_THROW(runtime.armCrash(1), std::logic_error);
  EXPECT_THROW(runtime.armCrash(0), std::logic_error);
}

TEST(RegionScopeTest, RaiiBalancesOnException) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 64, true);
  runtime.setCrashWindow(true);
  runtime.armCrash(2);
  try {
    rt::RegionScope scope(runtime, 4);
    for (int i = 0; i < 10; ++i) a.set(i, 1.0);
  } catch (const rt::CrashEvent&) {
    // RegionScope's destructor ran during unwinding.
  }
  EXPECT_EQ(runtime.activeRegion(), rt::kMainLoopEnd);
}

TEST(RegionAccounting, AccessesAttributedToRegions) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 64, true);
  runtime.setCrashWindow(true);
  {
    rt::RegionScope scope(runtime, 0);
    for (int i = 0; i < 10; ++i) a.set(i, 1.0);
  }
  {
    rt::RegionScope scope(runtime, 1);
    for (int i = 0; i < 30; ++i) a.set(i, 2.0);
  }
  runtime.setCrashWindow(false);
  EXPECT_EQ(runtime.regionAccesses().at(0), 10u);
  EXPECT_EQ(runtime.regionAccesses().at(1), 30u);
  EXPECT_EQ(runtime.windowAccesses(), 40u);
}

// ---- Inline crash clock ------------------------------------------------------

// The clock charges each access through a pointer cached into the per-region
// counter vector. A region with a new, higher PointId begun inside the crash
// window grows (reallocates) that vector mid-window; every later access must
// still land in the live slot, element-wise and bulk alike.
TEST(CrashClock, RegionSlotGrowthInsideTheWindowKeepsCounting) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 64, true);
  std::vector<double> src(40, 1.0);
  runtime.setCrashWindow(true);
  for (int i = 0; i < 2; ++i) a.set(i, 1.0);  // main loop: 2
  runtime.beginRegion(0);
  for (int i = 0; i < 5; ++i) a.set(i, 1.0);  // region 0: 5
  runtime.beginRegion(500);                   // grows the slot vector
  for (int i = 0; i < 7; ++i) a.set(i, 1.0);  // region 500: 7 + 40
  a.writeRange(0, 40, src.data());
  runtime.endRegion(500);
  for (int i = 0; i < 3; ++i) (void)a.get(i);  // region 0: 3 more
  runtime.endRegion(0);
  runtime.beginRegion(4000);                   // grows it again
  a.readRange(0, 9, src.data());               // region 4000: 9
  runtime.endRegion(4000);
  for (int i = 0; i < 4; ++i) a.set(i, 1.0);  // main loop: 4 more
  runtime.setCrashWindow(false);
  for (int i = 0; i < 6; ++i) a.set(i, 1.0);  // outside the window: uncounted
  const std::map<rt::PointId, std::uint64_t> expected{
      {rt::kMainLoopEnd, 6}, {0, 8}, {500, 47}, {4000, 9}};
  EXPECT_EQ(runtime.regionAccesses(), expected);
  EXPECT_EQ(runtime.windowAccesses(), 6u + 8u + 47u + 9u);
}

// A fault, a capture and a crash armed at one index fire in that order — the
// fault first (it is process-fatal), the capture before the crash — and the
// single next-trigger compare is recomputed on every disarm and re-arm.
TEST(CrashClock, FaultCaptureCrashAtOneIndexFireInOrder) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 64, true);
  std::vector<std::string> fired;
  const auto note = [&](const char* what) {
    fired.push_back(std::string(what) + "@" + std::to_string(runtime.windowAccesses()));
  };
  const auto capture = [&](const rt::CrashEvent&) { note("capture"); };
  const auto runUntilCrash = [&](int maxAccesses) {
    try {
      for (int i = 0; i < maxAccesses; ++i) a.set(i % 64, 1.0);
    } catch (const rt::CrashEvent& crash) {
      fired.push_back("crash@" + std::to_string(crash.accessIndex));
    }
  };
  runtime.setCrashWindow(true);

  runtime.armCrash(10);
  runtime.armCaptures({10}, capture);
  runtime.armFault(10, [&] { note("fault"); });
  runUntilCrash(100);
  EXPECT_EQ(fired, (std::vector<std::string>{"fault@10", "capture@10", "crash@10"}));

  // Disarmed triggers must not fire; re-armed ones fire in the same order.
  fired.clear();
  runtime.armCrash(14);
  runtime.armCaptures({14}, capture);
  runtime.disarmCrash();
  runtime.disarmCaptures();
  for (int i = 0; i < 6; ++i) a.set(i, 1.0);  // clock 10 -> 16
  EXPECT_TRUE(fired.empty());
  runtime.armFault(20, [&] { note("fault"); });
  runtime.armCaptures({18, 20}, capture);
  runtime.armCrash(20);
  runUntilCrash(100);
  EXPECT_EQ(fired, (std::vector<std::string>{"capture@18", "fault@20", "capture@20",
                                             "crash@20"}));

  // The same order when the index falls inside a bulk range.
  fired.clear();
  runtime.armCrash(30);
  runtime.armCaptures({30}, capture);
  runtime.armFault(30, [&] { note("fault"); });
  std::vector<double> src(40, 3.0);
  try {
    a.writeRange(0, 40, src.data());
  } catch (const rt::CrashEvent& crash) {
    fired.push_back("crash@" + std::to_string(crash.accessIndex));
  }
  EXPECT_EQ(fired, (std::vector<std::string>{"fault@30", "capture@30", "crash@30"}));
}

// ---- Bulk range operations (docs/INTERNALS.md "Range access fast path") -----

TEST(TrackedArrayBulk, ZeroLengthRangesAreNoOps) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 16, true);
  runtime.setCrashWindow(true);
  double v = 1.0;
  a.readRange(5, 0, &v);  // the out buffer must stay untouched
  a.writeRange(5, 0, &v);
  a.fillRange(16, 0, 9.0);  // zero length exactly at the end is legal
  EXPECT_DOUBLE_EQ(v, 1.0);
  EXPECT_EQ(runtime.windowAccesses(), 0u) << "no elements, no clock ticks";
}

TEST(TrackedArrayBulk, SingleElementRangeMatchesGetSet) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 8, true);
  runtime.setCrashWindow(true);
  const double in = 3.25;
  a.writeRange(2, 1, &in);
  double out = 0.0;
  a.readRange(2, 1, &out);
  EXPECT_DOUBLE_EQ(out, 3.25);
  EXPECT_DOUBLE_EQ(a.get(2), 3.25);
  EXPECT_EQ(runtime.windowAccesses(), 3u) << "one tick per logical element";
}

TEST(TrackedArrayBulk, RangesCrossingTheEndThrow) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 8, true);
  double buf[4] = {};
  EXPECT_THROW(a.readRange(6, 3, buf), std::logic_error);
  EXPECT_THROW(a.writeRange(8, 1, buf), std::logic_error);
  EXPECT_THROW(a.fillRange(5, 100, 0.0), std::logic_error);
  EXPECT_THROW(a.readRange(9, 0, buf), std::logic_error);  // start past the end
}

TEST(TrackedArrayBulk, FillCopyAndChunkTraversalRoundTrip) {
  auto runtime = makeRuntime();
  // Larger than kChunkElems so fill/copyFrom/forEachChunk all take several
  // stack-buffer chunks, and deliberately not a multiple of it.
  const std::uint64_t n = rt::TrackedArray<double>::kChunkElems * 2 + 37;
  rt::TrackedArray<double> a(runtime, "a", n, true);
  rt::TrackedArray<double> b(runtime, "b", n, true);
  a.fill(4.5);
  a.set(n - 1, 7.0);
  b.copyFrom(a);
  EXPECT_DOUBLE_EQ(b.get(0), 4.5);
  EXPECT_DOUBLE_EQ(b.get(n - 2), 4.5);
  EXPECT_DOUBLE_EQ(b.get(n - 1), 7.0);
  std::uint64_t seen = 0;
  double sum = 0.0;
  b.forEachChunk([&](std::uint64_t first, std::span<const double> chunk) {
    EXPECT_EQ(first, seen);
    seen += chunk.size();
    for (const double v : chunk) sum += v;
  });
  EXPECT_EQ(seen, n);
  EXPECT_DOUBLE_EQ(sum, 4.5 * static_cast<double>(n - 1) + 7.0);
}

TEST(TrackedArrayBulk, CrashFiresMidRangeAtExactIndex) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 64, true);
  runtime.setCrashWindow(true);
  runtime.armCrash(10);
  std::vector<double> src(64, 2.0);
  try {
    a.writeRange(0, 64, src.data());
    FAIL() << "crash did not fire";
  } catch (const rt::CrashEvent& crash) {
    EXPECT_EQ(crash.accessIndex, 10u);
  }
  // The bulk chunk is clamped so its last element is the trigger, matching
  // the scalar path where the 10th store completes and then throws: elements
  // 0..9 hold the new value, everything after does not.
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.peek(i), 2.0) << "element " << i;
  for (int i = 10; i < 64; ++i) EXPECT_DOUBLE_EQ(a.peek(i), 0.0) << "element " << i;
}

TEST(TrackedArrayBulk, CapturesFireMidRangeWithElementwiseState) {
  auto runtime = makeRuntime();
  rt::TrackedArray<double> a(runtime, "a", 32, true);
  runtime.setCrashWindow(true);
  std::vector<std::uint64_t> fired;
  // Adjacent indices (5, 6) force a one-element bulk chunk in between.
  runtime.armCaptures({5, 6, 20}, [&](const rt::CrashEvent& at) {
    fired.push_back(at.accessIndex);
    // Window index i (1-based) writes element i-1: at capture time the
    // triggering element is applied, the next one is not — exactly the
    // state an element-wise loop would show.
    EXPECT_DOUBLE_EQ(a.peek(at.accessIndex - 1),
                     static_cast<double>(at.accessIndex));
    EXPECT_DOUBLE_EQ(a.peek(at.accessIndex), 0.0);
  });
  std::vector<double> src(32);
  for (int i = 0; i < 32; ++i) src[static_cast<std::size_t>(i)] = i + 1.0;
  a.writeRange(0, 32, src.data());
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{5, 6, 20}));
}

TEST(TrackedArrayBulk, DirectModeBulkOnOffIdentical) {
  // Restarts run in direct-access mode (the NVM image IS the architectural
  // state): the bulk path must produce the same bytes, clock ticks and
  // crash-index semantics there too.
  const auto drive = [](bool bulkOn) {
    auto runtime = makeRuntime();
    runtime.setRunKind(rt::RunKind::Direct);
    runtime.setBulk(bulkOn);
    rt::TrackedArray<double> a(runtime, "a", 20, true);
    runtime.setCrashWindow(true);
    runtime.armCrash(7);
    std::vector<double> src(20, 5.5);
    std::uint64_t crashedAt = 0;
    try {
      a.writeRange(0, 20, src.data());
    } catch (const rt::CrashEvent& crash) {
      crashedAt = crash.accessIndex;
    }
    return std::tuple{crashedAt, runtime.windowAccesses(),
                      runtime.dumpObjectNvm(a.id())};
  };
  const auto [crashOn, ticksOn, nvmOn] = drive(true);
  const auto [crashOff, ticksOff, nvmOff] = drive(false);
  EXPECT_EQ(crashOn, 7u);
  EXPECT_EQ(crashOn, crashOff);
  EXPECT_EQ(ticksOn, ticksOff);
  EXPECT_EQ(nvmOn, nvmOff) << "direct-mode NVM bytes must match across modes";
  // Elements 0..6 were applied before the crash (direct mode pokes NVM).
  double v = 0.0;
  std::memcpy(&v, nvmOn.data() + 6 * sizeof(double), sizeof(double));
  EXPECT_DOUBLE_EQ(v, 5.5);
  std::memcpy(&v, nvmOn.data() + 7 * sizeof(double), sizeof(double));
  EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(TrackedArrayBulk, BulkOffLowersToIdenticalObservables) {
  auto bulkOn = makeRuntime();
  auto bulkOff = makeRuntime();
  bulkOff.setBulk(false);
  const auto drive = [](rt::Runtime& runtime) {
    rt::TrackedArray<double> a(runtime, "a", 300, true);
    rt::TrackedArray<double> b(runtime, "b", 300, true);
    runtime.setCrashWindow(true);
    a.fill(1.25);
    b.copyFrom(a);
    double sum = 0.0;
    b.forEachChunk([&](std::uint64_t, std::span<const double> chunk) {
      for (const double v : chunk) sum += v;
    });
    runtime.setCrashWindow(false);
    return sum;
  };
  EXPECT_DOUBLE_EQ(drive(bulkOn), drive(bulkOff));
  EXPECT_EQ(bulkOn.windowAccesses(), bulkOff.windowAccesses());
  const auto& on = bulkOn.events();
  const auto& off = bulkOff.events();
  EXPECT_EQ(on.loads, off.loads);
  EXPECT_EQ(on.stores, off.stores);
  EXPECT_EQ(on.hits, off.hits);
  EXPECT_EQ(on.misses, off.misses);
  EXPECT_EQ(on.nvmBlockReads, off.nvmBlockReads);
  EXPECT_EQ(on.nvmBlockWrites, off.nvmBlockWrites);
  // The range diagnostics are the one intentional difference: they count
  // bulk calls, which only the fast path makes.
  EXPECT_GT(on.rangeLoads + on.rangeStores, 0u);
  EXPECT_EQ(off.rangeLoads, 0u);
  EXPECT_EQ(off.rangeStores, 0u);
  EXPECT_EQ(off.rangeSplitBlocks, 0u);
}

namespace {

/// Drives every element-access form through one runtime of `kind` and
/// returns what an app would observe: each value read, then the objects'
/// final bytes.
struct AccessTrace {
  std::vector<double> reads;
  std::vector<std::uint8_t> doubles, ints, scalar;
  std::uint64_t windowAccesses = 0;
  std::map<rt::PointId, std::uint64_t> regionAccesses;
};

AccessTrace driveAccessors(rt::RunKind kind) {
  auto runtime = makeRuntime();
  runtime.setRunKind(kind);
  rt::TrackedArray<double> a(runtime, "a", 40, true);
  rt::TrackedArray<std::int32_t> n(runtime, "n", 24, true);
  rt::TrackedScalar<double> s(runtime, "s", true);
  AccessTrace out;
  runtime.setCrashWindow(true);
  {
    rt::RegionScope region(runtime, 0);
    for (std::uint64_t i = 0; i < a.size(); ++i) a.set(i, 0.5 * static_cast<double>(i));
    for (std::uint64_t i = 0; i < n.size(); ++i) n[i] = static_cast<std::int32_t>(3 * i);
    for (std::uint64_t i = 1; i < a.size(); i += 3) {
      a[i] += 1.25;
      a[i - 1] -= a.get(i);
      a[i] *= 3.0;
      a[i] /= 4.0;
      out.reads.push_back(a[i]);
      out.reads.push_back(a.apply(i, [](double v) { return v * v; }));
    }
  }
  for (std::uint64_t i = 0; i + 1 < n.size(); ++i) {
    n[i + 1] = n[i];
    n[i] += 7;
    out.reads.push_back(static_cast<double>(n.get(i)));
  }
  s.set(a.get(5));
  s.set(s.get() * 2.0);
  out.reads.push_back(s.get());
  runtime.setCrashWindow(false);
  out.doubles = runtime.dumpObjectCurrent(a.id());
  out.ints = runtime.dumpObjectCurrent(n.id());
  out.scalar = runtime.dumpObjectCurrent(s.id());
  out.windowAccesses = runtime.windowAccesses();
  out.regionAccesses = runtime.regionAccesses();
  return out;
}

}  // namespace

TEST(DirectAccessor, MatchesTheTrackedPath) {
  const AccessTrace tracked = driveAccessors(rt::RunKind::Tracked);
  for (const auto kind : {rt::RunKind::Direct, rt::RunKind::Restart}) {
    const AccessTrace direct = driveAccessors(kind);
    EXPECT_EQ(direct.reads, tracked.reads);
    EXPECT_EQ(direct.doubles, tracked.doubles);
    EXPECT_EQ(direct.ints, tracked.ints);
    EXPECT_EQ(direct.scalar, tracked.scalar);
  }
  // A direct run ticks the clock exactly as a tracked one; a restart none.
  const AccessTrace direct = driveAccessors(rt::RunKind::Direct);
  EXPECT_GT(tracked.windowAccesses, 0u);
  EXPECT_EQ(direct.windowAccesses, tracked.windowAccesses);
  EXPECT_EQ(direct.regionAccesses, tracked.regionAccesses);
  const AccessTrace restart = driveAccessors(rt::RunKind::Restart);
  EXPECT_EQ(restart.windowAccesses, 0u);
  EXPECT_TRUE(restart.regionAccesses.empty());
}

TEST(DirectAccessor, IncrementalDigestMatchesScratchAfterDirectStores) {
  for (const auto kind : {rt::RunKind::Direct, rt::RunKind::Restart}) {
    auto runtime = makeRuntime();
    runtime.setRunKind(kind);
    runtime.armStateDigest();
    rt::TrackedArray<double> a(runtime, "a", 100, true);
    rt::TrackedArray<std::int32_t> n(runtime, "n", 50, true);
    rt::TrackedScalar<double> s(runtime, "s", true);
    ms::NvmStore& image = runtime.values();
    EXPECT_EQ(image.digest(), image.digestFromScratch());
    for (std::uint64_t i = 0; i < a.size(); i += 7) a.set(i, 1.0 + static_cast<double>(i));
    n[3] = 11;
    s.set(2.5);
    EXPECT_EQ(image.digest(), image.digestFromScratch());
    // Stores into blocks the last digest() call cleaned mark them again.
    a[7] += 0.5;
    a[99] = -1.0;
    n[49] += 4;
    s.set(s.get() + 1.0);
    EXPECT_EQ(runtime.stateDigest(), image.digestFromScratch(runtime.footprintBytes()));
    EXPECT_EQ(image.digest(), image.digestFromScratch());
  }
}

TEST(DirectAccessor, OutOfRangeIndexStillThrows) {
  for (const auto kind : {rt::RunKind::Direct, rt::RunKind::Restart}) {
    auto runtime = makeRuntime();
    runtime.setRunKind(kind);
    rt::TrackedArray<double> a(runtime, "a", 4, true);
    EXPECT_THROW((void)a.get(4), std::logic_error);
    EXPECT_THROW(a.set(4, 1.0), std::logic_error);
    EXPECT_THROW(a[4] += 1.0, std::logic_error);
    EXPECT_THROW((void)a.apply(100, [](double v) { return v; }), std::logic_error);
    try {
      (void)a.get(9);
      FAIL() << "out-of-range get did not throw";
    } catch (const std::logic_error& e) {
      // The out-of-line failure path keeps the message format.
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("EC_CHECK failed: i < count_ at ", 0), 0u) << what;
      EXPECT_NE(what.find("tracked.hpp:"), std::string::npos) << what;
      EXPECT_EQ(what.find(" — "), std::string::npos) << what;
    }
  }
  auto runtime = makeRuntime();
  (void)runtime.allocate("x", 8, true);
  try {
    (void)runtime.allocate("x", 8, true);
    FAIL() << "duplicate name accepted";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("EC_CHECK failed: !findObject(name).has_value() at ", 0), 0u)
        << what;
    EXPECT_NE(what.find(" — duplicate data object name: x"), std::string::npos) << what;
  }
}

namespace {

/// A two-region smoothing loop over one array and a running scalar.
class SmoothApp final : public rt::IApp {
 public:
  [[nodiscard]] const rt::AppInfo& info() const override { return info_; }
  void setup(rt::Runtime& runtime) override {
    runtime.declareRegionCount(2);
    u_ = rt::TrackedArray<double>(runtime, "u", 64, true);
    total_ = rt::TrackedScalar<double>(runtime, "total", true);
  }
  void initialize(rt::Runtime&) override {
    for (std::uint64_t i = 0; i < u_.size(); ++i) u_.set(i, static_cast<double>(i % 5));
    total_.set(0.0);
  }
  void iterate(rt::Runtime& runtime, int) override {
    {
      rt::RegionScope region(runtime, 0);
      for (std::uint64_t i = 1; i < u_.size(); ++i) u_[i] += 0.5 * u_.get(i - 1);
      region.iterationEnd();
    }
    rt::RegionScope region(runtime, 1);
    total_.set(total_.get() + u_.get(u_.size() - 1));
    region.iterationEnd();
  }
  [[nodiscard]] int nominalIterations() const override { return 6; }
  [[nodiscard]] rt::VerifyOutcome verify(rt::Runtime&) override {
    rt::VerifyOutcome out;
    out.metric = total_.peek();
    out.pass = true;
    return out;
  }

 private:
  rt::AppInfo info_{"smooth", "test"};
  rt::TrackedArray<double> u_;
  rt::TrackedScalar<double> total_;
};

}  // namespace

TEST(RestartKind, KeepsNoClockAcrossDriverRunAndRefusesArming) {
  const auto run = [](rt::RunKind kind, std::uint64_t& window) {
    auto runtime = makeRuntime();
    runtime.setRunKind(kind);
    SmoothApp app;
    const auto result = rt::Driver::freshRun(app, runtime);
    window = runtime.windowAccesses();
    if (kind == rt::RunKind::Restart) {
      EXPECT_TRUE(runtime.regionAccesses().empty());
    }
    return result.verification.metric;
  };
  std::uint64_t directWindow = 0;
  std::uint64_t restartWindow = 0;
  const double direct = run(rt::RunKind::Direct, directWindow);
  const double restart = run(rt::RunKind::Restart, restartWindow);
  EXPECT_EQ(direct, restart);
  EXPECT_GT(directWindow, 0u);
  EXPECT_EQ(restartWindow, 0u);

  auto runtime = makeRuntime();
  runtime.setRunKind(rt::RunKind::Restart);
  EXPECT_TRUE(runtime.direct());
  EXPECT_THROW(runtime.armCrash(1), std::logic_error);
  EXPECT_THROW(runtime.armCaptures({1}, [](const rt::CrashEvent&) {}), std::logic_error);
  EXPECT_THROW(runtime.armFault(1, [] {}), std::logic_error);
  // setCrashWindow(true) leaves a restart-kind window shut.
  runtime.setCrashWindow(true);
  rt::TrackedArray<double> a(runtime, "a", 8, true);
  a[2] = 1.0;
  EXPECT_EQ(runtime.windowAccesses(), 0u);
}
