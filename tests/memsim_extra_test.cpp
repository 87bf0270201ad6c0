// Additional memory-system tests: CacheLevel internals (probe, LRU victim
// choice, fill and invalidation bookkeeping), MemEvents accounting, flush-instruction kinds, and hierarchy
// event counters.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/common/rng.hpp"
#include "easycrash/memsim/cache_level.hpp"
#include "easycrash/memsim/events.hpp"
#include "easycrash/memsim/hierarchy.hpp"

namespace ms = easycrash::memsim;

namespace {

ms::CacheGeometry smallGeometry() { return ms::CacheGeometry{256, 2}; }  // 4 lines

}  // namespace

namespace {

/// Insert `blockAddr` the way the hierarchy does: pick the victim line,
/// drop it when valid, fill. Returns the line.
std::uint32_t insert(ms::CacheLevel& level, std::uint64_t blockAddr) {
  const std::uint32_t line = level.victim(blockAddr);
  if (level.valid(line)) level.invalidateLine(line);
  level.fill(line, blockAddr);
  return line;
}

/// Lines whose dirty bit is set (an empty line's bit is always clear).
std::uint64_t dirtyLines(const ms::CacheLevel& level) {
  std::uint64_t n = 0;
  for (std::uint32_t line = 0; line < level.lineCount(); ++line) n += level.dirty(line) ? 1 : 0;
  return n;
}

}  // namespace

TEST(CacheLevelTest, InsertAndFind) {
  ms::CacheLevel level(smallGeometry(), 64);
  EXPECT_FALSE(level.find(0).has_value());
  EXPECT_FALSE(level.valid(level.victim(0)));  // an empty set offers an empty way
  const std::uint32_t line = insert(level, 0);
  ASSERT_TRUE(level.find(0).has_value());
  EXPECT_EQ(*level.find(0), line);
  EXPECT_EQ(level.blockAddr(line), 0u);
  EXPECT_FALSE(level.dirty(line));
  EXPECT_EQ(level.mruLineOf(0), static_cast<std::int64_t>(line));
  EXPECT_EQ(level.validLines(), 1u);
}

TEST(CacheLevelTest, DoubleInsertRejected) {
  ms::CacheLevel level(smallGeometry(), 64);
  const std::uint32_t line = insert(level, 0);
  EXPECT_THROW(level.fill(line, 0), std::logic_error);
  EXPECT_EQ(level.validLines(), 1u);
}

TEST(CacheLevelTest, LruVictimIsLeastRecentlyTouched) {
  // 2 sets x 2 ways; blocks 0, 128 map to set 0 (64B blocks, 2 sets).
  ms::CacheLevel level(smallGeometry(), 64);
  (void)insert(level, 0);
  const std::uint32_t line128 = insert(level, 128);
  // Touch block 0 so 128 becomes LRU.
  level.touch(*level.find(0));
  EXPECT_EQ(level.victim(256), line128);  // set 0 again
  EXPECT_EQ(level.blockAddr(level.victim(256)), 128u);
}

TEST(CacheLevelTest, VictimPrefersTheFirstEmptyWay) {
  ms::CacheLevel level(ms::CacheGeometry{256, 4}, 64);  // 1 set x 4 ways
  const std::uint32_t a = insert(level, 0);
  const std::uint32_t b = insert(level, 64);
  (void)insert(level, 128);
  level.invalidateLine(b);
  level.invalidateLine(a);
  // Both emptied ways beat every valid one, and the lower way wins the tie.
  EXPECT_EQ(level.victim(512), std::min(a, b));
}

TEST(CacheLevelTest, VictimKeepsTagAndDirtinessUntilInvalidated) {
  ms::CacheLevel level(smallGeometry(), 64);
  const std::uint32_t line = insert(level, 0);
  level.setDirty(line, true);
  (void)insert(level, 128);
  const std::uint32_t victim = level.victim(256);
  ASSERT_EQ(victim, line);
  EXPECT_TRUE(level.valid(victim));
  EXPECT_EQ(level.blockAddr(victim), 0u);
  EXPECT_TRUE(level.dirty(victim));
  level.invalidateLine(victim);
  level.fill(victim, 256);
  EXPECT_FALSE(level.dirty(victim)) << "a filled line starts clean";
  EXPECT_FALSE(level.find(0).has_value());
  EXPECT_EQ(dirtyLines(level), 0u);
}

TEST(CacheLevelTest, InvalidateLineDropsWithoutWriteback) {
  ms::CacheLevel level(smallGeometry(), 64);
  const std::uint32_t line = insert(level, 64);
  level.setDirty(line, true);
  EXPECT_EQ(level.mruLineOf(64), static_cast<std::int64_t>(line));
  level.invalidateLine(line);
  EXPECT_FALSE(level.find(64).has_value());
  EXPECT_EQ(level.mruLineOf(64), -1) << "an emptied line no longer matches";
  EXPECT_EQ(dirtyLines(level), 0u);
  EXPECT_EQ(level.validLines(), 0u);
}

TEST(CacheLevelTest, InvalidateLineOfEmptyWayThrows) {
  ms::CacheLevel level(smallGeometry(), 64);
  EXPECT_THROW(level.invalidateLine(0), std::logic_error);
}

TEST(CacheLevelTest, InvalidateAllClearsEverything) {
  ms::CacheLevel level(smallGeometry(), 64);
  for (int i = 0; i < 4; ++i) (void)insert(level, static_cast<std::uint64_t>(i) * 64);
  level.setDirty(*level.find(0), true);
  EXPECT_GT(level.validLines(), 0u);
  level.invalidateAll();
  EXPECT_EQ(level.validLines(), 0u);
  EXPECT_EQ(dirtyLines(level), 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(level.find(static_cast<std::uint64_t>(i) * 64).has_value());
  }
}

TEST(CacheLevelTest, DirtyLineCount) {
  ms::CacheLevel level(smallGeometry(), 64);
  (void)insert(level, 0);
  (void)insert(level, 64);
  level.setDirty(*level.find(0), true);
  level.setDirty(*level.find(0), true);  // idempotent
  EXPECT_EQ(dirtyLines(level), 1u);
  EXPECT_EQ(level.validLines(), 2u);
  level.setDirty(*level.find(0), false);
  EXPECT_EQ(dirtyLines(level), 0u);
}

TEST(CacheLevelTest, NonPowerOfTwoSetsProbeTheirOwnSet) {
  ms::CacheLevel level(ms::CacheGeometry{6ULL * 64, 2}, 64);  // 3 sets x 2 ways
  for (std::uint64_t b = 0; b < 6; ++b) (void)insert(level, b * 64);
  for (std::uint64_t b = 0; b < 6; ++b) {
    const auto line = level.find(b * 64);
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line / 2, b % 3) << "block " << b << " sits in set b mod 3";
  }
  EXPECT_FALSE(level.find(6 * 64).has_value());
}

TEST(MemEventsTest, DeltaSubtractsAllCounters) {
  ms::MemEvents earlier;
  earlier.loads = 10;
  earlier.hits[0] = 5;
  earlier.nvmBlockWrites = 2;
  earlier.flushDirty = 1;
  ms::MemEvents later = earlier;
  later.loads = 25;
  later.hits[0] = 12;
  later.nvmBlockWrites = 7;
  later.flushDirty = 3;
  const auto delta = later.delta(earlier);
  EXPECT_EQ(delta.loads, 15u);
  EXPECT_EQ(delta.hits[0], 7u);
  EXPECT_EQ(delta.nvmBlockWrites, 5u);
  EXPECT_EQ(delta.flushDirty, 2u);
}

TEST(MemEventsTest, TotalFlushesSumsClasses) {
  ms::MemEvents e;
  e.flushDirty = 3;
  e.flushClean = 4;
  e.flushNonResident = 5;
  EXPECT_EQ(e.totalFlushes(), 12u);
}

namespace {

struct Sim {
  Sim() : nvm(64), cache(ms::CacheConfig::tiny(), nvm) {}
  ms::NvmStore nvm;
  ms::CacheHierarchy cache;
  void store64(std::uint64_t addr, std::uint64_t v) {
    cache.store(addr, {reinterpret_cast<const std::uint8_t*>(&v), 8});
  }
};

}  // namespace

TEST(FlushKinds, ClflushAlsoInvalidates) {
  Sim s;
  s.store64(0, 9);
  s.cache.flushBlock(0, ms::FlushKind::Clflush);
  const auto before = s.cache.events();
  std::uint64_t v = 0;
  s.cache.load(0, {reinterpret_cast<std::uint8_t*>(&v), 8});
  EXPECT_EQ(v, 9u);
  EXPECT_EQ(s.cache.events().misses[0], before.misses[0] + 1);
}

TEST(FlushKinds, ToStringNames) {
  EXPECT_STREQ(ms::toString(ms::FlushKind::Clflush), "clflush");
  EXPECT_STREQ(ms::toString(ms::FlushKind::Clflushopt), "clflushopt");
  EXPECT_STREQ(ms::toString(ms::FlushKind::Clwb), "clwb");
}

TEST(HierarchyCounters, LoadsAndStoresCounted) {
  Sim s;
  const auto before = s.cache.events();
  s.store64(0, 1);
  std::uint64_t v = 0;
  s.cache.load(0, {reinterpret_cast<std::uint8_t*>(&v), 8});
  EXPECT_EQ(s.cache.events().stores, before.stores + 1);
  EXPECT_EQ(s.cache.events().loads, before.loads + 1);
}

TEST(HierarchyCounters, FillsCountedAsNvmReads) {
  Sim s;
  std::uint64_t v = 0;
  s.cache.load(4096, {reinterpret_cast<std::uint8_t*>(&v), 8});
  EXPECT_EQ(s.cache.events().nvmBlockReads, 1u);
  s.cache.load(4096, {reinterpret_cast<std::uint8_t*>(&v), 8});
  EXPECT_EQ(s.cache.events().nvmBlockReads, 1u) << "second access is a hit";
}

TEST(HierarchyCounters, ResetEventsZeroesCounters) {
  Sim s;
  s.store64(0, 1);
  s.cache.resetEvents();
  EXPECT_EQ(s.cache.events().stores, 0u);
  EXPECT_EQ(s.cache.events().loads, 0u);
}

TEST(HierarchyCounters, FlushInducedWritesAreSubsetOfTotalWrites) {
  Sim s;
  for (int i = 0; i < 128; ++i) s.store64(i * 64ULL, i);
  for (int i = 0; i < 128; i += 2) s.cache.flushBlock(i * 64ULL, ms::FlushKind::Clwb);
  const auto& e = s.cache.events();
  EXPECT_LE(e.flushInducedNvmWrites, e.nvmBlockWrites);
  EXPECT_EQ(e.nvmBlockWrites, s.nvm.blockWrites());
}

TEST(HierarchyInvariants, HoldAfterDrainAndRefill) {
  Sim s;
  for (int i = 0; i < 64; ++i) s.store64(i * 64ULL, i + 1);
  s.cache.drainAll();
  s.cache.checkInvariants();
  for (int i = 0; i < 64; ++i) s.store64(i * 64ULL, i + 100);
  s.cache.checkInvariants();
}

// A one-level configuration makes L1 the LLC: its own dirty bits decide
// write-backs.
TEST(HierarchyInvariants, SingleLevelHierarchyTracksValues) {
  ms::CacheConfig config;
  config.blockSize = 64;
  config.levels = {{256, 2}};  // 2 sets x 2 ways
  ms::NvmStore nvm(64);
  ms::CacheHierarchy cache(config, nvm);
  const auto store64 = [&](std::uint64_t addr, std::uint64_t v) {
    cache.store(addr, {reinterpret_cast<const std::uint8_t*>(&v), 8});
  };
  const auto load64 = [&](std::uint64_t addr) {
    std::uint64_t v = 0;
    cache.load(addr, {reinterpret_cast<std::uint8_t*>(&v), 8});
    return v;
  };
  for (std::uint64_t b = 0; b < 16; ++b) store64(b * 64, b + 1);  // 4x the cache
  cache.checkInvariants();
  for (std::uint64_t b = 0; b < 16; ++b) EXPECT_EQ(load64(b * 64), b + 1);
  EXPECT_GT(cache.events().nvmBlockWrites, 0u) << "dirty evictions wrote back";
  store64(0, 99);
  EXPECT_EQ(cache.dirtyBlockCount(), 1u);
  EXPECT_EQ(cache.inconsistentBytes(0, 64), 1u);
  cache.flushBlock(0, ms::FlushKind::Clwb);
  EXPECT_EQ(cache.inconsistentBytes(0, 64), 0u);
  store64(64, 7);
  cache.invalidateAll();
  EXPECT_EQ(load64(0), 99u) << "flushed before the crash";
  EXPECT_EQ(load64(64), 2u) << "the store after the flush was lost";
  cache.checkInvariants();
}

namespace {

ms::CacheConfig geometry(const char* name, std::vector<ms::CacheGeometry> levels) {
  ms::CacheConfig config;
  config.name = name;
  config.blockSize = 64;
  config.levels = std::move(levels);
  config.validate();
  return config;
}

}  // namespace

// A power loss empties every level at once, so every block → LLC line entry
// has to go with it: a stale entry would turn the refill's first access to a
// block into an LLC hit on an empty line. Run on each geometry the
// differential suites use, checking the structure after every phase and the
// refill's misses and values against NVM.
TEST(HierarchyInvariants, HoldThroughPowerLossAndRefill) {
  const std::vector<ms::CacheConfig> configs = {
      ms::CacheConfig::tiny(),
      geometry("one-level", {{512, 2}}),
      geometry("two-level", {{256, 2}, {1024, 4}}),
      geometry("np2", {{6ULL * 64, 2}, {10ULL * 64, 2}, {28ULL * 64, 4}}),
  };
  constexpr std::uint64_t kFootprint = 8 * 1024;  // 8x the largest LLC here
  for (const ms::CacheConfig& config : configs) {
    SCOPED_TRACE(config.name);
    ms::NvmStore nvm(config.blockSize);
    ms::CacheHierarchy cache(config, nvm);
    easycrash::Rng rng(0x9A11);
    const auto randomOps = [&](int ops) {
      for (int i = 0; i < ops; ++i) {
        const std::uint64_t addr = rng.below(kFootprint / 8) * 8;
        std::uint64_t v = rng();
        const std::uint64_t op = rng.below(10);
        if (op < 5) {
          cache.store(addr, {reinterpret_cast<const std::uint8_t*>(&v), 8});
        } else if (op < 9) {
          cache.load(addr, {reinterpret_cast<std::uint8_t*>(&v), 8});
        } else {
          cache.flushBlock(addr, static_cast<ms::FlushKind>(rng.below(3)));
        }
      }
    };
    randomOps(4000);
    cache.checkInvariants();
    ASSERT_GT(cache.dirtyBlockCount(), 0u);

    cache.invalidateAll();
    cache.checkInvariants();
    for (std::size_t i = 0; i < cache.levelCount(); ++i) {
      EXPECT_EQ(cache.level(i).validLines(), 0u) << "level " << i;
    }
    EXPECT_EQ(cache.dirtyBlockCount(), 0u);
    EXPECT_EQ(cache.inconsistentBytes(0, kFootprint), 0u);
    std::vector<std::uint8_t> survived(kFootprint);
    std::vector<std::uint8_t> current(kFootprint);
    nvm.read(0, survived);
    cache.peek(0, current);
    EXPECT_EQ(current, survived) << "the value image fell back to NVM";

    // Refill: every block's first load misses every level, reads NVM and
    // returns what survived.
    const std::uint64_t llc = cache.levelCount() - 1;
    for (std::uint64_t base = 0; base < kFootprint; base += config.blockSize) {
      const ms::MemEvents before = cache.events();
      std::uint64_t v = 0;
      cache.load(base, {reinterpret_cast<std::uint8_t*>(&v), 8});
      std::uint64_t expected = 0;
      std::memcpy(&expected, survived.data() + base, 8);
      ASSERT_EQ(v, expected) << "block " << base;
      ASSERT_EQ(cache.events().nvmBlockReads, before.nvmBlockReads + 1) << "block " << base;
      ASSERT_EQ(cache.events().hits[llc], before.hits[llc]) << "block " << base;
    }
    cache.checkInvariants();
    randomOps(4000);
    cache.checkInvariants();
  }
}

// A flush over addresses no access ever reached finds every block cached
// nowhere, and looking that up allocates nothing: neither the value image
// nor NVM grows.
TEST(HierarchyCounters, FlushFarBeyondTheFootprintIsNonResident) {
  Sim s;
  constexpr std::uint64_t kFar = 1ULL << 40;
  constexpr std::uint64_t kBlocks = 16;
  s.cache.flushRange(kFar, kBlocks * 64, ms::FlushKind::Clflushopt);
  s.cache.flushBlock(kFar + (1ULL << 20), ms::FlushKind::Clwb);
  const ms::MemEvents& e = s.cache.events();
  EXPECT_EQ(e.flushNonResident, kBlocks + 1);
  EXPECT_EQ(e.flushDirty, 0u);
  EXPECT_EQ(e.flushClean, 0u);
  EXPECT_EQ(e.nvmBlockWrites, 0u);
  EXPECT_EQ(e.nvmBlockReads, 0u);
  EXPECT_EQ(s.cache.values().imageBytes(), 0u);
  EXPECT_EQ(s.nvm.imageBytes(), 0u);
  s.cache.checkInvariants();
}

TEST(CacheConfigTest, SetsComputation) {
  const auto tiny = ms::CacheConfig::tiny();
  EXPECT_EQ(tiny.setsAt(0), 2u);   // 256B / 64B / 2-way
  EXPECT_EQ(tiny.setsAt(2), 4u);   // 1KB / 64B / 4-way
  EXPECT_EQ(tiny.llcBytes(), 1024u);
}

TEST(CacheConfigTest, PaperGeometryMatchesXeon) {
  const auto xeon = ms::CacheConfig::xeonGold6126();
  EXPECT_EQ(xeon.levels[0].sizeBytes, 32u * 1024);
  EXPECT_EQ(xeon.llcBytes(), 19u * 1024 * 1024 + 256 * 1024);
}
