// Unit and property tests for the value-tracking cache hierarchy and NVM
// store: hit/miss accounting, write-back semantics, flush instruction
// classes, inclusivity invariants, inconsistency measurement, and crash
// (invalidateAll) behaviour.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/common/rng.hpp"
#include "easycrash/memsim/hierarchy.hpp"

namespace ms = easycrash::memsim;

namespace {

struct Sim {
  Sim() : nvm(64), cache(ms::CacheConfig::tiny(), nvm) {}
  ms::NvmStore nvm;
  ms::CacheHierarchy cache;

  void storeU64(std::uint64_t addr, std::uint64_t v) {
    cache.store(addr, {reinterpret_cast<const std::uint8_t*>(&v), sizeof(v)});
  }
  std::uint64_t loadU64(std::uint64_t addr) {
    std::uint64_t v = 0;
    cache.load(addr, {reinterpret_cast<std::uint8_t*>(&v), sizeof(v)});
    return v;
  }
  std::uint64_t peekU64(std::uint64_t addr) const {
    std::uint64_t v = 0;
    cache.peek(addr, {reinterpret_cast<std::uint8_t*>(&v), sizeof(v)});
    return v;
  }
  std::uint64_t nvmU64(std::uint64_t addr) const {
    std::uint64_t v = 0;
    nvm.read(addr, {reinterpret_cast<std::uint8_t*>(&v), sizeof(v)});
    return v;
  }
};

}  // namespace

TEST(NvmStore, ZeroFilledByDefault) {
  ms::NvmStore nvm(64);
  std::vector<std::uint8_t> buf(16, 0xFF);
  nvm.read(1000, buf);
  for (auto b : buf) EXPECT_EQ(b, 0);
}

TEST(NvmStore, BlockWriteCountsAndRoundTrips) {
  ms::NvmStore nvm(64);
  std::vector<std::uint8_t> block(64, 0xAB);
  nvm.writeBlock(128, block);
  EXPECT_EQ(nvm.blockWrites(), 1u);
  std::vector<std::uint8_t> out(64);
  nvm.read(128, out);
  EXPECT_EQ(out, block);
}

TEST(NvmStore, PokeDoesNotCountAsWrite) {
  ms::NvmStore nvm(64);
  std::vector<std::uint8_t> data(8, 0x11);
  nvm.poke(0, data);
  EXPECT_EQ(nvm.blockWrites(), 0u);
}

TEST(CacheConfig, PresetsValidate) {
  EXPECT_NO_THROW(ms::CacheConfig::xeonGold6126().validate());
  EXPECT_NO_THROW(ms::CacheConfig::scaledDefault().validate());
  EXPECT_NO_THROW(ms::CacheConfig::tiny().validate());
}

TEST(CacheConfig, RejectsNonPowerOfTwoBlock) {
  ms::CacheConfig c = ms::CacheConfig::tiny();
  c.blockSize = 48;
  EXPECT_THROW(c.validate(), std::logic_error);
}

TEST(CacheConfig, RejectsShrinkingLevels) {
  ms::CacheConfig c = ms::CacheConfig::tiny();
  c.levels[2].sizeBytes = c.levels[0].sizeBytes;
  EXPECT_THROW(c.validate(), std::logic_error);
}

TEST(Hierarchy, LoadAfterStoreReturnsValue) {
  Sim s;
  s.storeU64(0, 0xDEADBEEFULL);
  EXPECT_EQ(s.loadU64(0), 0xDEADBEEFULL);
}

TEST(Hierarchy, StoreIsNotImmediatelyPersistent) {
  Sim s;
  s.storeU64(0, 42);
  EXPECT_EQ(s.nvmU64(0), 0u) << "dirty data must stay in the cache";
  EXPECT_EQ(s.peekU64(0), 42u) << "peek must see the cached value";
}

TEST(Hierarchy, FlushMakesDataPersistent) {
  Sim s;
  s.storeU64(0, 42);
  s.cache.flushBlock(0, ms::FlushKind::Clwb);
  EXPECT_EQ(s.nvmU64(0), 42u);
  EXPECT_EQ(s.cache.events().flushDirty, 1u);
  EXPECT_EQ(s.cache.events().flushInducedNvmWrites, 1u);
}

TEST(Hierarchy, ClwbKeepsLineResident) {
  Sim s;
  s.storeU64(0, 42);
  s.cache.flushBlock(0, ms::FlushKind::Clwb);
  const auto before = s.cache.events();
  (void)s.loadU64(0);
  EXPECT_EQ(s.cache.events().hits[0], before.hits[0] + 1) << "clwb keeps L1 line";
}

TEST(Hierarchy, ClflushoptInvalidatesLine) {
  Sim s;
  s.storeU64(0, 42);
  s.cache.flushBlock(0, ms::FlushKind::Clflushopt);
  const auto before = s.cache.events();
  EXPECT_EQ(s.loadU64(0), 42u);
  EXPECT_EQ(s.cache.events().misses[0], before.misses[0] + 1)
      << "clflushopt must invalidate, forcing a refetch";
}

TEST(Hierarchy, FlushCleanBlockDoesNotWriteNvm) {
  Sim s;
  s.storeU64(0, 7);
  s.cache.flushBlock(0, ms::FlushKind::Clwb);  // now clean and persistent
  const auto writes = s.cache.events().nvmBlockWrites;
  s.cache.flushBlock(0, ms::FlushKind::Clwb);
  EXPECT_EQ(s.cache.events().nvmBlockWrites, writes);
  EXPECT_EQ(s.cache.events().flushClean, 1u);
}

TEST(Hierarchy, FlushNonResidentBlockIsFree) {
  Sim s;
  s.cache.flushBlock(4096, ms::FlushKind::Clflushopt);
  EXPECT_EQ(s.cache.events().flushNonResident, 1u);
  EXPECT_EQ(s.cache.events().nvmBlockWrites, 0u);
}

TEST(Hierarchy, CrashLosesDirtyData) {
  Sim s;
  s.storeU64(0, 41);
  s.cache.flushBlock(0, ms::FlushKind::Clwb);
  s.storeU64(0, 42);  // newer value, dirty only
  s.cache.invalidateAll();
  EXPECT_EQ(s.peekU64(0), 41u) << "after power loss only the NVM value survives";
}

TEST(Hierarchy, InconsistencyCountsDirtyDifferingBytes) {
  Sim s;
  s.storeU64(0, 0x1111111111111111ULL);
  EXPECT_EQ(s.cache.inconsistentBytes(0, 8), 8u);
  s.cache.flushBlock(0, ms::FlushKind::Clwb);
  EXPECT_EQ(s.cache.inconsistentBytes(0, 8), 0u);
  // Store the same value again: line is dirty but bytes match NVM.
  s.storeU64(0, 0x1111111111111111ULL);
  EXPECT_EQ(s.cache.inconsistentBytes(0, 8), 0u);
}

TEST(Hierarchy, InconsistencyRespectsRangeBounds) {
  Sim s;
  s.storeU64(0, ~0ULL);
  s.storeU64(8, ~0ULL);
  EXPECT_EQ(s.cache.inconsistentBytes(0, 8), 8u);
  EXPECT_EQ(s.cache.inconsistentBytes(0, 16), 16u);
  EXPECT_EQ(s.cache.inconsistentBytes(4, 8), 8u);
}

TEST(Hierarchy, EvictionWritesBackThroughLevels) {
  // Fill far more blocks than the whole hierarchy holds; all dirty data must
  // eventually land in NVM or still be cached; nothing may be lost.
  Sim s;
  constexpr int kBlocks = 256;  // tiny() LLC holds 16 blocks
  for (int i = 0; i < kBlocks; ++i) s.storeU64(i * 64ULL, 1000 + i);
  EXPECT_GT(s.cache.events().nvmBlockWrites, 0u);
  for (int i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(s.peekU64(i * 64ULL), 1000u + i) << "block " << i;
  }
}

TEST(Hierarchy, DrainAllPersistsEverything) {
  Sim s;
  for (int i = 0; i < 64; ++i) s.storeU64(i * 64ULL, 7000 + i);
  s.cache.drainAll();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(s.nvmU64(i * 64ULL), 7000u + i);
  }
  EXPECT_EQ(s.cache.inconsistentBytes(0, 64 * 64), 0u);
}

TEST(Hierarchy, PeekDoesNotPerturbState) {
  Sim s;
  s.storeU64(0, 5);
  const auto before = s.cache.events();
  (void)s.peekU64(0);
  (void)s.peekU64(4096);
  const auto after = s.cache.events();
  EXPECT_EQ(after.loads, before.loads);
  EXPECT_EQ(after.misses[0], before.misses[0]);
}

TEST(Hierarchy, CrossBlockAccessTouchesTwoBlocks) {
  Sim s;
  const auto before = s.cache.events();
  s.storeU64(60, 0xABCDEF0123456789ULL);  // spans blocks 0 and 1
  EXPECT_EQ(s.cache.events().stores, before.stores + 2);
  EXPECT_EQ(s.loadU64(60), 0xABCDEF0123456789ULL);
}

TEST(Hierarchy, FlushRangeCoversPartialBlocks) {
  Sim s;
  s.storeU64(60, ~0ULL);  // dirty bytes in blocks 0 and 1
  s.cache.flushRange(60, 8, ms::FlushKind::Clwb);
  EXPECT_EQ(s.loadU64(60), ~0ULL);
  EXPECT_EQ(s.cache.inconsistentBytes(0, 128), 0u);
}

// Property test: after an arbitrary random workload, the hierarchy invariants
// hold and peek() always observes the last written value.
TEST(HierarchyProperty, RandomWorkloadPreservesValuesAndInvariants) {
  easycrash::Rng rng(12345);
  Sim s;
  constexpr std::uint64_t kWords = 512;  // 4KB working set over tiny caches
  std::vector<std::uint64_t> expected(kWords, 0);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t w = rng.below(kWords);
    const std::uint64_t addr = w * 8;
    switch (rng.below(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {
        const std::uint64_t v = rng();
        s.storeU64(addr, v);
        expected[w] = v;
        break;
      }
      case 4:
      case 5:
      case 6:
      case 7:
        ASSERT_EQ(s.loadU64(addr), expected[w]) << "word " << w;
        break;
      case 8:
        s.cache.flushBlock(addr, rng.below(2) ? ms::FlushKind::Clwb
                                              : ms::FlushKind::Clflushopt);
        break;
      case 9:
        ASSERT_EQ(s.peekU64(addr), expected[w]);
        break;
    }
    if (step % 2048 == 0) s.cache.checkInvariants();
  }
  s.cache.checkInvariants();
  for (std::uint64_t w = 0; w < kWords; ++w) {
    ASSERT_EQ(s.peekU64(w * 8), expected[w]);
  }
}

// Property: crash at any point only ever loses dirty data; clean/flushed data
// always survives exactly.
TEST(HierarchyProperty, CrashNeverCorruptsFlushedData) {
  easycrash::Rng rng(999);
  for (int trial = 0; trial < 20; ++trial) {
    Sim s;
    constexpr std::uint64_t kWords = 256;
    std::vector<std::uint64_t> lastFlushedValue(kWords, 0);
    std::vector<bool> dirtySinceFlush(kWords, false);
    std::vector<bool> everFlushed(kWords, false);
    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t w = rng.below(kWords);
      s.storeU64(w * 8, rng());
      dirtySinceFlush[w] = true;
      if (rng.below(4) == 0) {
        s.cache.flushBlock(w * 8, ms::FlushKind::Clwb);
        // The whole block is now persistent and clean.
        const std::uint64_t firstWord = (w * 8) / 64 * 8;
        for (std::uint64_t k = 0; k < 8 && firstWord + k < kWords; ++k) {
          lastFlushedValue[firstWord + k] = s.peekU64((firstWord + k) * 8);
          dirtySinceFlush[firstWord + k] = false;
          everFlushed[firstWord + k] = true;
        }
      }
    }
    s.cache.invalidateAll();
    // Words not modified since their last flush must survive exactly; words
    // modified since may legitimately hold a newer natural write-back, but
    // never anything else.
    for (std::uint64_t w = 0; w < kWords; ++w) {
      if (everFlushed[w] && !dirtySinceFlush[w]) {
        ASSERT_EQ(s.peekU64(w * 8), lastFlushedValue[w]) << "trial " << trial;
      }
    }
  }
}
