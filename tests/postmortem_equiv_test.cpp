// Differential test of the post-mortem scan fast path (the LLC's dirty-block
// list + vectorized compare kernel) against its scalar references.
//
// The contract is bit-identity: inconsistentBytes must return the same
// answers with the fast path on, with it off (the probe-every-level walk),
// and against an oracle computed from first principles — the value image
// (peek) diffed byte-by-byte against the NVM image, which is the paper's
// definition of inconsistency. After a power loss the value image must
// equal NVM byte for byte. The compare kernel itself is additionally tested
// against a naive byte loop on awkward sizes and offsets, and the
// dirty-anywhere set the LLC directory's masks describe is checked against a
// full forEachValid walk of the levels' own dirty bits after every mutation
// burst.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/common/rng.hpp"
#include "easycrash/memsim/hierarchy.hpp"
#include "easycrash/memsim/scan.hpp"

namespace ms = easycrash::memsim;
namespace scan = easycrash::memsim::scan;

namespace {

// ---------------------------------------------------------------------------
// Compare-kernel unit tests.
// ---------------------------------------------------------------------------

std::uint64_t naiveDiff(const std::uint8_t* a, const std::uint8_t* b,
                        std::size_t n) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += a[i] != b[i] ? 1 : 0;
  return count;
}

/// Fill `a` at random and `b` from it in one of three patterns: equal, a few
/// corrupted bytes, or every byte different.
enum class DiffPattern { Equal, Sparse, AllDifferent };

void fillPair(easycrash::Rng& rng, std::vector<std::uint8_t>& a,
              std::vector<std::uint8_t>& b, DiffPattern pattern) {
  for (auto& byte : a) byte = static_cast<std::uint8_t>(rng.below(256));
  b = a;
  if (pattern == DiffPattern::AllDifferent) {
    for (auto& byte : b) byte ^= static_cast<std::uint8_t>(1 + rng.below(255));
  } else if (pattern == DiffPattern::Sparse && !b.empty()) {
    const std::uint64_t diffs = 1 + rng.below(b.size() / 8 + 1);
    for (std::uint64_t d = 0; d < diffs; ++d) {
      b[rng.below(b.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
  }
}

// countDiffBytes against the naive byte loop: every length through four
// 64-byte blocks and past them, at every source offset a 16-byte lane can
// sit at; lengths on both sides of the 255-step u8 lane drain; one long run
// that drains many times; and the all-equal and empty cases the memcmp
// prefilter answers.
TEST(ScanKernel, MatchesNaiveByteLoop) {
  easycrash::Rng rng(0x5CA11);
  const auto check = [&](std::size_t n, std::size_t offset) {
    for (const DiffPattern pattern :
         {DiffPattern::Equal, DiffPattern::Sparse, DiffPattern::AllDifferent}) {
      std::vector<std::uint8_t> a(offset + n), b(offset + n);
      fillPair(rng, a, b, pattern);
      const std::uint8_t* pa = a.data() + offset;
      const std::uint8_t* pb = b.data() + offset;
      ASSERT_EQ(scan::countDiffBytes(pa, pb, n), naiveDiff(pa, pb, n))
          << "n=" << n << " offset=" << offset
          << " pattern=" << static_cast<int>(pattern);
      ASSERT_EQ(scan::countDiffBytes(pa, pa, n), 0u) << "n=" << n;
    }
  };
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t n = 0; n <= 4 * 64 + 17; ++n) check(n, offset);
  }
  constexpr std::size_t kDrainBytes = 16 * 255;
  for (std::size_t n = kDrainBytes - 17; n <= kDrainBytes + 33; ++n) check(n, n % 16);
  check(70000, 0);
  check(70000, 5);

  std::vector<std::uint8_t> a(192), b(192);
  fillPair(rng, a, b, DiffPattern::AllDifferent);
  EXPECT_EQ(scan::countDiffBytes(a.data(), b.data(), 0), 0u);
  EXPECT_EQ(scan::countDiffBytes(a.data(), b.data(), a.size()), a.size());
}

// ---------------------------------------------------------------------------
// Hierarchy differential: fast path vs scalar walk vs first-principles oracle.
// ---------------------------------------------------------------------------

/// Distinct dirty-anywhere blocks collected by brute force from the levels.
std::unordered_set<std::uint64_t> dirtyBlocksBruteForce(const ms::CacheHierarchy& h) {
  std::unordered_set<std::uint64_t> dirty;
  for (std::size_t i = 0; i < h.levelCount(); ++i) {
    const ms::CacheLevel& level = h.level(i);
    level.forEachValid([&](std::uint32_t line) {
      if (level.dirty(line)) dirty.insert(level.blockAddr(line));
    });
  }
  return dirty;
}

void expectDirtySetCoherent(const ms::CacheHierarchy& h, std::uint64_t footprint) {
  const auto expected = dirtyBlocksBruteForce(h);
  ASSERT_EQ(h.dirtyBlockCount(), expected.size());
  const std::uint32_t blockSize = h.config().blockSize;
  for (std::uint64_t base = 0; base < footprint; base += blockSize) {
    EXPECT_EQ(h.dirtyAnywhere(base), expected.count(base) != 0) << "block " << base;
  }
}

/// The value image equals NVM byte for byte over both images' extent, as it
/// must right after a power loss.
void expectImageEqualsNvm(const ms::NvmStore& values, const ms::NvmStore& nvm) {
  const std::uint64_t extent = std::max(values.imageBytes(), nvm.imageBytes());
  std::vector<std::uint8_t> current(extent), image(extent);
  values.read(0, current);
  nvm.read(0, image);
  ASSERT_TRUE(current == image);
}

/// inconsistentBytes from first principles: architectural value vs NVM image.
std::uint64_t oracleInconsistent(const ms::CacheHierarchy& h, const ms::NvmStore& nvm,
                                 std::uint64_t addr, std::uint64_t size) {
  std::vector<std::uint8_t> current(size), image(size);
  h.peek(addr, current);
  nvm.read(addr, image);
  return naiveDiff(current.data(), image.data(), size);
}

void runHierarchyDifferential(const ms::CacheConfig& config, std::uint64_t seed) {
  ms::NvmStore nvm(config.blockSize);
  ms::CacheHierarchy hier(config, nvm);
  constexpr std::uint64_t kFootprint = 8 * 1024;
  easycrash::Rng rng(seed);

  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t kind = rng.below(100);
    if (kind < 45) {
      const std::uint64_t size = rng.between(1, 160);
      const std::uint64_t addr = rng.below(kFootprint - size);
      std::vector<std::uint8_t> buf(size);
      for (auto& byte : buf) byte = static_cast<std::uint8_t>(rng.below(256));
      hier.store(addr, buf);
    } else if (kind < 70) {
      const std::uint64_t size = rng.between(1, 160);
      const std::uint64_t addr = rng.below(kFootprint - size);
      std::vector<std::uint8_t> buf(size);
      hier.load(addr, buf);
    } else if (kind < 80) {
      hier.flushBlock(rng.below(kFootprint), static_cast<ms::FlushKind>(rng.below(3)));
    } else if (kind < 88) {
      const std::uint64_t size = rng.between(1, 512);
      const std::uint64_t addr = rng.below(kFootprint - size);
      hier.flushRange(addr, size, static_cast<ms::FlushKind>(rng.below(3)));
    } else if (kind < 90) {
      hier.drainAll();
    } else if (kind < 91) {
      hier.invalidateAll();
      expectImageEqualsNvm(hier.values(), nvm);
    } else {
      // Post-mortem probe: fast vs scalar vs oracle on a random sub-range.
      const std::uint64_t size = rng.between(1, 2048);
      const std::uint64_t addr = rng.below(kFootprint - size);
      hier.setScanFastPath(true);
      const std::uint64_t fast = hier.inconsistentBytes(addr, size);
      hier.setScanFastPath(false);
      const std::uint64_t scalar = hier.inconsistentBytes(addr, size);
      hier.setScanFastPath(true);
      ASSERT_EQ(fast, scalar) << "op " << op;
      ASSERT_EQ(fast, oracleInconsistent(hier, nvm, addr, size)) << "op " << op;
    }
    if (op % 5000 == 0) expectDirtySetCoherent(hier, kFootprint);
  }
  expectDirtySetCoherent(hier, kFootprint);
  // Whole-footprint agreement at the end.
  const std::uint64_t fast = hier.inconsistentBytes(0, kFootprint);
  hier.setScanFastPath(false);
  const std::uint64_t scalar = hier.inconsistentBytes(0, kFootprint);
  hier.setScanFastPath(true);
  EXPECT_EQ(fast, scalar);
  EXPECT_EQ(fast, oracleInconsistent(hier, nvm, 0, kFootprint));
}

TEST(PostmortemEquiv, TinyGeometry) {
  runHierarchyDifferential(ms::CacheConfig::tiny(), 0xEC5EED01);
}

TEST(PostmortemEquiv, NonPowerOfTwoGeometry) {
  ms::CacheConfig config;
  config.blockSize = 64;
  config.levels = {{6ULL * 64, 2}, {10ULL * 64, 2}, {28ULL * 64, 4}};
  runHierarchyDifferential(config, 0xEC5EED02);
}

// After a crash (invalidateAll) the dirty set must be empty and the whole
// footprint consistent — the degenerate case the skip logic leans on.
TEST(PostmortemEquiv, EmptyIndexAfterPowerLoss) {
  ms::NvmStore nvm(64);
  ms::CacheHierarchy hier(ms::CacheConfig::tiny(), nvm);
  easycrash::Rng rng(0xDEAD);
  std::vector<std::uint8_t> buf(64);
  for (int i = 0; i < 200; ++i) {
    for (auto& byte : buf) byte = static_cast<std::uint8_t>(rng.below(256));
    hier.store(rng.below(4096 - buf.size()), buf);
  }
  EXPECT_GT(hier.dirtyBlockCount(), 0u);
  hier.invalidateAll();
  EXPECT_EQ(hier.dirtyBlockCount(), 0u);
  EXPECT_EQ(hier.inconsistentBytes(0, 4096), 0u);
  const auto& ev = hier.events();
  EXPECT_EQ(ev.postmortemBlocksCompared, 0u);
  EXPECT_EQ(ev.postmortemBlocksSkipped, 4096u / 64u);
}

// Property: whatever stores, flushes and evictions came before, a power
// loss leaves the value image equal to NVM byte for byte — over geometries
// where L1 is the LLC, where it is not, and where the LLC is tiny.
TEST(PostmortemEquiv, PowerLossLeavesValueImageEqualToNvm) {
  ms::CacheConfig single;
  single.blockSize = 64;
  single.levels = {{256, 2}};
  for (const ms::CacheConfig& config : {ms::CacheConfig::tiny(), single}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      ms::NvmStore nvm(config.blockSize);
      ms::CacheHierarchy hier(config, nvm);
      easycrash::Rng rng(seed);
      const std::uint64_t footprint = 64 * rng.between(4, 96);
      for (int op = 0; op < 400; ++op) {
        const std::uint64_t size = rng.between(1, 200);
        const std::uint64_t addr = rng.below(footprint);
        if (rng.below(4) != 0) {
          std::vector<std::uint8_t> buf(size);
          for (auto& byte : buf) byte = static_cast<std::uint8_t>(rng.below(256));
          hier.store(addr, buf);
        } else {
          hier.flushRange(addr, size, static_cast<ms::FlushKind>(rng.below(3)));
        }
      }
      hier.invalidateAll();
      expectImageEqualsNvm(hier.values(), nvm);
      hier.checkInvariants();
    }
  }
}

// The postmortem_* counters are fast-path diagnostics: the scalar walk must
// leave them untouched, and compared + skipped must tile the scanned range.
TEST(PostmortemEquiv, CountersOnlyOnFastPath) {
  ms::NvmStore nvm(64);
  ms::CacheHierarchy hier(ms::CacheConfig::tiny(), nvm);
  std::vector<std::uint8_t> buf(64, 0xAB);
  hier.store(0, buf);
  hier.store(640, buf);

  hier.setScanFastPath(false);
  (void)hier.inconsistentBytes(0, 4096);
  EXPECT_EQ(hier.events().postmortemBlocksCompared, 0u);
  EXPECT_EQ(hier.events().postmortemBlocksSkipped, 0u);
  EXPECT_EQ(hier.events().postmortemBytesCompared, 0u);

  hier.setScanFastPath(true);
  (void)hier.inconsistentBytes(0, 4096);
  EXPECT_EQ(hier.events().postmortemBlocksCompared, 2u);
  EXPECT_EQ(hier.events().postmortemBlocksSkipped, 4096u / 64u - 2u);
  EXPECT_EQ(hier.events().postmortemBytesCompared, 128u);
}

}  // namespace
