// Differential test of the optimised memory-system simulator against a
// naive reference model.
//
// The hot-path rework of CacheLevel/CacheHierarchy (shift/mask set indexing,
// MRU fast path, allocation-free eviction, single-probe flushes, counter
// caching) must be *observably identical* to the straightforward
// implementation: same MemEvents, same NVM image, same architecturally
// current values, same inconsistency measurements. This file re-implements
// the simulator in deliberately naive style — division and modulo, per-set
// linear probes, fresh allocations per operation — and drives both engines
// through ~100k seeded random operations, comparing after every step.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/common/rng.hpp"
#include "easycrash/memsim/hierarchy.hpp"

namespace ms = easycrash::memsim;

namespace {

// ---------------------------------------------------------------------------
// Reference model: naive value-tracking write-back hierarchy.
// ---------------------------------------------------------------------------

struct RefNvm {
  explicit RefNvm(std::uint32_t blockSize) : blockSize(blockSize) {}

  std::uint32_t blockSize;
  std::vector<std::uint8_t> image;
  std::uint64_t blockWrites = 0;

  void read(std::uint64_t addr, std::span<std::uint8_t> dst) const {
    for (std::uint64_t i = 0; i < dst.size(); ++i) {
      const std::uint64_t a = addr + i;
      dst[i] = a < image.size() ? image[a] : 0;
    }
  }

  void writeBlock(std::uint64_t addr, std::span<const std::uint8_t> src) {
    if (addr + blockSize > image.size()) image.resize(addr + blockSize, 0);
    std::copy(src.begin(), src.end(), image.begin() + static_cast<std::ptrdiff_t>(addr));
    ++blockWrites;
  }
};

struct RefLine {
  bool valid = false;
  bool dirty = false;
  std::uint64_t blockAddr = 0;
  std::uint64_t lastUse = 0;
  std::vector<std::uint8_t> data;
};

struct RefEvicted {
  std::uint64_t blockAddr = 0;
  bool dirty = false;
  std::vector<std::uint8_t> data;
};

/// One set-associative level: division/modulo indexing, linear probes.
struct RefLevel {
  RefLevel(const ms::CacheGeometry& g, std::uint32_t blockSize)
      : blockSize(blockSize), assoc(g.associativity) {
    const std::uint64_t numLines = g.sizeBytes / blockSize;
    sets = numLines / assoc;
    lines.resize(numLines);
    for (auto& l : lines) l.data.assign(blockSize, 0);
  }

  std::uint32_t blockSize;
  std::uint32_t assoc;
  std::uint64_t sets;
  std::uint64_t tick = 0;
  std::vector<RefLine> lines;

  [[nodiscard]] std::uint64_t setOf(std::uint64_t blockAddr) const {
    return (blockAddr / blockSize) % sets;
  }

  [[nodiscard]] std::optional<std::uint32_t> find(std::uint64_t blockAddr) const {
    const std::uint64_t base = setOf(blockAddr) * assoc;
    for (std::uint32_t way = 0; way < assoc; ++way) {
      const RefLine& l = lines[base + way];
      if (l.valid && l.blockAddr == blockAddr) {
        return static_cast<std::uint32_t>(base + way);
      }
    }
    return std::nullopt;
  }

  void touch(std::uint32_t line) { lines[line].lastUse = ++tick; }

  /// Insert a missing block; returns the victim if a valid line was evicted.
  std::optional<RefEvicted> insert(std::uint64_t blockAddr, std::uint32_t& outLine) {
    const std::uint64_t base = setOf(blockAddr) * assoc;
    std::uint32_t victimWay = 0;
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    bool foundInvalid = false;
    for (std::uint32_t way = 0; way < assoc; ++way) {
      const RefLine& l = lines[base + way];
      if (!l.valid) {
        victimWay = way;
        foundInvalid = true;
        break;
      }
      if (l.lastUse < oldest) {
        oldest = l.lastUse;
        victimWay = way;
      }
    }
    const auto idx = static_cast<std::uint32_t>(base + victimWay);
    RefLine& l = lines[idx];
    std::optional<RefEvicted> victim;
    if (!foundInvalid) {
      victim = RefEvicted{l.blockAddr, l.dirty, l.data};
    }
    l.valid = true;
    l.dirty = false;
    l.blockAddr = blockAddr;
    l.lastUse = ++tick;
    std::fill(l.data.begin(), l.data.end(), 0);
    outLine = idx;
    return victim;
  }

  RefEvicted extract(std::uint64_t blockAddr) {
    const auto idx = find(blockAddr);
    EXPECT_TRUE(idx.has_value());
    RefLine& l = lines[*idx];
    RefEvicted out{l.blockAddr, l.dirty, l.data};
    l.valid = false;
    l.dirty = false;
    return out;
  }
};

struct RefHierarchy {
  RefHierarchy(const ms::CacheConfig& config, RefNvm& nvm)
      : config(config), nvm(nvm) {
    for (const auto& g : config.levels) levels.emplace_back(g, config.blockSize);
  }

  ms::CacheConfig config;
  RefNvm& nvm;
  std::vector<RefLevel> levels;
  ms::MemEvents events;

  [[nodiscard]] std::uint64_t blockBase(std::uint64_t addr) const {
    return addr / config.blockSize * config.blockSize;
  }

  void handleEviction(std::size_t level, RefEvicted victim) {
    for (std::size_t upper = level; upper-- > 0;) {
      if (levels[upper].find(victim.blockAddr)) {
        RefEvicted upperCopy = levels[upper].extract(victim.blockAddr);
        if (upperCopy.dirty) {
          victim.data = upperCopy.data;
          victim.dirty = true;
        }
      }
    }
    if (level + 1 < levels.size()) {
      const auto below = levels[level + 1].find(victim.blockAddr);
      ASSERT_TRUE(below.has_value());
      if (victim.dirty) {
        levels[level + 1].lines[*below].data = victim.data;
        levels[level + 1].lines[*below].dirty = true;
      }
    } else if (victim.dirty) {
      nvm.writeBlock(victim.blockAddr, victim.data);
      ++events.nvmBlockWrites;
    }
  }

  void insertAt(std::size_t level, std::uint64_t blockAddr,
                const std::vector<std::uint8_t>& data) {
    std::uint32_t line = 0;
    auto victim = levels[level].insert(blockAddr, line);
    if (victim) handleEviction(level, std::move(*victim));
    levels[level].lines[line].data = data;
  }

  std::uint32_t ensureInL1(std::uint64_t blockAddr) {
    if (const auto l1 = levels[0].find(blockAddr)) {
      ++events.hits[0];
      levels[0].touch(*l1);
      return *l1;
    }
    ++events.misses[0];
    std::vector<std::uint8_t> block(config.blockSize, 0);
    std::size_t source = levels.size();
    for (std::size_t i = 1; i < levels.size(); ++i) {
      if (const auto line = levels[i].find(blockAddr)) {
        ++events.hits[i];
        levels[i].touch(*line);
        block = levels[i].lines[*line].data;
        source = i;
        break;
      }
      ++events.misses[i];
    }
    if (source == levels.size()) {
      nvm.read(blockAddr, block);
      ++events.nvmBlockReads;
    }
    for (std::size_t i = source; i-- > 0;) {
      insertAt(i, blockAddr, block);
    }
    const auto l1 = levels[0].find(blockAddr);
    EXPECT_TRUE(l1.has_value());
    return *l1;
  }

  void load(std::uint64_t addr, std::span<std::uint8_t> dst) {
    std::uint64_t offset = 0;
    while (offset < dst.size()) {
      const std::uint64_t a = addr + offset;
      const std::uint64_t base = blockBase(a);
      const std::uint64_t off = a - base;
      const std::uint64_t chunk =
          std::min<std::uint64_t>(config.blockSize - off, dst.size() - offset);
      const std::uint32_t line = ensureInL1(base);
      std::memcpy(dst.data() + offset, levels[0].lines[line].data.data() + off, chunk);
      ++events.loads;
      offset += chunk;
    }
  }

  void store(std::uint64_t addr, std::span<const std::uint8_t> src) {
    std::uint64_t offset = 0;
    while (offset < src.size()) {
      const std::uint64_t a = addr + offset;
      const std::uint64_t base = blockBase(a);
      const std::uint64_t off = a - base;
      const std::uint64_t chunk =
          std::min<std::uint64_t>(config.blockSize - off, src.size() - offset);
      const std::uint32_t line = ensureInL1(base);
      std::memcpy(levels[0].lines[line].data.data() + off, src.data() + offset, chunk);
      levels[0].lines[line].dirty = true;
      ++events.stores;
      offset += chunk;
    }
  }

  void flushBlock(std::uint64_t addr, ms::FlushKind kind) {
    const std::uint64_t base = blockBase(addr);
    std::size_t lowest = levels.size();
    bool dirtyAnywhere = false;
    for (std::size_t i = 0; i < levels.size(); ++i) {
      if (const auto line = levels[i].find(base)) {
        if (lowest == levels.size()) lowest = i;
        dirtyAnywhere = dirtyAnywhere || levels[i].lines[*line].dirty;
      }
    }
    if (lowest == levels.size()) {
      ++events.flushNonResident;
      return;
    }
    if (dirtyAnywhere) {
      const std::vector<std::uint8_t> freshest =
          levels[lowest].lines[*levels[lowest].find(base)].data;
      nvm.writeBlock(base, freshest);
      ++events.nvmBlockWrites;
      ++events.flushInducedNvmWrites;
      ++events.flushDirty;
      for (std::size_t i = lowest; i < levels.size(); ++i) {
        if (const auto line = levels[i].find(base)) {
          levels[i].lines[*line].data = freshest;
          levels[i].lines[*line].dirty = false;
        }
      }
    } else {
      ++events.flushClean;
    }
    if (kind != ms::FlushKind::Clwb) {
      for (auto& level : levels) {
        if (const auto line = level.find(base)) {
          level.lines[*line].valid = false;
          level.lines[*line].dirty = false;
        }
      }
    }
  }

  void flushRange(std::uint64_t addr, std::uint64_t size, ms::FlushKind kind) {
    if (size == 0) return;
    const std::uint64_t first = blockBase(addr);
    const std::uint64_t last = blockBase(addr + size - 1);
    for (std::uint64_t b = first; b <= last; b += config.blockSize) {
      flushBlock(b, kind);
    }
  }

  void peek(std::uint64_t addr, std::span<std::uint8_t> dst) const {
    for (std::uint64_t i = 0; i < dst.size(); ++i) {
      const std::uint64_t a = addr + i;
      const std::uint64_t base = a / config.blockSize * config.blockSize;
      bool found = false;
      for (const auto& level : levels) {
        if (const auto line = level.find(base)) {
          dst[i] = level.lines[*line].data[a - base];
          found = true;
          break;
        }
      }
      if (!found) nvm.read(a, {&dst[i], 1});
    }
  }

  [[nodiscard]] std::uint64_t inconsistentBytes(std::uint64_t addr,
                                                std::uint64_t size) const {
    if (size == 0) return 0;
    std::uint64_t count = 0;
    const std::uint64_t first = addr / config.blockSize * config.blockSize;
    const std::uint64_t last = (addr + size - 1) / config.blockSize * config.blockSize;
    for (std::uint64_t base = first; base <= last; base += config.blockSize) {
      bool dirtyAnywhere = false;
      std::size_t lowest = levels.size();
      for (std::size_t i = 0; i < levels.size(); ++i) {
        if (const auto line = levels[i].find(base)) {
          if (lowest == levels.size()) lowest = i;
          dirtyAnywhere = dirtyAnywhere || levels[i].lines[*line].dirty;
        }
      }
      if (!dirtyAnywhere) continue;
      const auto& cached = levels[lowest].lines[*levels[lowest].find(base)].data;
      std::vector<std::uint8_t> nvmBlock(config.blockSize);
      nvm.read(base, nvmBlock);
      const std::uint64_t lo = std::max(base, addr);
      const std::uint64_t hi = std::min(base + config.blockSize, addr + size);
      for (std::uint64_t b = lo; b < hi; ++b) {
        if (cached[b - base] != nvmBlock[b - base]) ++count;
      }
    }
    return count;
  }

  void drainAll() {
    for (std::size_t i = 0; i + 1 < levels.size(); ++i) {
      for (auto& line : levels[i].lines) {
        if (!line.valid || !line.dirty) continue;
        const auto below = levels[i + 1].find(line.blockAddr);
        ASSERT_TRUE(below.has_value());
        levels[i + 1].lines[*below].data = line.data;
        levels[i + 1].lines[*below].dirty = true;
        line.dirty = false;
      }
    }
    for (auto& line : levels.back().lines) {
      if (!line.valid || !line.dirty) continue;
      nvm.writeBlock(line.blockAddr, line.data);
      ++events.nvmBlockWrites;
      line.dirty = false;
    }
  }

  void invalidateAll() {
    for (auto& level : levels) {
      for (auto& line : level.lines) {
        line.valid = false;
        line.dirty = false;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Differential driver.
// ---------------------------------------------------------------------------

void expectSameEvents(const ms::MemEvents& a, const ms::MemEvents& b,
                      std::uint64_t step) {
  ASSERT_EQ(a.loads, b.loads) << "step " << step;
  ASSERT_EQ(a.stores, b.stores) << "step " << step;
  for (std::size_t i = 0; i < ms::kMaxLevels; ++i) {
    ASSERT_EQ(a.hits[i], b.hits[i]) << "level " << i << " step " << step;
    ASSERT_EQ(a.misses[i], b.misses[i]) << "level " << i << " step " << step;
  }
  ASSERT_EQ(a.nvmBlockReads, b.nvmBlockReads) << "step " << step;
  ASSERT_EQ(a.nvmBlockWrites, b.nvmBlockWrites) << "step " << step;
  ASSERT_EQ(a.flushDirty, b.flushDirty) << "step " << step;
  ASSERT_EQ(a.flushClean, b.flushClean) << "step " << step;
  ASSERT_EQ(a.flushNonResident, b.flushNonResident) << "step " << step;
  ASSERT_EQ(a.flushInducedNvmWrites, b.flushInducedNvmWrites) << "step " << step;
}

void expectSameNvm(const ms::NvmStore& real, const RefNvm& ref, std::uint64_t step) {
  ASSERT_EQ(real.blockWrites(), ref.blockWrites) << "step " << step;
  // Images may differ in materialised length; compare over the longer span
  // (unbacked bytes read as zero in both models).
  const std::uint64_t span = std::max<std::uint64_t>(real.imageBytes(), ref.image.size());
  std::vector<std::uint8_t> a(span), b(span);
  real.read(0, a);
  ref.read(0, b);
  ASSERT_EQ(a, b) << "NVM image differs at step " << step;
}

/// Drive both engines through `kOps` seeded random operations — stores,
/// loads, single-block and range flushes of every kind, peeks with
/// inconsistency counts, drains, power losses and self-checks — comparing
/// events after every step and NVM images periodically.
void runRandomOps(const ms::CacheConfig& config, std::uint64_t seed, std::uint64_t kOps) {
  ms::NvmStore nvm(config.blockSize);
  ms::CacheHierarchy real(config, nvm);
  RefNvm refNvm(config.blockSize);
  RefHierarchy ref(config, refNvm);

  easycrash::Rng rng(seed);
  // Footprint of 8 KiB >> every LLC below (at most 1 KiB): plenty of natural
  // evictions.
  constexpr std::uint64_t kFootprint = 8 * 1024;
  std::vector<std::uint8_t> buf, refBuf;

  for (std::uint64_t step = 0; step < kOps; ++step) {
    const std::uint64_t op = rng.below(100);
    if (op < 40) {  // store
      const std::uint64_t size = rng.between(1, 160);
      const std::uint64_t addr = rng.below(kFootprint - size);
      buf.resize(size);
      for (auto& byte : buf) byte = static_cast<std::uint8_t>(rng.below(256));
      real.store(addr, buf);
      ref.store(addr, buf);
    } else if (op < 70) {  // load, values must agree
      const std::uint64_t size = rng.between(1, 160);
      const std::uint64_t addr = rng.below(kFootprint - size);
      buf.assign(size, 0xAA);
      refBuf.assign(size, 0x55);
      real.load(addr, buf);
      ref.load(addr, refBuf);
      ASSERT_EQ(buf, refBuf) << "loaded values differ at step " << step;
    } else if (op < 85) {  // flush one block, all three instruction classes
      const std::uint64_t addr = rng.below(kFootprint);
      const auto kind = static_cast<ms::FlushKind>(rng.below(3));
      real.flushBlock(addr, kind);
      ref.flushBlock(addr, kind);
    } else if (op < 92) {  // flush a range
      const std::uint64_t size = rng.between(1, 512);
      const std::uint64_t addr = rng.below(kFootprint - size);
      const auto kind = static_cast<ms::FlushKind>(rng.below(3));
      real.flushRange(addr, size, kind);
      ref.flushRange(addr, size, kind);
    } else if (op < 96) {  // peek + inconsistency, both must agree
      const std::uint64_t size = rng.between(1, 256);
      const std::uint64_t addr = rng.below(kFootprint - size);
      buf.assign(size, 0xAA);
      refBuf.assign(size, 0x55);
      real.peek(addr, buf);
      ref.peek(addr, refBuf);
      ASSERT_EQ(buf, refBuf) << "peeked values differ at step " << step;
      ASSERT_EQ(real.inconsistentBytes(addr, size), ref.inconsistentBytes(addr, size))
          << "inconsistency differs at step " << step;
    } else if (op < 98) {  // checkpoint drain
      real.drainAll();
      ref.drainAll();
    } else if (op < 99) {  // power loss
      real.invalidateAll();
      ref.invalidateAll();
    } else {  // structural self-check of the optimised engine
      real.checkInvariants();
    }

    expectSameEvents(real.events(), ref.events, step);
    if (step % 1024 == 0 || step + 1 == kOps) {
      expectSameNvm(nvm, refNvm, step);
      ASSERT_EQ(real.inconsistentBytes(0, kFootprint),
                ref.inconsistentBytes(0, kFootprint))
          << "whole-footprint inconsistency differs at step " << step;
    }
  }

  // Final settlement: drain everything and require identical NVM images.
  real.drainAll();
  ref.drainAll();
  expectSameEvents(real.events(), ref.events, kOps);
  expectSameNvm(nvm, refNvm, kOps);
  EXPECT_EQ(real.inconsistentBytes(0, kFootprint), 0u);
}

TEST(MemsimEquivalence, RandomOpsMatchNaiveReference) {
  runRandomOps(ms::CacheConfig::tiny(), 0xEC5EED, 100000);
}

// L1 is the LLC: stores mark the LLC line itself dirty, and no level sits
// above the one that evicts.
TEST(MemsimEquivalence, RandomOpsMatchNaiveReferenceOneLevel) {
  ms::CacheConfig config;
  config.name = "one-level";
  config.blockSize = 64;
  config.levels = {{512, 2}};
  config.validate();
  runRandomOps(config, 0x1EE7, 50000);
}

// The level below L1 is the LLC: an L1 victim's dirtiness moves straight to
// the LLC line.
TEST(MemsimEquivalence, RandomOpsMatchNaiveReferenceTwoLevels) {
  ms::CacheConfig config;
  config.name = "two-level";
  config.blockSize = 64;
  config.levels = {{256, 2}, {1024, 4}};
  config.validate();
  runRandomOps(config, 0x2EE7, 50000);
}

// The same differential driver over a non-power-of-two set count exercises
// the modulo fallback of the optimised set indexing (the paper's Xeon Gold
// 6126 L3 — 19.25 MB / 11-way — has 28672 sets, so this path is load-bearing
// for the flagship configuration).
TEST(MemsimEquivalence, NonPowerOfTwoSetsMatchNaiveReference) {
  ms::CacheConfig config;
  config.name = "np2";
  config.blockSize = 64;
  // 3 sets in L1 (6 lines / 2-way), 5 sets in L2, 7 sets in L3.
  config.levels = {{6ULL * 64, 2}, {10ULL * 64, 2}, {28ULL * 64, 4}};
  config.validate();

  ms::NvmStore nvm(config.blockSize);
  ms::CacheHierarchy real(config, nvm);
  RefNvm refNvm(config.blockSize);
  RefHierarchy ref(config, refNvm);

  easycrash::Rng rng(0xC0FFEE);
  constexpr std::uint64_t kFootprint = 4 * 1024;
  constexpr std::uint64_t kOps = 20000;
  std::vector<std::uint8_t> buf, refBuf;

  for (std::uint64_t step = 0; step < kOps; ++step) {
    const std::uint64_t op = rng.below(10);
    const std::uint64_t size = rng.between(1, 96);
    const std::uint64_t addr = rng.below(kFootprint - size);
    if (op < 4) {
      buf.resize(size);
      for (auto& byte : buf) byte = static_cast<std::uint8_t>(rng.below(256));
      real.store(addr, buf);
      ref.store(addr, buf);
    } else if (op < 8) {
      buf.assign(size, 0xAA);
      refBuf.assign(size, 0x55);
      real.load(addr, buf);
      ref.load(addr, refBuf);
      ASSERT_EQ(buf, refBuf) << "loaded values differ at step " << step;
    } else {
      const auto kind = static_cast<ms::FlushKind>(rng.below(3));
      real.flushBlock(addr, kind);
      ref.flushBlock(addr, kind);
    }
    expectSameEvents(real.events(), ref.events, step);
  }
  real.drainAll();
  ref.drainAll();
  expectSameEvents(real.events(), ref.events, kOps);
  expectSameNvm(nvm, refNvm, kOps);
}

// ---------------------------------------------------------------------------
// Range fast path vs element-wise scalar path.
//
// Two instances of the REAL engine over identical NVM stores: one driven
// through loadRange/storeRange, the other through the ascending element-wise
// loop each range call claims to be equivalent to. Every semantic counter,
// loaded value, NVM image and inconsistency measurement must match at every
// step — only the rangeLoads/rangeStores/rangeSplitBlocks diagnostics (which
// expectSameEvents deliberately ignores) may differ. Spans straddle block
// boundaries and start/end at unaligned byte addresses by construction.
// ---------------------------------------------------------------------------

void elementwiseLoad(ms::CacheHierarchy& h, std::uint64_t addr,
                     std::span<std::uint8_t> dst, std::uint32_t elemSize) {
  for (std::uint64_t off = 0; off < dst.size(); off += elemSize) {
    h.load(addr + off, dst.subspan(off, elemSize));
  }
}

void elementwiseStore(ms::CacheHierarchy& h, std::uint64_t addr,
                      std::span<const std::uint8_t> src, std::uint32_t elemSize) {
  for (std::uint64_t off = 0; off < src.size(); off += elemSize) {
    h.store(addr + off, src.subspan(off, elemSize));
  }
}

void expectSameNvmStores(const ms::NvmStore& a, const ms::NvmStore& b,
                         std::uint64_t step) {
  ASSERT_EQ(a.blockWrites(), b.blockWrites()) << "step " << step;
  const std::uint64_t span = std::max(a.imageBytes(), b.imageBytes());
  std::vector<std::uint8_t> bufA(span), bufB(span);
  a.read(0, bufA);
  b.read(0, bufB);
  ASSERT_EQ(bufA, bufB) << "NVM image differs at step " << step;
}

void driveRangeVsElementwise(const ms::CacheConfig& config, std::uint64_t seed,
                             std::uint64_t ops) {
  ms::NvmStore nvmBulk(config.blockSize);
  ms::NvmStore nvmScalar(config.blockSize);
  ms::CacheHierarchy bulk(config, nvmBulk);
  ms::CacheHierarchy scalar(config, nvmScalar);

  easycrash::Rng rng(seed);
  constexpr std::uint64_t kFootprint = 8 * 1024;
  constexpr std::uint32_t kElemSizes[] = {1, 2, 4, 8, 16};
  std::vector<std::uint8_t> buf, refBuf;

  for (std::uint64_t step = 0; step < ops; ++step) {
    const std::uint64_t op = rng.below(100);
    if (op < 35) {  // bulk store vs element-wise store
      const std::uint32_t elemSize = kElemSizes[rng.below(5)];
      const std::uint64_t count = rng.between(1, 48);
      const std::uint64_t bytes = count * elemSize;
      const std::uint64_t addr = rng.below(kFootprint - bytes);
      buf.resize(bytes);
      for (auto& byte : buf) byte = static_cast<std::uint8_t>(rng.below(256));
      bulk.storeRange(addr, buf, elemSize);
      elementwiseStore(scalar, addr, buf, elemSize);
    } else if (op < 70) {  // bulk load vs element-wise load, values must agree
      const std::uint32_t elemSize = kElemSizes[rng.below(5)];
      const std::uint64_t count = rng.between(1, 48);
      const std::uint64_t bytes = count * elemSize;
      const std::uint64_t addr = rng.below(kFootprint - bytes);
      buf.assign(bytes, 0xAA);
      refBuf.assign(bytes, 0x55);
      bulk.loadRange(addr, buf, elemSize);
      elementwiseLoad(scalar, addr, refBuf, elemSize);
      ASSERT_EQ(buf, refBuf) << "range-loaded values differ at step " << step;
    } else if (op < 80) {  // interleaved scalar traffic perturbs both equally
      const std::uint64_t size = rng.between(1, 96);
      const std::uint64_t addr = rng.below(kFootprint - size);
      buf.resize(size);
      for (auto& byte : buf) byte = static_cast<std::uint8_t>(rng.below(256));
      bulk.store(addr, buf);
      scalar.store(addr, buf);
    } else if (op < 88) {  // flushes interact with range-written dirty state
      const std::uint64_t size = rng.between(1, 512);
      const std::uint64_t addr = rng.below(kFootprint - size);
      const auto kind = static_cast<ms::FlushKind>(rng.below(3));
      bulk.flushRange(addr, size, kind);
      scalar.flushRange(addr, size, kind);
    } else if (op < 94) {  // peek + inconsistency must agree
      const std::uint64_t size = rng.between(1, 256);
      const std::uint64_t addr = rng.below(kFootprint - size);
      buf.assign(size, 0xAA);
      refBuf.assign(size, 0x55);
      bulk.peek(addr, buf);
      scalar.peek(addr, refBuf);
      ASSERT_EQ(buf, refBuf) << "peeked values differ at step " << step;
      ASSERT_EQ(bulk.inconsistentBytes(addr, size),
                scalar.inconsistentBytes(addr, size))
          << "inconsistency differs at step " << step;
    } else if (op < 97) {  // checkpoint drain
      bulk.drainAll();
      scalar.drainAll();
    } else if (op < 99) {  // power loss
      bulk.invalidateAll();
      scalar.invalidateAll();
    } else {
      bulk.checkInvariants();
      scalar.checkInvariants();
    }

    expectSameEvents(bulk.events(), scalar.events(), step);
    if (step % 1024 == 0 || step + 1 == ops) {
      expectSameNvmStores(nvmBulk, nvmScalar, step);
    }
  }

  bulk.drainAll();
  scalar.drainAll();
  expectSameEvents(bulk.events(), scalar.events(), ops);
  expectSameNvmStores(nvmBulk, nvmScalar, ops);
  // The diagnostics are the only permitted divergence — and they must prove
  // the fast path actually ran (and split blocks) on the bulk side only.
  EXPECT_GT(bulk.events().rangeLoads, 0u);
  EXPECT_GT(bulk.events().rangeStores, 0u);
  EXPECT_GT(bulk.events().rangeSplitBlocks,
            bulk.events().rangeLoads + bulk.events().rangeStores)
      << "multi-block spans must split";
  EXPECT_EQ(scalar.events().rangeLoads, 0u);
  EXPECT_EQ(scalar.events().rangeStores, 0u);
  EXPECT_EQ(scalar.events().rangeSplitBlocks, 0u);
}

TEST(MemsimEquivalence, RangeAccessesMatchElementwise) {
  driveRangeVsElementwise(ms::CacheConfig::tiny(), 0xB01DFACE, 40000);
}

TEST(MemsimEquivalence, RangeAccessesMatchElementwiseNonPowerOfTwoSets) {
  ms::CacheConfig config;
  config.name = "np2-range";
  config.blockSize = 64;
  config.levels = {{6ULL * 64, 2}, {10ULL * 64, 2}, {28ULL * 64, 4}};
  config.validate();
  driveRangeVsElementwise(config, 0xFACADE, 20000);
}

}  // namespace
