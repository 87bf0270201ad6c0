#include "easycrash/memsim/hierarchy.hpp"

#include <algorithm>
#include <bit>

#include "easycrash/common/check.hpp"
#include "easycrash/memsim/scan.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash::memsim {

namespace {

std::vector<CacheLevel> buildLevels(const CacheConfig& config) {
  config.validate();
  EC_CHECK_MSG(config.levels.size() <= kMaxLevels, "too many cache levels");
  std::vector<CacheLevel> levels;
  levels.reserve(config.levels.size());
  for (const CacheGeometry& g : config.levels) levels.emplace_back(g, config.blockSize);
  return levels;
}

/// Visit the set bits of `mask` in ascending order: fn(bit).
template <typename Fn>
void forEachBit(std::uint64_t mask, Fn&& fn) {
  while (mask != 0) {
    fn(static_cast<std::uint32_t>(std::countr_zero(mask)));
    mask &= mask - 1;
  }
}

}  // namespace

CacheHierarchy::CacheHierarchy(CacheConfig config, NvmStore& nvm)
    : config_(std::move(config)),
      blockMask_(config_.blockSize - 1),
      blockShift_(static_cast<std::uint32_t>(std::countr_zero(config_.blockSize))),
      nvm_(nvm),
      levels_(buildLevels(config_)),
      values_(config_.blockSize) {
  EC_CHECK(nvm_.blockSize() == config_.blockSize);
  const std::uint32_t llcLines = levels_.back().lineCount();
  holders_.assign(llcLines, 0);
  dirtyHolders_.assign(llcLines, 0);
  upperLine_.assign(static_cast<std::size_t>(llcLines) * llcLevel(), 0);
  llcLineOf_.reserve(llcLevel());
  for (std::size_t u = 0; u < llcLevel(); ++u) llcLineOf_.emplace_back(levels_[u].lineCount(), 0);
  scanImage_.resize(config_.blockSize);
}

std::uint32_t CacheHierarchy::fillUpper(std::size_t level, std::uint64_t blockAddr,
                                        std::uint32_t llcLine) {
  const auto u = static_cast<std::uint32_t>(level);
  const std::uint32_t line = levels_[level].victim(blockAddr);
  // Inclusion: the victim's copies above this level go with it, and their
  // dirtiness moves to the level below.
  if (levels_[level].valid(line)) dropUpper(u, line);
  installUpper(u, line, blockAddr, llcLine);
  return line;
}

std::uint32_t CacheHierarchy::ensureInL1(std::uint64_t blockAddr) {
  if (profileShift_ != 0) {
    const std::size_t bucket = static_cast<std::size_t>(blockAddr >> profileShift_);
    if (bucket >= accessProfile_.size()) accessProfile_.resize(bucket + 1, 0);
    ++accessProfile_[bucket];
  }
  // Inclusion: a block L1 holds sits in the LLC, whose line's holder mask
  // names L1's copy (and in a one-level hierarchy the LLC line is L1's).
  const std::uint32_t llcLine = llcLineOfBlock(blockAddr);
  if (llcLine != kNoLine && (llcLevel() == 0 || (holders_[llcLine] & 1) != 0)) {
    const std::uint32_t l1 = llcLevel() == 0 ? llcLine : upperLine(llcLine, 0);
    ++events_.hits[0];
    levels_[0].touch(l1);
    return l1;
  }
  return fillToL1(blockAddr, llcLine);
}

void CacheHierarchy::enableAccessProfile(std::uint32_t strideBytes) {
  const std::uint32_t stride = std::max(strideBytes, config_.blockSize);
  std::uint32_t shift = 0;
  while ((1u << shift) < stride) ++shift;  // round up to a power of two
  profileShift_ = shift;
}

std::uint32_t CacheHierarchy::fillToL1(std::uint64_t blockAddr, std::uint32_t llcLine) {
  ++events_.misses[0];
  const std::size_t llc = llcLevel();

  // Find the closest level below L1 holding the block from its LLC line's
  // holder mask (inclusion: a block absent from the LLC is cached nowhere,
  // and one present sits in exactly the levels its mask names).
  std::size_t source = llc + 1;  // llc + 1 == NVM
  if (llcLine != kNoLine) {
    const std::uint64_t held = holders_[llcLine];
    EC_DCHECK_MSG((held & 1) == 0, "L1 miss on a block L1 holds");
    source = held != 0 ? static_cast<std::size_t>(std::countr_zero(held)) : llc;
  }
  for (std::size_t i = 1; i < source && i <= llc; ++i) ++events_.misses[i];
  if (source <= llc) {
    ++events_.hits[source];
    levels_[source].touch(source == llc ? llcLine
                                        : upperLine(llcLine, static_cast<std::uint32_t>(source)));
  } else {
    // Make the block resident in the LLC, evicting the set's victim first.
    ++events_.nvmBlockReads;
    llcLine = levels_[llc].victim(blockAddr);
    if (levels_[llc].valid(llcLine)) evictLlc(llcLine);
    EC_DCHECK_MSG(holders_[llcLine] == 0 && dirtyHolders_[llcLine] == 0,
                  "empty LLC line carries holder masks");
    levels_[llc].fill(llcLine, blockAddr);
    const std::uint64_t block = blockAddr >> blockShift_;
    if (block >= llcLineOfBlock_.size()) {
      // Grow to the image's blocks at once, so a footprint the run stored
      // first costs one resize.
      const std::uint64_t imageBlocks = values_.imageBytes() >> blockShift_;
      llcLineOfBlock_.resize(std::max(block + 1, imageBlocks), kNoLine);
    }
    llcLineOfBlock_[block] = llcLine;
    source = llc;
  }

  // Fill every level above the source (inclusive hierarchy), bottom-up so a
  // lower-level eviction can still back-invalidate consistently. When L1 is
  // the LLC there is nothing above it.
  std::uint32_t l1Line = llcLine;
  for (std::size_t i = source; i-- > 0;) l1Line = fillUpper(i, blockAddr, llcLine);
  return l1Line;
}

template <bool kStore>
void CacheHierarchy::accessSlow(std::uint64_t addr, AccessSpan<kStore> bytes) {
  // The whole access falls inside one block (every scalar access of an
  // aligned element): one probe, one memcpy.
  const std::uint64_t inBlock = addr & blockMask_;
  if (!bytes.empty() && inBlock + bytes.size() <= config_.blockSize) {
    moveSegment<kStore>(ensureInL1(addr - inBlock), addr, bytes, 1);
    return;
  }
  // A multi-block access is one element: one micro-access per block.
  walk<kStore>(addr, bytes, bytes.size());
}
template void CacheHierarchy::accessSlow<false>(std::uint64_t, AccessSpan<false>);
template void CacheHierarchy::accessSlow<true>(std::uint64_t, AccessSpan<true>);

template <bool kStore>
std::uint64_t CacheHierarchy::walk(std::uint64_t addr, AccessSpan<kStore> bytes,
                                   std::uint64_t elemSize) {
  std::uint64_t blocks = 0;
  for (std::uint64_t offset = 0; offset < bytes.size(); ++blocks) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - (a & blockMask_), bytes.size() - offset);
    // Logical elements overlapping this block segment (a straddling element
    // belongs to both of its blocks, as the scalar chunk loop counts it).
    const std::uint64_t touches = (offset + chunk - 1) / elemSize - offset / elemSize + 1;
    // Resident first: a write-back the fill triggers sees the new bytes of
    // the blocks already stored and the old bytes of the rest.
    const std::uint32_t l1 = ensureInL1(blockBase(a));
    events_.hits[0] += touches - 1;
    moveSegment<kStore>(l1, a, bytes.subspan(offset, chunk), touches);
    offset += chunk;
  }
  return blocks;
}

template <bool kStore>
void CacheHierarchy::accessRange(std::uint64_t addr, AccessSpan<kStore> bytes,
                                 std::uint32_t elemSize) {
  EC_CHECK(elemSize > 0);
  if (bytes.empty()) return;
  ++(kStore ? events_.rangeStores : events_.rangeLoads);
  events_.rangeSplitBlocks += walk<kStore>(addr, bytes, elemSize);
}
template void CacheHierarchy::accessRange<false>(std::uint64_t, AccessSpan<false>,
                                                 std::uint32_t);
template void CacheHierarchy::accessRange<true>(std::uint64_t, AccessSpan<true>,
                                                std::uint32_t);

void CacheHierarchy::flushRange(std::uint64_t addr, std::uint64_t size,
                                FlushKind kind) {
  if (size == 0) return;
  const FlushTally t = flush(addr, size, kind);
  if (telemetry::tracing()) {
    telemetry::TraceEvent("flush_burst")
        .field("addr", addr)
        .field("bytes", size)
        .field("blocks", t.dirty + t.clean + t.nonResident)
        .field("dirty", t.dirty)
        .field("clean", t.clean)
        .field("non_resident", t.nonResident)
        .field("nvm_writes", t.dirty)
        .emit();
  }
}

CacheHierarchy::FlushTally CacheHierarchy::flush(std::uint64_t addr, std::uint64_t size,
                                                 FlushKind kind) {
  FlushTally tally;
  const std::uint64_t last = blockBase(addr + size - 1);
  for (std::uint64_t b = blockBase(addr); b <= last; b += config_.blockSize) {
    const std::uint32_t line = llcLineOfBlock(b);
    if (line == kNoLine) {  // inclusion: cached nowhere
      ++tally.nonResident;
      continue;
    }
    if (dirtyAnywhereLine(line)) {
      writeBack(b);
      clean(line);
      ++tally.dirty;
    } else {
      ++tally.clean;
    }
    if (kind != FlushKind::Clwb) evictLlc(line);  // every copy is clean now: no write
  }
  events_.flushDirty += tally.dirty;
  events_.flushClean += tally.clean;
  events_.flushNonResident += tally.nonResident;
  events_.flushInducedNvmWrites += tally.dirty;
  return tally;
}

void CacheHierarchy::evictLlc(std::uint32_t llcLine) {
  CacheLevel& llc = levels_.back();
  const bool dirty = dirtyAnywhereLine(llcLine);
  forEachBit(holders_[llcLine], [&](std::uint32_t u) {
    const std::uint32_t line = upperLine(llcLine, u);
    EC_DCHECK_MSG(levels_[u].blockAddr(line) == llc.blockAddr(llcLine),
                  "holder link names another block");
    levels_[u].invalidateLine(line);
  });
  holders_[llcLine] = 0;
  dirtyHolders_[llcLine] = 0;
  const std::uint64_t blockAddr = llc.blockAddr(llcLine);
  if (dirty) {
    writeBack(blockAddr);
    dirtyListStale_ = true;
  }
  llcLineOfBlock_[blockAddr >> blockShift_] = kNoLine;
  llc.invalidateLine(llcLine);
}

void CacheHierarchy::installUpper(std::uint32_t u, std::uint32_t line,
                                  std::uint64_t blockAddr, std::uint32_t llcLine) {
  EC_DCHECK_MSG(levels_.back().blockAddr(llcLine) == blockAddr,
                "inclusion: block not in the LLC line");
  EC_DCHECK_MSG((holders_[llcLine] >> u & 1) == 0, "upper level already holds the block");
  levels_[u].fill(line, blockAddr);
  llcLineOf_[u][line] = llcLine;
  upperLine_[static_cast<std::size_t>(llcLine) * llcLevel() + u] = line;
  holders_[llcLine] |= 1ULL << u;
}

void CacheHierarchy::dropUpper(std::uint32_t u, std::uint32_t line) {
  const std::uint32_t llcLine = llcLineOf_[u][line];
  EC_DCHECK_MSG((holders_[llcLine] >> u & 1) != 0 && upperLine(llcLine, u) == line,
                "upper line not linked from its LLC line");
  // Levels 0..u: inclusion puts any copy above level u there.
  const std::uint64_t drop = holders_[llcLine] & ((2ULL << u) - 1);
  const bool dirty = (dirtyHolders_[llcLine] & drop) != 0;
  forEachBit(drop, [&](std::uint32_t k) {
    const std::uint32_t kLine = upperLine(llcLine, k);
    EC_DCHECK_MSG(levels_[k].dirty(kLine) == ((dirtyHolders_[llcLine] >> k & 1) != 0),
                  "dirty-holder mask out of sync");
    levels_[k].invalidateLine(kLine);
  });
  holders_[llcLine] &= ~drop;
  dirtyHolders_[llcLine] &= ~drop;
  if (!dirty) return;
  // The level below holds the block by inclusion.
  const std::uint32_t below = u + 1;
  if (below == llcLevel()) {
    markLlcDirty(llcLine);
  } else {
    markUpperDirty(below, upperLine(llcLine, below));
  }
}

void CacheHierarchy::markUpperDirty(std::uint32_t u, std::uint32_t line) {
  const std::uint32_t llcLine = llcLineOf_[u][line];
  EC_DCHECK_MSG((holders_[llcLine] >> u & 1) != 0, "dirty bit on a block the level does not hold");
  levels_[u].setDirty(line, true);
  dirtyHolders_[llcLine] |= 1ULL << u;
  dirtyListStale_ = true;
}

void CacheHierarchy::markLlcDirty(std::uint32_t llcLine) {
  levels_.back().setDirty(llcLine, true);
  dirtyListStale_ = true;
}

void CacheHierarchy::writeBack(std::uint64_t blockAddr) {
  // A block is dirty only after a store, which backed it in the image.
  nvm_.writeBlock(blockAddr, values_.blockView(blockAddr));
  ++events_.nvmBlockWrites;
}

void CacheHierarchy::clean(std::uint32_t llcLine) {
  forEachBit(dirtyHolders_[llcLine], [&](std::uint32_t u) {
    levels_[u].setDirty(upperLine(llcLine, u), false);
  });
  dirtyHolders_[llcLine] = 0;
  levels_.back().setDirty(llcLine, false);
  dirtyListStale_ = true;
}

void CacheHierarchy::drainAll() {
  const CacheLevel& llc = levels_.back();
  llc.forEachValid([&](std::uint32_t line) {
    if (!dirtyAnywhereLine(line)) return;
    writeBack(llc.blockAddr(line));
    clean(line);
  });
}

void CacheHierarchy::invalidateAll() {
  // What the caches held is lost: the value image falls back to NVM. Only
  // the valid LLC lines' map entries are set, so clearing them costs
  // O(LLC lines), not O(footprint).
  const CacheLevel& llc = levels_.back();
  llc.forEachValid([&](std::uint32_t line) {
    const std::uint64_t base = llc.blockAddr(line);
    llcLineOfBlock_[base >> blockShift_] = kNoLine;
    if (!dirtyAnywhereLine(line)) return;
    nvm_.read(base, scanImage_);
    values_.poke(base, scanImage_);
  });
  for (CacheLevel& level : levels_) level.invalidateAll();
  std::fill(holders_.begin(), holders_.end(), 0);
  std::fill(dirtyHolders_.begin(), dirtyHolders_.end(), 0);
  dirtyList_.clear();
  dirtyListStale_ = false;
}

void CacheHierarchy::refreshDirtyList() const {
  if (!dirtyListStale_) return;
  const CacheLevel& llc = levels_.back();
  dirtyList_.clear();
  llc.forEachValid([&](std::uint32_t line) {
    if (dirtyAnywhereLine(line)) dirtyList_.push_back(llc.blockAddr(line));
  });
  std::sort(dirtyList_.begin(), dirtyList_.end());
  dirtyListStale_ = false;
}

std::size_t CacheHierarchy::dirtyBlockCount() const {
  refreshDirtyList();
  return dirtyList_.size();
}

template <typename Fn>
void CacheHierarchy::forEachDirtyIn(std::uint64_t first, std::uint64_t last,
                                    Fn&& fn) const {
  refreshDirtyList();
  auto it = std::lower_bound(dirtyList_.begin(), dirtyList_.end(), first);
  for (; it != dirtyList_.end() && *it <= last; ++it) {
    EC_DCHECK_MSG(dirtyAnywhere(*it), "dirty list out of sync with the LLC");
    fn(*it);
  }
}

std::uint64_t CacheHierarchy::inconsistentBytes(std::uint64_t addr,
                                                std::uint64_t size) const {
  if (size == 0) return 0;
  if (!scanFast_) return diffScalar(addr, size);
  const std::uint64_t blockSize = config_.blockSize;
  const std::uint64_t first = blockBase(addr);
  const std::uint64_t last = blockBase(addr + size - 1);
  std::uint64_t diff = 0;
  std::uint64_t blocksCompared = 0;
  std::uint64_t bytesCompared = 0;
  forEachDirtyIn(first, last, [&](std::uint64_t base) {
    // Compare both images in place; the scratch copy only serves blocks NVM
    // does not fully back.
    const std::uint8_t* current = values_.blockView(base).data();
    EC_DCHECK_MSG(current != nullptr, "dirty block missing from the value image");
    const std::uint8_t* image = nvm_.blockView(base).data();
    if (image == nullptr) {
      nvm_.read(base, scanImage_);
      image = scanImage_.data();
    }
    const std::uint64_t lo = std::max(base, addr);
    const std::uint64_t hi = std::min(base + blockSize, addr + size);
    diff += scan::countDiffBytes(current + (lo - base), image + (lo - base), hi - lo);
    ++blocksCompared;
    bytesCompared += hi - lo;
  });
  const std::uint64_t blocks = (last - first) / blockSize + 1;
  events_.postmortemBlocksCompared += blocksCompared;
  events_.postmortemBlocksSkipped += blocks - blocksCompared;
  events_.postmortemBytesCompared += bytesCompared;
  if (telemetry::tracing()) {
    telemetry::TraceEvent("postmortem_scan")
        .field("addr", addr)
        .field("bytes", size)
        .field("blocks", blocks)
        .field("blocks_compared", blocksCompared)
        .field("blocks_skipped", blocks - blocksCompared)
        .field("bytes_compared", bytesCompared)
        .field("diff", diff)
        .emit();
  }
  return diff;
}

std::uint64_t CacheHierarchy::diffScalar(std::uint64_t addr, std::uint64_t size) const {
  const std::uint64_t blockSize = config_.blockSize;
  const CacheLevel& llc = levels_.back();
  std::uint64_t count = 0;
  std::vector<std::uint8_t> cached(blockSize);
  std::vector<std::uint8_t> image(blockSize);
  for (std::uint64_t base = blockBase(addr); base <= blockBase(addr + size - 1);
       base += blockSize) {
    if (!llc.find(base)) continue;  // inclusion: cached nowhere, so NVM is current
    bool dirty = false;
    for (const CacheLevel& level : levels_) {
      if (const auto l = level.find(base)) dirty = dirty || level.dirty(*l);
    }
    if (!dirty) continue;  // every copy is clean: it matches NVM
    values_.read(base, cached);
    nvm_.read(base, image);
    const std::uint64_t lo = std::max(base, addr);
    const std::uint64_t hi = std::min(base + blockSize, addr + size);
    for (std::uint64_t b = lo; b < hi; ++b) {
      if (cached[b - base] != image[b - base]) ++count;
    }
  }
  return count;
}

void CacheHierarchy::checkInvariants() const {
  const CacheLevel& llc = levels_.back();
  for (std::uint32_t u = 0; u < llcLevel(); ++u) {
    const CacheLevel& upper = levels_[u];
    upper.forEachValid([&](std::uint32_t line) {
      const std::uint64_t block = upper.blockAddr(line);
      // Inclusion level by level: a block at level u is also at level u + 1.
      EC_CHECK_MSG(levels_[u + 1].find(block).has_value(),
                   "inclusivity: block missing from lower level");
      const auto llcLine = llc.find(block);
      EC_CHECK_MSG(llcLine.has_value(), "inclusion: upper block missing from the LLC");
      EC_CHECK_MSG(llcLineOf_[u][line] == *llcLine, "upper line links the wrong LLC line");
      EC_CHECK_MSG((holders_[*llcLine] >> u & 1) != 0, "holder bit missing");
      EC_CHECK_MSG(upperLine(*llcLine, u) == line, "LLC line links the wrong upper line");
      EC_CHECK_MSG(((dirtyHolders_[*llcLine] >> u & 1) != 0) == upper.dirty(line),
                   "dirty-holder bit differs from the upper dirty bit");
    });
  }
  for (std::uint32_t line = 0; line < llc.lineCount(); ++line) {
    if (!llc.valid(line)) {
      EC_CHECK_MSG(holders_[line] == 0 && dirtyHolders_[line] == 0,
                   "empty LLC line carries holder masks");
      continue;
    }
    EC_CHECK_MSG(llcLineOfBlock(llc.blockAddr(line)) == line,
                 "block map misses a valid LLC line");
    EC_CHECK_MSG((dirtyHolders_[line] & ~holders_[line]) == 0,
                 "dirty holder that does not hold the block");
    forEachBit(holders_[line], [&](std::uint32_t u) {
      EC_CHECK_MSG(u < llcLevel() && levels_[u].valid(upperLine(line, u)) &&
                       levels_[u].blockAddr(upperLine(line, u)) == llc.blockAddr(line),
                   "holder bit without a live upper line");
    });
  }
  std::uint64_t mapped = 0;
  for (std::uint64_t block = 0; block < llcLineOfBlock_.size(); ++block) {
    const std::uint32_t line = llcLineOfBlock_[block];
    if (line == kNoLine) continue;
    ++mapped;
    EC_CHECK_MSG(line < llc.lineCount() && llc.valid(line) &&
                     llc.blockAddr(line) == block << blockShift_,
                 "block map names an LLC line that does not hold the block");
  }
  EC_CHECK_MSG(mapped == llc.validLines(), "block map and LLC disagree on the resident count");
  std::vector<std::uint8_t> current(config_.blockSize);
  std::vector<std::uint8_t> image(config_.blockSize);
  const std::uint64_t end = std::max(values_.imageBytes(), nvm_.imageBytes());
  for (std::uint64_t base = 0; base < end; base += config_.blockSize) {
    values_.read(base, current);
    nvm_.read(base, image);
    EC_CHECK_MSG(current == image || dirtyAnywhere(base),
                 "block dirty nowhere differs from the NVM image");
  }
}

}  // namespace easycrash::memsim
