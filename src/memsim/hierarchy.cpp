#include "easycrash/memsim/hierarchy.hpp"

#include <algorithm>
#include <bit>

#include "easycrash/common/check.hpp"
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

std::vector<CacheLevel*> upperLevels(std::vector<CacheLevel>& levels) {
  std::vector<CacheLevel*> uppers;
  for (std::size_t i = 0; i + 1 < levels.size(); ++i) uppers.push_back(&levels[i]);
  return uppers;
}

}  // namespace

CacheHierarchy::CacheHierarchy(CacheConfig config, NvmStore& nvm)
    : config_(std::move(config)),
      blockMask_(config_.blockSize - 1),
      nvm_(nvm),
      levels_(buildLevels(config_)),
      dir_(levels_.back(), upperLevels(levels_), nvm_, config_.blockSize) {
  EC_CHECK(nvm_.blockSize() == config_.blockSize);
}

std::uint32_t CacheHierarchy::fillUpper(std::size_t level, std::uint64_t blockAddr,
                                        std::uint32_t llcLine) {
  const auto u = static_cast<std::uint32_t>(level);
  const std::uint32_t line = levels_[level].victim(blockAddr);
  // Inclusion: the victim's copies above this level go with it, and the
  // directory moves their dirtiness to the level below.
  if (levels_[level].valid(line)) dir_.dropUpper(u, line);
  dir_.installUpper(u, line, blockAddr, llcLine);
  return line;
}

std::uint32_t CacheHierarchy::ensureInL1(std::uint64_t blockAddr) {
  if constexpr (telemetry::kTraceCompiledIn) {
    if (profileShift_ != 0) {
      const std::size_t bucket = static_cast<std::size_t>(blockAddr >> profileShift_);
      if (bucket >= accessProfile_.size()) accessProfile_.resize(bucket + 1, 0);
      ++accessProfile_[bucket];
    }
  }
  if (const auto l1 = levels_[0].find(blockAddr)) {
    ++events_.hits[0];
    levels_[0].touch(*l1);
    return *l1;
  }
  return fillToL1(blockAddr);
}

void CacheHierarchy::enableAccessProfile(std::uint32_t strideBytes) {
  if constexpr (telemetry::kTraceCompiledIn) {
    const std::uint32_t stride = std::max(strideBytes, config_.blockSize);
    std::uint32_t shift = 0;
    while ((1u << shift) < stride) ++shift;  // round up to a power of two
    profileShift_ = shift;
  }
}

std::uint32_t CacheHierarchy::fillToL1(std::uint64_t blockAddr) {
  ++events_.misses[0];
  const std::size_t llc = llcLevel();

  // Find the closest level below L1 holding the block: one LLC probe, then
  // its holder mask (inclusion: a block absent from the LLC is cached
  // nowhere, and one present sits in exactly the levels its mask names).
  std::size_t source = llc + 1;  // llc + 1 == NVM
  std::uint32_t llcLine = 0;
  if (const auto line = levels_[llc].find(blockAddr)) {
    llcLine = *line;
    const std::uint64_t held = dir_.holders(llcLine);
    EC_DCHECK_MSG((held & 1) == 0, "L1 miss on a block L1 holds");
    source = held != 0 ? static_cast<std::size_t>(std::countr_zero(held)) : llc;
  }
  for (std::size_t i = 1; i < source && i <= llc; ++i) ++events_.misses[i];
  if (source <= llc) {
    ++events_.hits[source];
    levels_[source].touch(source == llc ? llcLine
                                        : dir_.upperLine(llcLine,
                                                         static_cast<std::uint32_t>(source)));
  } else {
    ++events_.nvmBlockReads;
    const LlcDirectory::LlcFill fill = dir_.fillLlc(blockAddr);
    if (fill.wroteBack) ++events_.nvmBlockWrites;
    llcLine = fill.line;
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
  const LlcDirectory::FlushTally t = flush(addr, size, kind);
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

std::uint64_t CacheHierarchy::inconsistentBytes(std::uint64_t addr,
                                                std::uint64_t size) const {
  const LlcDirectory::Diff d = dir_.diff(addr, size, scanFast_);
  events_.postmortemBlocksCompared += d.blocksCompared;
  events_.postmortemBlocksSkipped += d.blocksSkipped;
  events_.postmortemBytesCompared += d.bytesCompared;
  return d.bytes;
}

void CacheHierarchy::drainAll() { events_.nvmBlockWrites += dir_.drainAll(); }

void CacheHierarchy::invalidateAll() { dir_.invalidateAll(); }

void CacheHierarchy::checkInvariants() const {
  dir_.checkInvariants();
  // Inclusion level by level: a block at level i is also at level i + 1.
  for (std::size_t i = 0; i + 1 < levels_.size(); ++i) {
    levels_[i].forEachValid([&](std::uint32_t line) {
      EC_CHECK_MSG(levels_[i + 1].find(levels_[i].blockAddr(line)).has_value(),
                   "inclusivity: block missing from lower level");
    });
  }
}

}  // namespace easycrash::memsim
