#include "easycrash/memsim/llc_directory.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "easycrash/common/check.hpp"
#include "easycrash/memsim/scan.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash::memsim {

namespace {

/// Visit the set bits of `mask` in ascending order: fn(bit).
template <typename Fn>
void forEachBit(std::uint64_t mask, Fn&& fn) {
  while (mask != 0) {
    fn(static_cast<std::uint32_t>(std::countr_zero(mask)));
    mask &= mask - 1;
  }
}

}  // namespace

LlcDirectory::LlcDirectory(CacheLevel& llc, std::vector<CacheLevel*> uppers,
                           NvmStore& nvm, std::uint32_t blockSize)
    : llc_(llc),
      uppers_(std::move(uppers)),
      nvm_(nvm),
      blockSize_(blockSize),
      values_(blockSize) {
  const std::uint32_t lines = llc_.lineCount();
  holders_.assign(lines, 0);
  dirtyHolders_.assign(lines, 0);
  upperLine_.assign(static_cast<std::size_t>(lines) * uppers_.size(), 0);
  llcLineOf_.reserve(uppers_.size());
  for (const CacheLevel* upper : uppers_) llcLineOf_.emplace_back(upper->lineCount(), 0);
  scanImage_.resize(blockSize_);
}

LlcDirectory::LlcFill LlcDirectory::fillLlc(std::uint64_t blockAddr) {
  LlcFill fill;
  fill.line = llc_.victim(blockAddr);
  if (llc_.valid(fill.line)) fill.wroteBack = evictLlc(fill.line);
  EC_DCHECK_MSG(holders_[fill.line] == 0 && dirtyHolders_[fill.line] == 0,
                "empty LLC line carries holder masks");
  llc_.fill(fill.line, blockAddr);
  return fill;
}

bool LlcDirectory::evictLlc(std::uint32_t llcLine) {
  const bool dirty = dirtyAnywhere(llcLine);
  forEachBit(holders_[llcLine], [&](std::uint32_t u) {
    const std::uint32_t line = upperLine(llcLine, u);
    EC_DCHECK_MSG(uppers_[u]->blockAddr(line) == llc_.blockAddr(llcLine),
                  "holder link names another block");
    uppers_[u]->invalidateLine(line);
  });
  holders_[llcLine] = 0;
  dirtyHolders_[llcLine] = 0;
  if (dirty) {
    writeBack(llc_.blockAddr(llcLine));
    dirtyListStale_ = true;
  }
  llc_.invalidateLine(llcLine);
  return dirty;
}

void LlcDirectory::installUpper(std::uint32_t u, std::uint32_t line,
                                std::uint64_t blockAddr, std::uint32_t llcLine) {
  EC_DCHECK_MSG(llc_.blockAddr(llcLine) == blockAddr, "inclusion: block not in the LLC line");
  EC_DCHECK_MSG((holders_[llcLine] >> u & 1) == 0, "upper cache already holds the block");
  uppers_[u]->fill(line, blockAddr);
  llcLineOf_[u][line] = llcLine;
  upperLineSlot(llcLine, u) = line;
  holders_[llcLine] |= 1ULL << u;
}

void LlcDirectory::dropUpper(std::uint32_t u, std::uint32_t line) {
  const std::uint32_t llcLine = llcLineOf_[u][line];
  EC_DCHECK_MSG((holders_[llcLine] >> u & 1) != 0 && upperLine(llcLine, u) == line,
                "upper line not linked from its LLC line");
  // Levels 0..u: inclusion puts any copy above level u there.
  const std::uint64_t drop = holders_[llcLine] & ((2ULL << u) - 1);
  const bool dirty = (dirtyHolders_[llcLine] & drop) != 0;
  forEachBit(drop, [&](std::uint32_t k) {
    const std::uint32_t kLine = upperLine(llcLine, k);
    EC_DCHECK_MSG(uppers_[k]->dirty(kLine) == ((dirtyHolders_[llcLine] >> k & 1) != 0),
                  "dirty-holder mask out of sync");
    uppers_[k]->invalidateLine(kLine);
  });
  holders_[llcLine] &= ~drop;
  dirtyHolders_[llcLine] &= ~drop;
  if (!dirty) return;
  // The level below holds the block by inclusion.
  const std::uint32_t below = u + 1;
  if (below == uppers_.size()) {
    markLlcDirty(llcLine);
  } else {
    markUpperDirty(below, upperLine(llcLine, below));
  }
}

void LlcDirectory::markUpperDirty(std::uint32_t u, std::uint32_t line) {
  const std::uint32_t llcLine = llcLineOf_[u][line];
  EC_DCHECK_MSG((holders_[llcLine] >> u & 1) != 0, "dirty bit on a block the cache does not hold");
  uppers_[u]->setDirty(line, true);
  dirtyHolders_[llcLine] |= 1ULL << u;
  dirtyListStale_ = true;
}

void LlcDirectory::markLlcDirty(std::uint32_t llcLine) {
  llc_.setDirty(llcLine, true);
  dirtyListStale_ = true;
}

void LlcDirectory::writeBack(std::uint64_t blockAddr) {
  // A block is dirty only after a store, which backed it in the image.
  nvm_.writeBlock(blockAddr, values_.blockView(blockAddr));
}

void LlcDirectory::clean(std::uint32_t llcLine) {
  forEachBit(dirtyHolders_[llcLine], [&](std::uint32_t u) {
    uppers_[u]->setDirty(upperLine(llcLine, u), false);
  });
  dirtyHolders_[llcLine] = 0;
  llc_.setDirty(llcLine, false);
  dirtyListStale_ = true;
}

LlcDirectory::FlushTally LlcDirectory::flush(std::uint64_t addr, std::uint64_t size,
                                             bool drop) {
  FlushTally tally;
  if (size == 0) return tally;
  const std::uint64_t last = blockBase(addr + size - 1);
  for (std::uint64_t b = blockBase(addr); b <= last; b += blockSize_) {
    const auto line = llc_.find(b);
    if (!line) {  // inclusion: cached nowhere
      ++tally.nonResident;
      continue;
    }
    if (dirtyAnywhere(*line)) {
      writeBack(b);
      clean(*line);
      ++tally.dirty;
    } else {
      ++tally.clean;
    }
    if (drop) (void)evictLlc(*line);  // every copy is clean now: no write
  }
  return tally;
}

std::uint64_t LlcDirectory::drainAll() {
  std::uint64_t written = 0;
  llc_.forEachValid([&](std::uint32_t line) {
    if (!dirtyAnywhere(line)) return;
    writeBack(llc_.blockAddr(line));
    clean(line);
    ++written;
  });
  return written;
}

void LlcDirectory::invalidateAll() {
  // What the caches held is lost: the value image falls back to NVM.
  llc_.forEachValid([&](std::uint32_t line) {
    if (!dirtyAnywhere(line)) return;
    const std::uint64_t base = llc_.blockAddr(line);
    nvm_.read(base, scanImage_);
    values_.poke(base, scanImage_);
  });
  for (CacheLevel* upper : uppers_) upper->invalidateAll();
  llc_.invalidateAll();
  std::fill(holders_.begin(), holders_.end(), 0);
  std::fill(dirtyHolders_.begin(), dirtyHolders_.end(), 0);
  dirtyList_.clear();
  dirtyListStale_ = false;
}

void LlcDirectory::refreshDirtyList() const {
  if (!dirtyListStale_) return;
  dirtyList_.clear();
  llc_.forEachValid([&](std::uint32_t line) {
    if (dirtyAnywhere(line)) dirtyList_.push_back(llc_.blockAddr(line));
  });
  std::sort(dirtyList_.begin(), dirtyList_.end());
  dirtyListStale_ = false;
}

std::size_t LlcDirectory::dirtyBlockCount() const {
  refreshDirtyList();
  return dirtyList_.size();
}

template <typename Fn>
void LlcDirectory::forEachDirtyIn(std::uint64_t first, std::uint64_t last,
                                  Fn&& fn) const {
  refreshDirtyList();
  auto it = std::lower_bound(dirtyList_.begin(), dirtyList_.end(), first);
  for (; it != dirtyList_.end() && *it <= last; ++it) {
    EC_DCHECK_MSG(dirtyAnywhereBlock(*it), "dirty list out of sync with the LLC");
    fn(*it);
  }
}

LlcDirectory::Diff LlcDirectory::diff(std::uint64_t addr, std::uint64_t size,
                                      bool fast) const {
  Diff d;
  if (size == 0) return d;
  if (!fast) {
    d.bytes = diffScalar(addr, size);
    return d;
  }
  const std::uint64_t first = blockBase(addr);
  const std::uint64_t last = blockBase(addr + size - 1);
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
    const std::uint64_t hi = std::min(base + blockSize_, addr + size);
    d.bytes += scan::countDiffBytes(current + (lo - base), image + (lo - base), hi - lo);
    ++d.blocksCompared;
    d.bytesCompared += hi - lo;
  });
  const std::uint64_t blocks = (last - first) / blockSize_ + 1;
  d.blocksSkipped = blocks - d.blocksCompared;
  if (telemetry::tracing()) {
    telemetry::TraceEvent("postmortem_scan")
        .field("addr", addr)
        .field("bytes", size)
        .field("blocks", blocks)
        .field("blocks_compared", d.blocksCompared)
        .field("blocks_skipped", d.blocksSkipped)
        .field("bytes_compared", d.bytesCompared)
        .field("diff", d.bytes)
        .field("kernel", scan::kernelName(scan::activeKernel()))
        .emit();
  }
  return d;
}

std::uint64_t LlcDirectory::diffScalar(std::uint64_t addr, std::uint64_t size) const {
  std::uint64_t count = 0;
  std::vector<std::uint8_t> cached(blockSize_);
  std::vector<std::uint8_t> image(blockSize_);
  for (std::uint64_t base = blockBase(addr); base <= blockBase(addr + size - 1);
       base += blockSize_) {
    const auto line = llc_.find(base);
    if (!line) continue;  // inclusion: cached nowhere, so NVM is current
    bool dirty = llc_.dirty(*line);
    for (const CacheLevel* upper : uppers_) {
      if (const auto l = upper->find(base)) dirty = dirty || upper->dirty(*l);
    }
    if (!dirty) continue;  // every copy is clean: it matches NVM
    values_.read(base, cached);
    nvm_.read(base, image);
    const std::uint64_t lo = std::max(base, addr);
    const std::uint64_t hi = std::min(base + blockSize_, addr + size);
    for (std::uint64_t b = lo; b < hi; ++b) {
      if (cached[b - base] != image[b - base]) ++count;
    }
  }
  return count;
}

void LlcDirectory::checkInvariants() const {
  for (std::uint32_t u = 0; u < uppers_.size(); ++u) {
    const CacheLevel& upper = *uppers_[u];
    upper.forEachValid([&](std::uint32_t line) {
      const std::uint64_t block = upper.blockAddr(line);
      const auto llcLine = llc_.find(block);
      EC_CHECK_MSG(llcLine.has_value(), "inclusion: upper block missing from the LLC");
      EC_CHECK_MSG(llcLineOf_[u][line] == *llcLine, "upper line links the wrong LLC line");
      EC_CHECK_MSG((holders_[*llcLine] >> u & 1) != 0, "holder bit missing");
      EC_CHECK_MSG(upperLine(*llcLine, u) == line, "LLC line links the wrong upper line");
      EC_CHECK_MSG(((dirtyHolders_[*llcLine] >> u & 1) != 0) == upper.dirty(line),
                   "dirty-holder bit differs from the upper dirty bit");
    });
  }
  for (std::uint32_t line = 0; line < llc_.lineCount(); ++line) {
    if (!llc_.valid(line)) {
      EC_CHECK_MSG(holders_[line] == 0 && dirtyHolders_[line] == 0,
                   "empty LLC line carries holder masks");
      continue;
    }
    EC_CHECK_MSG((dirtyHolders_[line] & ~holders_[line]) == 0,
                 "dirty holder that does not hold the block");
    forEachBit(holders_[line], [&](std::uint32_t u) {
      EC_CHECK_MSG(u < uppers_.size() && uppers_[u]->valid(upperLine(line, u)) &&
                       uppers_[u]->blockAddr(upperLine(line, u)) == llc_.blockAddr(line),
                   "holder bit without a live upper line");
    });
  }
  std::vector<std::uint8_t> current(blockSize_);
  std::vector<std::uint8_t> image(blockSize_);
  const std::uint64_t end = std::max(values_.imageBytes(), nvm_.imageBytes());
  for (std::uint64_t base = 0; base < end; base += blockSize_) {
    values_.read(base, current);
    nvm_.read(base, image);
    EC_CHECK_MSG(current == image || dirtyAnywhereBlock(base),
                 "block dirty nowhere differs from the NVM image");
  }
}

}  // namespace easycrash::memsim
