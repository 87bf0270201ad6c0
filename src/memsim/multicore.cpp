#include "easycrash/memsim/multicore.hpp"

#include <algorithm>
#include <bit>

#include "easycrash/common/check.hpp"
#include "easycrash/memsim/scan.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash::memsim {

void MulticoreConfig::validate() const {
  EC_CHECK_MSG(cores >= 1, "at least one core");
  EC_CHECK_MSG(cores <= 64, "the LLC holder masks cover at most 64 cores");
  EC_CHECK_MSG(blockSize > 0 && (blockSize & (blockSize - 1)) == 0,
               "block size must be a power of two");
  EC_CHECK_MSG(sharedLlc.sizeBytes >= privateCache.sizeBytes,
               "inclusive LLC must be at least as large as a private cache");
}

namespace {

std::vector<CacheLevel> buildPrivateCaches(const MulticoreConfig& config) {
  config.validate();
  std::vector<CacheLevel> caches;
  caches.reserve(static_cast<std::size_t>(config.cores));
  for (int c = 0; c < config.cores; ++c) {
    caches.emplace_back(config.privateCache, config.blockSize);
  }
  return caches;
}

std::vector<CacheLevel*> pointersTo(std::vector<CacheLevel>& caches) {
  std::vector<CacheLevel*> out;
  for (CacheLevel& cache : caches) out.push_back(&cache);
  return out;
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

MulticoreSystem::MulticoreSystem(MulticoreConfig config, NvmStore& nvm)
    : config_(config),
      nvm_(nvm),
      private_(buildPrivateCaches(config_)),
      llc_(config_.sharedLlc, config_.blockSize),
      dir_(llc_, pointersTo(private_), nvm_, config_.blockSize) {
  EC_CHECK(nvm_.blockSize() == config_.blockSize);
  events_.resize(static_cast<std::size_t>(config_.cores));
}

std::uint32_t MulticoreSystem::acquire(int core, std::uint64_t blockAddr,
                                       bool forWrite) {
  EC_CHECK(core >= 0 && core < cores());
  const auto me = static_cast<std::uint32_t>(core);
  CacheLevel& mine = private_[me];
  CoherenceEvents& ev = events_[me];

  if (const auto line = mine.find(blockAddr)) {
    ev.privateHits += 1;
    mine.touch(*line);
    if (forWrite && !mine.dirty(*line)) {
      // S -> M upgrade: invalidate every other copy (all clean: a Modified
      // peer would have invalidated this one).
      const std::uint32_t llcLine = dir_.llcLineOf(me, *line);
      forEachBit(dir_.holders(llcLine) & ~(1ULL << me), [&](std::uint32_t peer) {
        const bool peerDirty = dir_.dropUpper(peer, dir_.upperLine(llcLine, peer), 0);
        EC_DCHECK_MSG(!peerDirty, "two Modified copies of the same block");
        (void)peerDirty;
        ev.invalidationsSent += 1;
      });
      dir_.setUpperDirty(me, *line, true);
    }
    return *line;
  }
  ev.privateMisses += 1;

  std::uint32_t llcLine = 0;
  if (const auto line = llc_.find(blockAddr)) {
    llcLine = *line;
    // Snoop: a peer holding a Modified copy hands ownership to the LLC
    // (M -> S); a write then invalidates every peer copy.
    forEachBit(dir_.holders(llcLine), [&](std::uint32_t peer) {
      const std::uint32_t theirs = dir_.upperLine(llcLine, peer);
      if (private_[peer].dirty(theirs)) {
        dir_.setLlcDirty(llcLine, true);
        dir_.setUpperDirty(peer, theirs, false);
        ev.ownershipTransfers += 1;
      }
      if (forWrite) {
        (void)dir_.dropUpper(peer, theirs, 0);
        ev.invalidationsSent += 1;
      }
    });
    ev.llcHits += 1;
    llc_.touch(llcLine);
  } else {
    // Inclusion: absent from the LLC means cached by no core.
    ev.llcMisses += 1;
    ev.nvmBlockReads += 1;
    const LlcDirectory::LlcFill fill = dir_.fillLlc(blockAddr);
    if (fill.wroteBack) events_[0].nvmBlockWrites += 1;  // LLC write-backs accounted globally
    llcLine = fill.line;
  }

  // Install in the requesting core's private cache; a dirty victim's
  // ownership merges into the LLC.
  const std::uint32_t line = mine.victim(blockAddr);
  if (mine.valid(line)) {
    const std::uint32_t victimLlc = dir_.llcLineOf(me, line);
    if (dir_.dropUpper(me, line, 0)) dir_.setLlcDirty(victimLlc, true);
  }
  dir_.installUpper(me, line, blockAddr, llcLine);
  if (forWrite) dir_.setUpperDirty(me, line, true);
  return line;
}

void MulticoreSystem::load(int core, std::uint64_t addr,
                           std::span<std::uint8_t> dst) {
  std::uint64_t offset = 0;
  while (offset < dst.size()) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t base = blockBase(a);
    const std::uint64_t inBlock = a - base;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - inBlock, dst.size() - offset);
    acquire(core, base, /*forWrite=*/false);
    dir_.values().read(a, dst.subspan(offset, chunk));
    events_[static_cast<std::size_t>(core)].loads += 1;
    offset += chunk;
  }
}

void MulticoreSystem::store(int core, std::uint64_t addr,
                            std::span<const std::uint8_t> src) {
  std::uint64_t offset = 0;
  while (offset < src.size()) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t base = blockBase(a);
    const std::uint64_t inBlock = a - base;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - inBlock, src.size() - offset);
    acquire(core, base, /*forWrite=*/true);
    dir_.values().poke(a, src.subspan(offset, chunk));
    events_[static_cast<std::size_t>(core)].stores += 1;
    offset += chunk;
  }
}

void MulticoreSystem::loadRange(int core, std::uint64_t addr,
                                std::span<std::uint8_t> dst,
                                std::uint32_t elemSize) {
  EC_CHECK(elemSize > 0);
  CoherenceEvents& ev = events_[static_cast<std::size_t>(core)];
  std::uint64_t offset = 0;
  while (offset < dst.size()) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t base = blockBase(a);
    const std::uint64_t inBlock = a - base;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - inBlock, dst.size() - offset);
    const std::uint64_t touches =
        (offset + chunk - 1) / elemSize - offset / elemSize + 1;
    acquire(core, base, /*forWrite=*/false);
    ev.privateHits += touches - 1;
    ev.loads += touches;
    dir_.values().read(a, dst.subspan(offset, chunk));
    offset += chunk;
  }
}

void MulticoreSystem::storeRange(int core, std::uint64_t addr,
                                 std::span<const std::uint8_t> src,
                                 std::uint32_t elemSize) {
  EC_CHECK(elemSize > 0);
  CoherenceEvents& ev = events_[static_cast<std::size_t>(core)];
  std::uint64_t offset = 0;
  while (offset < src.size()) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t base = blockBase(a);
    const std::uint64_t inBlock = a - base;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - inBlock, src.size() - offset);
    const std::uint64_t touches =
        (offset + chunk - 1) / elemSize - offset / elemSize + 1;
    acquire(core, base, /*forWrite=*/true);
    ev.privateHits += touches - 1;
    ev.stores += touches;
    dir_.values().poke(a, src.subspan(offset, chunk));
    offset += chunk;
  }
}

void MulticoreSystem::flushBlock(std::uint64_t addr, FlushKind kind) {
  CoherenceEvents& ev = events_[0];
  switch (dir_.flush(blockBase(addr), kind != FlushKind::Clwb)) {
    case LlcDirectory::FlushResult::NonResident:
      ev.flushNonResident += 1;
      break;
    case LlcDirectory::FlushResult::Clean:
      ev.flushClean += 1;
      break;
    case LlcDirectory::FlushResult::WroteBack:
      ev.nvmBlockWrites += 1;
      ev.flushDirty += 1;
      break;
  }
}

void MulticoreSystem::flushRange(std::uint64_t addr, std::uint64_t size,
                                 FlushKind kind) {
  if (size == 0) return;
  const std::uint64_t first = blockBase(addr);
  const std::uint64_t last = blockBase(addr + size - 1);
  for (std::uint64_t b = first; b <= last; b += config_.blockSize) {
    flushBlock(b, kind);
  }
}

std::uint64_t MulticoreSystem::inconsistentBytes(std::uint64_t addr,
                                                 std::uint64_t size) const {
  if (size == 0) return 0;
  if (!scanFast_) return dir_.diffScalar(addr, size);
  const LlcDirectory::Diff d = dir_.diff(addr, size);
  if (telemetry::tracing()) {
    const std::uint64_t blocks =
        (blockBase(addr + size - 1) - blockBase(addr)) / config_.blockSize + 1;
    telemetry::TraceEvent("postmortem_scan")
        .field("addr", addr)
        .field("bytes", size)
        .field("blocks", blocks)
        .field("blocks_compared", d.blocksCompared)
        .field("blocks_skipped", blocks - d.blocksCompared)
        .field("bytes_compared", d.bytesCompared)
        .field("diff", d.bytes)
        .field("kernel", scan::kernelName(scan::activeKernel()))
        .emit();
  }
  return d.bytes;
}

void MulticoreSystem::invalidateAll() { dir_.invalidateAll(); }

void MulticoreSystem::drainAll() { events_[0].nvmBlockWrites += dir_.drainAll(); }

const CoherenceEvents& MulticoreSystem::coreEvents(int core) const {
  EC_CHECK(core >= 0 && core < cores());
  return events_[static_cast<std::size_t>(core)];
}

CoherenceEvents MulticoreSystem::totalEvents() const {
  CoherenceEvents total;
  for (const auto& ev : events_) {
    total.loads += ev.loads;
    total.stores += ev.stores;
    total.privateHits += ev.privateHits;
    total.privateMisses += ev.privateMisses;
    total.llcHits += ev.llcHits;
    total.llcMisses += ev.llcMisses;
    total.invalidationsSent += ev.invalidationsSent;
    total.ownershipTransfers += ev.ownershipTransfers;
    total.nvmBlockWrites += ev.nvmBlockWrites;
    total.nvmBlockReads += ev.nvmBlockReads;
    total.flushDirty += ev.flushDirty;
    total.flushClean += ev.flushClean;
    total.flushNonResident += ev.flushNonResident;
  }
  return total;
}

void MulticoreSystem::checkInvariants() const {
  dir_.checkInvariants();
  // Single writer: a Modified private copy is the block's only private copy.
  for (std::uint32_t line = 0; line < llc_.lineCount(); ++line) {
    if (!llc_.valid(line) || dir_.dirtyHolders(line) == 0) continue;
    EC_CHECK_MSG(dir_.holders(line) == dir_.dirtyHolders(line) &&
                     std::has_single_bit(dir_.holders(line)),
                 "a Modified copy shares its block with another core");
  }
}

}  // namespace easycrash::memsim
