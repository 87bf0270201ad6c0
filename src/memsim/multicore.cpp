#include "easycrash/memsim/multicore.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "easycrash/common/check.hpp"

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

template <bool kStore>
void MulticoreSystem::walk(int core, std::uint64_t addr, AccessSpan<kStore> bytes,
                           std::uint64_t elemSize) {
  for (std::uint64_t offset = 0; offset < bytes.size();) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t base = blockBase(a);
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - (a - base), bytes.size() - offset);
    const std::uint64_t touches = (offset + chunk - 1) / elemSize - offset / elemSize + 1;
    acquire(core, base, /*forWrite=*/kStore);
    CoherenceEvents& ev = events_[static_cast<std::size_t>(core)];
    ev.privateHits += touches - 1;
    (kStore ? ev.stores : ev.loads) += touches;
    dir_.values().move<kStore>(a, bytes.subspan(offset, chunk));
    offset += chunk;
  }
}

void MulticoreSystem::load(int core, std::uint64_t addr, std::span<std::uint8_t> dst) {
  walk<false>(core, addr, dst, dst.size());
}

void MulticoreSystem::store(int core, std::uint64_t addr,
                            std::span<const std::uint8_t> src) {
  walk<true>(core, addr, src, src.size());
}

void MulticoreSystem::loadRange(int core, std::uint64_t addr,
                                std::span<std::uint8_t> dst, std::uint32_t elemSize) {
  EC_CHECK(elemSize > 0);
  walk<false>(core, addr, dst, elemSize);
}

void MulticoreSystem::storeRange(int core, std::uint64_t addr,
                                 std::span<const std::uint8_t> src,
                                 std::uint32_t elemSize) {
  EC_CHECK(elemSize > 0);
  walk<true>(core, addr, src, elemSize);
}

void MulticoreSystem::flushRange(std::uint64_t addr, std::uint64_t size,
                                 FlushKind kind) {
  const LlcDirectory::FlushTally t = dir_.flush(addr, size, kind != FlushKind::Clwb);
  CoherenceEvents& ev = events_[0];
  ev.flushDirty += t.dirty;
  ev.flushClean += t.clean;
  ev.flushNonResident += t.nonResident;
  ev.nvmBlockWrites += t.dirty;
}

std::uint64_t MulticoreSystem::inconsistentBytes(std::uint64_t addr,
                                                 std::uint64_t size) const {
  return dir_.diff(addr, size, scanFast_).bytes;
}

void MulticoreSystem::invalidateAll() { dir_.invalidateAll(); }

void MulticoreSystem::drainAll() { events_[0].nvmBlockWrites += dir_.drainAll(); }

const CoherenceEvents& MulticoreSystem::coreEvents(int core) const {
  EC_CHECK(core >= 0 && core < cores());
  return events_[static_cast<std::size_t>(core)];
}

CoherenceEvents MulticoreSystem::totalEvents() const {
  using E = CoherenceEvents;
  static constexpr std::array kCounters{
      &E::loads, &E::stores, &E::privateHits, &E::privateMisses, &E::llcHits,
      &E::llcMisses, &E::invalidationsSent, &E::ownershipTransfers, &E::nvmBlockWrites,
      &E::nvmBlockReads, &E::flushDirty, &E::flushClean, &E::flushNonResident};
  CoherenceEvents total;
  for (const auto& ev : events_) {
    for (const auto counter : kCounters) total.*counter += ev.*counter;
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
