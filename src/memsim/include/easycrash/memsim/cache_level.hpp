// One set-associative, write-back cache level: tags, LRU stamps and dirty
// bits, no data.
//
// A level only answers "is this block here, in which line, is it dirty, and
// which line would an insertion displace". Block values live in the
// hierarchy's one flat value image (hierarchy.hpp), which is what lets the
// simulator answer the question at the core of the paper — after an
// arbitrary crash, which bytes differ between the (lost) caches and the
// (surviving) NVM image — without copying a block between levels on every
// fill and eviction.
//
// Hot-path design (docs/INTERNALS.md "Simulator performance"):
//  - per-way state is three flat arrays (tag, LRU stamp, dirty bit); an
//    invalid way holds the tag kInvalidTag, which no block-aligned address
//    can equal, and the LRU stamp 0, below every valid stamp;
//  - find() and victim() compare all ways of a set with conditional moves
//    and no data-dependent branch: find() keeps the matching way, victim()
//    keeps the smallest stamp (an invalid way first, else the LRU way);
//  - set selection uses a shift + mask when the set count is a power of two
//    (a modulo fallback covers geometries like the Xeon Gold 6126 L3, whose
//    11-way layout yields a non-power-of-two set count);
//  - mruLineOf() answers "is this the most recently touched line?" from one
//    remembered line index, so an L1 hit on the current block skips the set
//    probe (an invalidated or refilled line's tag no longer matches, so the
//    hint needs no invalidation bookkeeping);
//  - the valid line count is maintained incrementally, so visiting an empty
//    level's lines costs nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "easycrash/common/check.hpp"
#include "easycrash/memsim/config.hpp"

namespace easycrash::memsim {

class CacheLevel {
 public:
  /// Tag of an invalid way. Block addresses are block-aligned, so their low
  /// bits are zero and none can equal this.
  static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

  CacheLevel(const CacheGeometry& geometry, std::uint32_t blockSize);

  /// Line index of `blockAddr` if resident.
  [[nodiscard]] std::optional<std::uint32_t> find(std::uint64_t blockAddr) const {
    const std::uint32_t base = setBase(blockAddr);
    std::uint32_t hit = assoc_;
    for (std::uint32_t way = 0; way < assoc_; ++way) {
      hit = tags_[base + way] == blockAddr ? way : hit;
    }
    if (hit == assoc_) return std::nullopt;
    return base + hit;
  }

  /// The line index when `blockAddr` sits in the most recently touched line,
  /// -1 otherwise (which says nothing about residency). The hierarchy's
  /// header-level load/store fast paths use it to keep a hit on the current
  /// L1 block free of any probe or out-of-line call.
  [[nodiscard]] std::int64_t mruLineOf(std::uint64_t blockAddr) const {
    return tags_[mruLine_] == blockAddr ? static_cast<std::int64_t>(mruLine_) : -1;
  }

  /// The line an insertion of `blockAddr` would use: the set's first invalid
  /// way, else its least recently touched way. When that line is valid, the
  /// caller evicts it (invalidateLine) before fill().
  [[nodiscard]] std::uint32_t victim(std::uint64_t blockAddr) const {
    const std::uint32_t base = setBase(blockAddr);
    std::uint32_t way = 0;
    std::uint64_t oldest = stamps_[base];
    for (std::uint32_t w = 1; w < assoc_; ++w) {
      const bool older = stamps_[base + w] < oldest;
      oldest = older ? stamps_[base + w] : oldest;
      way = older ? w : way;
    }
    return base + way;
  }

  /// Install `blockAddr` (not resident) in the invalid `line` of its set,
  /// clean and most recently used. Filling a valid line throws: it would
  /// corrupt the line counts.
  void fill(std::uint32_t line, std::uint64_t blockAddr) {
    EC_CHECK_MSG(!valid(line), "fill of a valid line");
    EC_DCHECK_MSG(setBase(blockAddr) == line - line % assoc_, "fill outside the set");
    EC_DCHECK_MSG(!find(blockAddr).has_value(), "block already resident");
    tags_[line] = blockAddr;
    ++validCount_;
    touch(line);
  }

  /// Drop a line (no write-back); throws when the line is already empty.
  void invalidateLine(std::uint32_t line) {
    EC_CHECK_MSG(valid(line), "invalidateLine of an invalid line");
    --validCount_;
    tags_[line] = kInvalidTag;
    stamps_[line] = 0;
    dirty_[line] = 0;
  }
  /// Drop everything (simulates power loss).
  void invalidateAll();

  [[nodiscard]] bool valid(std::uint32_t line) const {
    return tags_[line] != kInvalidTag;
  }
  [[nodiscard]] bool dirty(std::uint32_t line) const { return dirty_[line] != 0; }
  void setDirty(std::uint32_t line, bool value) {
    EC_DCHECK_MSG(valid(line), "setDirty on an invalid line");
    dirty_[line] = value ? 1 : 0;
  }
  [[nodiscard]] std::uint64_t blockAddr(std::uint32_t line) const { return tags_[line]; }

  /// Mark `line` most-recently-used within its set.
  void touch(std::uint32_t line) {
    stamps_[line] = ++tick_;
    mruLine_ = line;
  }

  /// Visit every valid line: fn(line).
  template <typename Fn>
  void forEachValid(Fn&& fn) const {
    if (validCount_ == 0) return;
    for (std::uint32_t i = 0; i < lineCount(); ++i) {
      if (valid(i)) fn(i);
    }
  }

  [[nodiscard]] std::uint32_t lineCount() const {
    return static_cast<std::uint32_t>(tags_.size());
  }
  [[nodiscard]] std::uint64_t validLines() const { return validCount_; }

 private:
  [[nodiscard]] std::uint32_t setBase(std::uint64_t blockAddr) const {
    const std::uint64_t block = blockAddr >> blockShift_;
    const std::uint64_t set = setsPow2_ ? (block & setMask_) : (block % sets_);
    return static_cast<std::uint32_t>(set * assoc_);
  }

  std::uint32_t blockShift_ = 0;  ///< log2(block size)
  std::uint64_t sets_;
  std::uint64_t setMask_ = 0;  ///< sets_ - 1 when sets_ is a power of two
  bool setsPow2_ = false;
  std::uint32_t assoc_;
  std::uint64_t tick_ = 0;
  std::uint64_t validCount_ = 0;
  std::uint32_t mruLine_ = 0;
  std::vector<std::uint64_t> tags_;    ///< kInvalidTag when the way is empty
  std::vector<std::uint64_t> stamps_;  ///< 0 when empty, else the touch tick
  std::vector<std::uint8_t> dirty_;
};

}  // namespace easycrash::memsim
