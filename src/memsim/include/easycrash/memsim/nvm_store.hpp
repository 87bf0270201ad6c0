// NVM backing store: a byte-addressable value image plus write accounting.
//
// This models app-direct-mode persistent memory (paper §2.3): bytes written
// here survive a crash; bytes still sitting dirty in the cache hierarchy do
// not. The store grows on demand so allocation order does not matter.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace easycrash::memsim {

class NvmStore {
 public:
  explicit NvmStore(std::uint32_t blockSize = 64);

  [[nodiscard]] std::uint32_t blockSize() const { return blockSize_; }

  /// Read `dst.size()` bytes starting at `addr` (zero-filled if never
  /// written). Reads never grow the materialised image: unbacked bytes are
  /// served as zeros without allocating backing storage. Inline fast path:
  /// direct-mode runs (the golden run and every restart) issue one of these
  /// per tracked element, so the fully-backed
  /// common case must stay a bounds check + memcpy. A zero-length request
  /// fails the comparison (its size - 1 wraps) and takes the slow side,
  /// which returns before memcpy could see a null pointer.
  void read(std::uint64_t addr, std::span<std::uint8_t> dst) const {
    if (addr < image_.size() && dst.size() - 1 < image_.size() - addr) [[likely]] {
      std::memcpy(dst.data(), image_.data() + addr, dst.size());
      return;
    }
    readSlow(addr, dst);
  }

  /// Zero-copy view of one block of the materialised image, or an empty
  /// span when the block is not fully backed (its bytes then read as zeros
  /// via read()). The post-mortem scan compares cached blocks against this
  /// view in place instead of copying every block through a scratch buffer;
  /// the pointer is invalidated by any write that grows the image.
  [[nodiscard]] std::span<const std::uint8_t> blockView(std::uint64_t addr) const {
    if (addr + blockSize_ <= image_.size()) return {image_.data() + addr, blockSize_};
    return {};
  }

  /// Write one full cache block at block-aligned `addr`, counting the write.
  void writeBlock(std::uint64_t addr, std::span<const std::uint8_t> src);

  /// Direct (uncounted) write used for initial images and test setup. This is
  /// NOT a modelled NVM write; campaigns use it to materialise initial state.
  /// Same inline fast path rationale as read(): direct-mode stores land
  /// here once per tracked element; zero-length pokes take the
  /// slow side as in read().
  void poke(std::uint64_t addr, std::span<const std::uint8_t> src) {
    if (addr < image_.size() && src.size() - 1 < image_.size() - addr) [[likely]] {
      std::memcpy(image_.data() + addr, src.data(), src.size());
      return;
    }
    pokeSlow(addr, src);
  }

  /// Number of modelled block writes into NVM so far.
  [[nodiscard]] std::uint64_t blockWrites() const { return blockWrites_; }

  /// Enable per-block wear accounting: every modelled block write also bumps
  /// a per-block counter (flight recorder, docs/OBSERVABILITY.md). Off by
  /// default and compiled out entirely under -DEASYCRASH_TELEMETRY=OFF, so
  /// writeBlock() carries no extra cost unless a campaign asks for it.
  void enableWearProfile();
  [[nodiscard]] bool wearProfiling() const { return wearEnabled_; }

  /// Block-write counts indexed by block number (addr / blockSize). Empty
  /// when profiling is off; sized to the highest profiled block + 1.
  [[nodiscard]] const std::vector<std::uint64_t>& wearProfile() const {
    return wearProfile_;
  }

  /// Size of the materialised image in bytes.
  [[nodiscard]] std::uint64_t imageBytes() const { return image_.size(); }

  /// Snapshot/restore the full value image (campaigns restore pristine state
  /// between crash tests without re-running initialisation).
  [[nodiscard]] std::vector<std::uint8_t> snapshotImage() const { return image_; }
  void restoreImage(std::vector<std::uint8_t> image);

  void resetCounters() { blockWrites_ = 0; }

 private:
  void ensure(std::uint64_t endAddr);
  void readSlow(std::uint64_t addr, std::span<std::uint8_t> dst) const;
  void pokeSlow(std::uint64_t addr, std::span<const std::uint8_t> src);

  std::uint32_t blockSize_;
  std::vector<std::uint8_t> image_;
  std::uint64_t blockWrites_ = 0;
  bool wearEnabled_ = false;
  std::vector<std::uint64_t> wearProfile_;
};

}  // namespace easycrash::memsim
