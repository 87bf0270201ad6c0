// Typed handles over simulated data objects.
//
// TrackedArray<T> / TrackedScalar<T> are how instrumented applications touch
// their data: every element read/write becomes a simulated load/store (cache
// state, dirtiness, crash clock). A proxy reference makes `a[i] = x`,
// `a[i] += x` and `double v = a[i]` work naturally.
//
// Element access has two paths (docs/INTERNALS.md "Direct access path"). In
// a direct run it is a bounds check and one typed access to the NVM image,
// pinned inline into the app's loop; the tracked path, which enters the
// cache simulation, is one out-of-line call per access.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>

#include "easycrash/common/check.hpp"
#include "easycrash/runtime/runtime.hpp"

namespace easycrash::runtime {

template <typename T>
class TrackedArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "tracked elements must be trivially copyable");
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "the direct path needs elements the image's malloc aligns");

 public:
  TrackedArray() = default;

  /// Allocate a new data object named `name` holding `count` elements.
  TrackedArray(Runtime& rt, std::string name, std::uint64_t count, bool candidate,
               bool readOnly = false)
      : rt_(&rt), count_(count) {
    id_ = rt.allocate(std::move(name), count * sizeof(T), candidate, readOnly);
    base_ = rt.object(id_).addr;
  }

  [[nodiscard]] std::uint64_t size() const { return count_; }
  [[nodiscard]] ObjectId id() const { return id_; }

  [[nodiscard, gnu::always_inline]] T get(std::uint64_t i) const {
    EC_CHECK(i < count_);
    const std::uint64_t addr = base_ + i * sizeof(T);
    if (rt_->direct()) return rt_->directLoad<T>(addr);
    return loadTracked(addr);
  }

  [[gnu::always_inline]] void set(std::uint64_t i, const T& v) {
    EC_CHECK(i < count_);
    const std::uint64_t addr = base_ + i * sizeof(T);
    if (rt_->direct()) {
      rt_->directStore(addr, v);
    } else {
      storeTracked(addr, v);
    }
  }

  /// Architecturally-current value without touching caches or the crash
  /// clock (used by post-crash analysis and acceptance verification).
  [[nodiscard]] T peek(std::uint64_t i) const {
    EC_CHECK(i < count_);
    return rt_->peekValue<T>(base_ + i * sizeof(T));
  }

  /// Read-modify-write of one element: one bounds check and one address
  /// computation for the load/store pair (compound assignments route here).
  template <typename Mutator>
  [[gnu::always_inline]] T apply(std::uint64_t i, Mutator&& mutate) {
    EC_CHECK(i < count_);
    const std::uint64_t addr = base_ + i * sizeof(T);
    if (rt_->direct()) {
      const T v = mutate(rt_->directLoad<T>(addr));
      rt_->directStore(addr, v);
      return v;
    }
    return applyTracked(addr, mutate);
  }

  // ---- Bulk operations (the range fast path) -------------------------------
  //
  // Each bulk op is observationally identical to the ascending element-wise
  // get()/set() loop it replaces: the crash clock ticks once per element,
  // MemEvents counters match byte-for-byte, and armed captures/crashes fire
  // at the same window index with the same memory state (Runtime::loadRange/
  // storeRange clamp their chunks at the triggers). The win is mechanical:
  // one bounds check, one simulated access call and one memcpy per cache
  // block instead of per element.

  /// Elements processed per stack-buffer chunk by fill/copyFrom/forEachChunk.
  static constexpr std::uint64_t kChunkElems = 1024;

  /// Bulk read of elements [i, i+n) into `out` (must hold n elements).
  void readRange(std::uint64_t i, std::uint64_t n, T* out) const {
    EC_CHECK(i <= count_ && n <= count_ - i);
    if (n == 0) return;
    rt_->loadRange(base_ + i * sizeof(T),
                   {reinterpret_cast<std::uint8_t*>(out), n * sizeof(T)},
                   sizeof(T));
  }

  /// Bulk write of `src` (n elements) into elements [i, i+n).
  void writeRange(std::uint64_t i, std::uint64_t n, const T* src) {
    EC_CHECK(i <= count_ && n <= count_ - i);
    if (n == 0) return;
    rt_->storeRange(base_ + i * sizeof(T),
                    {reinterpret_cast<const std::uint8_t*>(src), n * sizeof(T)},
                    sizeof(T));
  }

  /// Set elements [i, i+n) to `v`, chunked through a stack buffer so bulk
  /// initialisation allocates nothing.
  void fillRange(std::uint64_t i, std::uint64_t n, const T& v) {
    EC_CHECK(i <= count_ && n <= count_ - i);
    T buf[kChunkElems];
    std::fill(buf, buf + std::min<std::uint64_t>(n, kChunkElems), v);
    for (std::uint64_t done = 0; done < n; done += kChunkElems) {
      writeRange(i + done, std::min<std::uint64_t>(kChunkElems, n - done), buf);
    }
  }

  /// Set every element to `v`.
  void fill(const T& v) { fillRange(0, count_, v); }

  /// Copy every element from `other` (same length), chunked read-then-write.
  /// The chunking is identical with the bulk fast path on or off, so the
  /// access sequence (and therefore every observable) matches across modes.
  void copyFrom(const TrackedArray& other) {
    EC_CHECK(other.count_ == count_);
    T buf[kChunkElems];
    for (std::uint64_t i = 0; i < count_; i += kChunkElems) {
      const std::uint64_t n = std::min<std::uint64_t>(kChunkElems, count_ - i);
      other.readRange(i, n, buf);
      writeRange(i, n, buf);
    }
  }

  /// Read-only chunked traversal: fn(firstIndex, std::span<const T>) over
  /// consecutive chunks of at most kChunkElems elements, each loaded with one
  /// bulk range access through a stack buffer. Backs reductions and scans.
  template <typename Fn>
  void forEachChunk(Fn&& fn) const {
    T buf[kChunkElems];
    for (std::uint64_t i = 0; i < count_; i += kChunkElems) {
      const std::uint64_t n = std::min<std::uint64_t>(kChunkElems, count_ - i);
      readRange(i, n, buf);
      fn(i, std::span<const T>(buf, n));
    }
  }

  /// Element proxy enabling natural assignment/compound-assignment syntax.
  class Ref {
   public:
    Ref(TrackedArray& a, std::uint64_t i) : array_(a), index_(i) {}
    [[gnu::always_inline]] operator T() const {  // NOLINT(google-explicit-*)
      return array_.get(index_);
    }
    [[gnu::always_inline]] Ref& operator=(const T& v) {
      array_.set(index_, v);
      return *this;
    }
    [[gnu::always_inline]] Ref& operator=(const Ref& other) {
      return *this = static_cast<T>(other);
    }
    [[gnu::always_inline]] Ref& operator+=(const T& v) {
      array_.apply(index_, [&](T cur) { return cur + v; });
      return *this;
    }
    [[gnu::always_inline]] Ref& operator-=(const T& v) {
      array_.apply(index_, [&](T cur) { return cur - v; });
      return *this;
    }
    [[gnu::always_inline]] Ref& operator*=(const T& v) {
      array_.apply(index_, [&](T cur) { return cur * v; });
      return *this;
    }
    [[gnu::always_inline]] Ref& operator/=(const T& v) {
      array_.apply(index_, [&](T cur) { return cur / v; });
      return *this;
    }

   private:
    TrackedArray& array_;
    std::uint64_t index_;
  };

  [[gnu::always_inline]] Ref operator[](std::uint64_t i) { return Ref(*this, i); }
  [[gnu::always_inline]] T operator[](std::uint64_t i) const { return get(i); }

  /// Flush every cache block of this object (the paper's cache_block_flush).
  void persist(memsim::FlushKind kind = memsim::FlushKind::Clflushopt) {
    rt_->persistObject(id_, kind);
  }

 private:
  // The tracked path, out of line: the cache simulation is the cost of a
  // tracked access, and keeping it out of the app's loop leaves the direct
  // path's loop small.
  [[gnu::noinline]] T loadTracked(std::uint64_t addr) const {
    return rt_->loadValue<T>(addr);
  }
  [[gnu::noinline]] void storeTracked(std::uint64_t addr, const T& v) {
    rt_->storeValue(addr, v);
  }
  template <typename Mutator>
  [[gnu::noinline]] T applyTracked(std::uint64_t addr, Mutator& mutate) {
    return rt_->updateValue<T>(addr, mutate);
  }

  Runtime* rt_ = nullptr;
  ObjectId id_ = 0;
  std::uint64_t base_ = 0;
  std::uint64_t count_ = 0;
};

template <typename T>
class TrackedScalar {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(alignof(T) <= alignof(std::max_align_t));

 public:
  TrackedScalar() = default;
  TrackedScalar(Runtime& rt, std::string name, bool candidate)
      : rt_(&rt) {
    id_ = rt.allocate(std::move(name), sizeof(T), candidate);
    addr_ = rt.object(id_).addr;
  }

  [[nodiscard, gnu::always_inline]] T get() const {
    if (rt_->direct()) return rt_->directLoad<T>(addr_);
    return loadTracked();
  }
  [[gnu::always_inline]] void set(const T& v) {
    if (rt_->direct()) {
      rt_->directStore(addr_, v);
    } else {
      storeTracked(v);
    }
  }
  [[nodiscard]] T peek() const { return rt_->peekValue<T>(addr_); }
  [[nodiscard]] ObjectId id() const { return id_; }

 private:
  [[gnu::noinline]] T loadTracked() const { return rt_->loadValue<T>(addr_); }
  [[gnu::noinline]] void storeTracked(const T& v) { rt_->storeValue(addr_, v); }

  Runtime* rt_ = nullptr;
  ObjectId id_ = 0;
  std::uint64_t addr_ = 0;
};

/// RAII region marker (paper §5.2 code regions). Applications wrap each
/// first-level inner loop:
///
///   { RegionScope r(rt, 2);           // region R3 of MG
///     for (...) { ...; r.iterationEnd(); } }
class RegionScope {
 public:
  RegionScope(Runtime& rt, PointId region) : rt_(rt), region_(region) {
    rt_.beginRegion(region_);
  }
  ~RegionScope() {
    // endRegion can flush (persist point); a CrashEvent is never thrown from
    // flushes, so this destructor does not throw during crash unwinding.
    rt_.endRegion(region_);
  }
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;

  void iterationEnd() { rt_.regionIterationEnd(region_); }

 private:
  Runtime& rt_;
  PointId region_;
};

}  // namespace easycrash::runtime
