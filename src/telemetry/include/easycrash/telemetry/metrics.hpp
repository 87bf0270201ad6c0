// Process-wide metrics registry: named counters, gauges and fixed-bucket
// histograms with cheap hot-path updates (relaxed atomics) and JSON export.
//
// Instruments are registered once (mutex-guarded name lookup) and the
// returned references stay valid for the process lifetime, so hot paths hold
// a `Counter&`/`Histogram&` and never touch the registry map again. The
// exported JSON is the machine-readable companion of the campaign summary:
// `memsim.*` counters aggregate the same MemEvents that produce Table 4.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace easycrash::telemetry {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. `upperBounds` are inclusive bucket upper edges in
/// ascending order; one implicit +Inf overflow bucket is appended.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upperBounds);

  /// {start, start*factor, ...} of `count` bounds — the usual latency shape.
  [[nodiscard]] static std::vector<double> exponentialBounds(double start,
                                                             double factor,
                                                             int count);

  void observe(double v) noexcept;
  /// Fold in another histogram's observations over the same bounds:
  /// `buckets` holds one count per bucket (bounds().size() + 1 of them) and
  /// `sum` the sum of the observed values.
  void merge(const std::vector<std::uint64_t>& buckets, double sum);

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Bucket i counts observations in (bounds[i-1], bounds[i]]; the last
  /// bucket (index bounds().size()) is the +Inf overflow bucket.
  [[nodiscard]] std::uint64_t bucketCount(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// The additive state of a registry: every non-zero counter and histogram,
/// by name. A fork worker ships one with each reply and the parent folds it
/// in (MetricsRegistry::merge), so the parent records exactly what an
/// in-process run records. Gauges are point-in-time values, not deltas, and
/// are not part of a snapshot.
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 counts
    double sum = 0.0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramData> histograms;
};

class MetricsRegistry {
 public:
  /// The process-wide registry.
  static MetricsRegistry& instance();

  /// Find-or-create by name. References remain valid forever.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `upperBounds` is used only on first registration of `name`.
  Histogram& histogram(const std::string& name, std::vector<double> upperBounds);

  /// One JSON object: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  /// `extraSection`, when non-empty, is a pre-rendered `"key": value` fragment
  /// appended as one more top-level member (the campaign's "profile" section).
  /// std::map iteration keeps the key order deterministic regardless of
  /// registration order.
  void writeJson(std::ostream& os, std::string_view extraSection = {}) const;

  /// Zero every instrument (names stay registered). For tests, and for fork
  /// workers, which start every request from zero.
  void reset();

  /// Every non-zero counter and histogram (see MetricsSnapshot).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Add a snapshot's counts into this registry, registering unknown names
  /// with the shipped bounds. All or nothing: a histogram whose bucket count
  /// does not fit its bounds, or whose bounds differ from the registered
  /// instrument's, throws std::invalid_argument and changes nothing.
  void merge(const MetricsSnapshot& delta);

  /// fork() support: hold the registry mutex across the fork so a child
  /// never inherits it locked mid-registration. Parent and child each
  /// release their copy after the fork.
  void lockForFork() { mutex_.lock(); }
  void unlockAfterFork() { mutex_.unlock(); }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace easycrash::telemetry
