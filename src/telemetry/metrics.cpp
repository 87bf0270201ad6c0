#include "easycrash/telemetry/metrics.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "easycrash/common/check.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash::telemetry {

Histogram::Histogram(std::vector<double> upperBounds)
    : bounds_(std::move(upperBounds)) {
  EC_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bounds must be ascending");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

std::vector<double> Histogram::exponentialBounds(double start, double factor,
                                                 int count) {
  EC_CHECK(start > 0.0 && factor > 1.0 && count > 0);
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double edge = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return bounds;
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::merge(const std::vector<std::uint64_t>& buckets, double sum) {
  EC_CHECK_MSG(buckets.size() == bounds_.size() + 1,
               "histogram merge: bucket count does not match the bounds");
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets_[i].fetch_add(buckets[i], std::memory_order_relaxed);
    count += buckets[i];
  }
  count_.fetch_add(count, std::memory_order_relaxed);
  sum_.fetch_add(sum, std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upperBounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upperBounds));
  return *slot;
}

void MetricsRegistry::writeJson(std::ostream& os,
                                std::string_view extraSection) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string key;
  const auto writeKey = [&](const std::string& name) {
    key.clear();
    appendJsonEscaped(key, name);
    os << '"' << key << "\":";
  };

  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n    " : ",\n    ");
    writeKey(name);
    os << c->value();
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n    " : ",\n    ");
    writeKey(name);
    os << g->value();
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n    " : ",\n    ");
    writeKey(name);
    os << "{\"count\":" << h->count() << ",\"sum\":" << h->sum()
       << ",\"buckets\":[";
    for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
      if (i) os << ',';
      os << "{\"le\":";
      if (i < h->bounds().size()) {
        os << h->bounds()[i];
      } else {
        os << "\"+Inf\"";
      }
      os << ",\"count\":" << h->bucketCount(i) << '}';
    }
    os << "]}";
    first = false;
  }
  os << "\n  }";
  if (!extraSection.empty()) os << ",\n  " << extraSection;
  os << "\n}\n";
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [name, c] : counters_) {
    if (c->value() != 0) out.counters[name] = c->value();
  }
  for (const auto& [name, h] : histograms_) {
    if (h->count() == 0) continue;
    MetricsSnapshot::HistogramData& data = out.histograms[name];
    data.bounds = h->bounds();
    for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
      data.buckets.push_back(h->bucketCount(i));
    }
    data.sum = h->sum();
  }
  return out;
}

void MetricsRegistry::merge(const MetricsSnapshot& delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, data] : delta.histograms) {
    const auto it = histograms_.find(name);
    const bool shaped =
        data.buckets.size() == data.bounds.size() + 1 &&
        std::is_sorted(data.bounds.begin(), data.bounds.end()) &&
        (it == histograms_.end() || it->second->bounds() == data.bounds);
    if (!shaped) {
      throw std::invalid_argument("metrics merge: histogram '" + name +
                                  "' does not match the registered shape");
    }
  }
  for (const auto& [name, value] : delta.counters) {
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    slot->add(value);
  }
  for (const auto& [name, data] : delta.histograms) {
    auto& slot = histograms_[name];
    if (!slot) slot = std::make_unique<Histogram>(data.bounds);
    slot->merge(data.buckets, data.sum);
  }
}

}  // namespace easycrash::telemetry
