#include "easycrash/telemetry/trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace easycrash::telemetry {

namespace {

std::chrono::steady_clock::time_point processStart() {
  static const auto start = std::chrono::steady_clock::now();
  return start;
}

// Touch the epoch early so timestamps are process-relative even when the
// first event fires late.
const bool kEpochInit = (processStart(), true);

}  // namespace

std::uint64_t nowNs() noexcept {
  (void)kEpochInit;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - processStart())
          .count());
}

void appendJsonEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void appendExactDouble(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

TraceEvent::TraceEvent(std::string_view type) {
  line_.reserve(160);
  line_ += "{\"type\":\"";
  appendJsonEscaped(line_, type);
  line_ += "\",\"ts_ns\":";
  line_ += std::to_string(nowNs());
}

TraceEvent& TraceEvent::field(std::string_view key, std::string_view value) {
  line_ += ",\"";
  appendJsonEscaped(line_, key);
  line_ += "\":\"";
  appendJsonEscaped(line_, value);
  line_ += '"';
  return *this;
}

TraceEvent& TraceEvent::field(std::string_view key, std::uint64_t value) {
  line_ += ",\"";
  appendJsonEscaped(line_, key);
  line_ += "\":";
  line_ += std::to_string(value);
  return *this;
}

TraceEvent& TraceEvent::field(std::string_view key, std::int64_t value) {
  line_ += ",\"";
  appendJsonEscaped(line_, key);
  line_ += "\":";
  line_ += std::to_string(value);
  return *this;
}

TraceEvent& TraceEvent::field(std::string_view key, double value) {
  line_ += ",\"";
  appendJsonEscaped(line_, key);
  line_ += "\":";
  appendExactDouble(line_, value);
  return *this;
}

TraceEvent& TraceEvent::field(std::string_view key, bool value) {
  line_ += ",\"";
  appendJsonEscaped(line_, key);
  line_ += "\":";
  line_ += value ? "true" : "false";
  return *this;
}

void TraceEvent::emit() { TraceSink::instance().write(line_); }

TraceSink& TraceSink::instance() {
  static TraceSink sink;
  return sink;
}

void TraceSink::openFile(const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!*file) throw std::runtime_error("cannot open trace file " + path);
  std::lock_guard<std::mutex> lock(mutex_);
  file_ = std::move(file);
  os_ = file_.get();
  detail::g_tracingEnabled.store(true, std::memory_order_relaxed);
}

void TraceSink::attachStream(std::ostream* os) {
  std::lock_guard<std::mutex> lock(mutex_);
  file_.reset();
  os_ = os;
  detail::g_tracingEnabled.store(os != nullptr, std::memory_order_relaxed);
}

void TraceSink::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  detail::g_tracingEnabled.store(false, std::memory_order_relaxed);
  if (os_ != nullptr) os_->flush();
  file_.reset();
  os_ = nullptr;
}

void TraceSink::setCommonField(std::string_view key, std::string_view value) {
  std::lock_guard<std::mutex> lock(mutex_);
  commonFields_ += ",\"";
  appendJsonEscaped(commonFields_, key);
  commonFields_ += "\":\"";
  appendJsonEscaped(commonFields_, value);
  commonFields_ += '"';
}

void TraceSink::clearCommonFields() {
  std::lock_guard<std::mutex> lock(mutex_);
  commonFields_.clear();
}

void TraceSink::write(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (os_ == nullptr) return;  // sink closed while the event was being built
  *os_ << line << commonFields_ << "}\n";
}

void TraceSink::writeRaw(std::string_view text) {
  if (text.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (os_ == nullptr) return;
  os_->write(text.data(), static_cast<std::streamsize>(text.size()));
}

void TraceSink::lockForFork() {
  mutex_.lock();
  if (os_ != nullptr) os_->flush();
}

void TraceSink::unlockAfterFork() { mutex_.unlock(); }

void TraceSink::redirectInForkedChild(std::ostream* os) {
  std::lock_guard<std::mutex> lock(mutex_);
  // release(), not reset(): destroying the inherited ofstream would flush
  // any buffered bytes a second time from the child. The leak is bounded —
  // a worker child never opens another file and exits via _exit().
  (void)file_.release();
  os_ = os;
}

}  // namespace easycrash::telemetry
