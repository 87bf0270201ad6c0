// Structured JSONL trace sink.
//
// One process-wide sink writes one JSON object per line: crash injections,
// region entry/exit (with per-region MemEvents deltas), flush bursts,
// persist calls, restart/recovery outcomes and workflow phase transitions.
//
// Cost model: the hot-path guard is `telemetry::tracing()` — one relaxed
// atomic load. Every event-building call site must sit behind this guard so
// a run without --trace-out pays one predictable branch per instrumentation
// point and nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace easycrash::telemetry {

namespace detail {
inline std::atomic<bool> g_tracingEnabled{false};
}  // namespace detail

/// True when a sink is open. Call sites guard event construction with this.
[[nodiscard]] inline bool tracing() noexcept {
  return detail::g_tracingEnabled.load(std::memory_order_relaxed);
}

/// Monotonic nanoseconds since the first telemetry call in this process.
[[nodiscard]] std::uint64_t nowNs() noexcept;

/// Append `s` to `out` with JSON string escaping (quotes, backslash and
/// control characters; the payload is passed through as UTF-8).
void appendJsonEscaped(std::string& out, std::string_view s);

/// Append `v` as `%.17g`, which strtod parses back to the same double.
void appendExactDouble(std::string& out, double v);

/// Builder for one trace line. Constructing captures the timestamp; fields
/// are serialized immediately into an internal buffer; emit() hands the
/// line to the sink (a no-op when the sink was closed in the meantime).
class TraceEvent {
 public:
  explicit TraceEvent(std::string_view type);

  TraceEvent& field(std::string_view key, std::string_view value);
  TraceEvent& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  TraceEvent& field(std::string_view key, std::uint64_t value);
  TraceEvent& field(std::string_view key, std::int64_t value);
  TraceEvent& field(std::string_view key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  TraceEvent& field(std::string_view key, std::uint32_t value) {
    return field(key, static_cast<std::uint64_t>(value));
  }
  TraceEvent& field(std::string_view key, double value);
  TraceEvent& field(std::string_view key, bool value);

  void emit();

 private:
  std::string line_;  // "{"type":...,"ts_ns":...  — closed by the sink
};

/// The process-wide JSONL sink. Opening a destination enables `tracing()`.
class TraceSink {
 public:
  static TraceSink& instance();

  /// Open `path` for writing (truncates). Throws std::runtime_error if the
  /// file cannot be opened.
  void openFile(const std::string& path);
  /// Attach a non-owning stream (tests). The caller keeps it alive until
  /// close().
  void attachStream(std::ostream* os);
  /// Flush and detach; disables tracing().
  void close();

  /// Set a field appended to every subsequent event (e.g. app=cg, set once
  /// per process by nvct). Value is escaped here.
  void setCommonField(std::string_view key, std::string_view value);
  void clearCommonFields();

  /// Internal: complete `line` with common fields + '}' and write it.
  void write(const std::string& line);

  /// Write already-complete trace lines verbatim (no common fields, no
  /// terminator added). Used by the campaign's fork evaluator to splice
  /// lines a worker child emitted into its own redirected sink back into
  /// the parent's trace file. `text` must be zero or more whole lines.
  void writeRaw(std::string_view text);

  // ---- fork() support ---------------------------------------------------
  // A multi-threaded parent must not fork while another thread holds the
  // sink mutex (the child would inherit it locked, and the inherited stdio
  // buffer would be flushed twice). lockForFork() takes the mutex and
  // flushes the destination; the parent and the child each release it on
  // their side after the fork.

  void lockForFork();
  void unlockAfterFork();
  /// In a freshly forked child: abandon the inherited file handle WITHOUT
  /// flushing (the parent owns those buffered bytes) and point the sink at
  /// `os`. The enabled/disabled state is left as inherited, so a child of a
  /// non-tracing parent keeps emitting nothing.
  void redirectInForkedChild(std::ostream* os);

 private:
  std::mutex mutex_;
  std::unique_ptr<std::ofstream> file_;
  std::ostream* os_ = nullptr;
  std::string commonFields_;  // ","key":"value"... fragment
};

}  // namespace easycrash::telemetry
