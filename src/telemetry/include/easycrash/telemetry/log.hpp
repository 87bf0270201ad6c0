// Leveled diagnostic logging for the simulator and the bundled app kernels.
//
// Messages go to stderr (never stdout — campaign summaries and CSV own
// stdout) and are mirrored into the trace sink as "log" events when tracing
// is on. The EC_LOG macro builds its message only when the level is
// enabled, so expensive diagnostics (field norms, dumps) cost one level
// check when silent. Initial level comes from $EC_LOG_LEVEL (default: info);
// nvct overrides it with --log-level.
#pragma once

#include <iosfwd>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace easycrash::telemetry {

enum class LogLevel : int { Error = 0, Warn = 1, Info = 2, Debug = 3, Trace = 4 };

void setLogLevel(LogLevel level);
[[nodiscard]] LogLevel logLevel();
/// "error" | "warn" | "info" | "debug" | "trace" (case-insensitive).
[[nodiscard]] std::optional<LogLevel> parseLogLevel(std::string_view name);
[[nodiscard]] const char* toString(LogLevel level);

[[nodiscard]] bool logEnabled(LogLevel level);
void logMessage(LogLevel level, std::string_view message);

// ---- The progress line ---------------------------------------------------
// stderr has one owner: log lines and the progress line's '\r' redraws
// (crash::StatusWriter) take one lock, and a log line first ends a progress
// line still open on std::cerr, so it never lands on the end of that line.

/// Redraw the open progress line on `os`: '\r', then `text` padded with
/// spaces to cover the previous draw on `os`. The line stays open.
void drawProgressLine(std::ostream& os, std::string_view text);
/// End the progress line open on `os` with '\n'; a no-op when none is.
void endProgressLine(std::ostream& os);

/// While `buffer` is set, log lines are appended to it instead of reaching
/// stderr; nullptr restores stderr. A campaign's fork worker child buffers
/// its lines this way and ships them in each reply, since it cannot see the
/// parent's progress line.
void redirectLogLines(std::string* buffer);
/// Write whole log lines (each ending in '\n', e.g. a worker's buffered
/// ones) as logMessage writes one: an open progress line is ended first.
void writeLogLines(std::string_view lines);

/// fork() support, as TraceSink's: hold the lock across the fork; parent
/// and child each release it. The child also forgets the parent's open
/// line, which is not its own to end.
void lockConsoleForFork();
void unlockConsoleAfterFork(bool inChild);

}  // namespace easycrash::telemetry

/// EC_LOG(telemetry::LogLevel::Debug, "norm=" << value): stream-style body,
/// evaluated only when the level is enabled.
#define EC_LOG(level, streamExpr)                                    \
  do {                                                               \
    if (::easycrash::telemetry::logEnabled(level)) {                 \
      std::ostringstream ecLogOs_;                                   \
      ecLogOs_ << streamExpr;                                        \
      ::easycrash::telemetry::logMessage(level, ecLogOs_.str());     \
    }                                                                \
  } while (false)

#define EC_LOG_ERROR(streamExpr) EC_LOG(::easycrash::telemetry::LogLevel::Error, streamExpr)
#define EC_LOG_WARN(streamExpr) EC_LOG(::easycrash::telemetry::LogLevel::Warn, streamExpr)
#define EC_LOG_INFO(streamExpr) EC_LOG(::easycrash::telemetry::LogLevel::Info, streamExpr)
#define EC_LOG_DEBUG(streamExpr) EC_LOG(::easycrash::telemetry::LogLevel::Debug, streamExpr)
#define EC_LOG_TRACE(streamExpr) EC_LOG(::easycrash::telemetry::LogLevel::Trace, streamExpr)
