#include "easycrash/telemetry/log.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>

#include "easycrash/telemetry/trace.hpp"

namespace easycrash::telemetry {

namespace {

std::atomic<int>& levelVar() {
  static std::atomic<int> level = [] {
    if (const char* env = std::getenv("EC_LOG_LEVEL")) {
      if (const auto parsed = parseLogLevel(env)) {
        return static_cast<int>(*parsed);
      }
    }
    return static_cast<int>(LogLevel::Info);
  }();
  return level;
}

/// stderr's one owner (log.hpp "The progress line").
struct Console {
  std::mutex mutex;
  std::ostream* open = nullptr;   ///< stream whose progress line is open
  std::size_t width = 0;          ///< that line's drawn length
  std::string* buffer = nullptr;  ///< redirectLogLines() target, if any
};

Console& console() {
  static Console c;
  return c;
}

}  // namespace

void drawProgressLine(std::ostream& os, std::string_view text) {
  Console& c = console();
  std::lock_guard<std::mutex> lock(c.mutex);
  os << '\r' << text;
  if (c.open == &os && c.width > text.size()) {
    os << std::string(c.width - text.size(), ' ');
  }
  os.flush();
  c.open = &os;
  c.width = text.size();
}

void endProgressLine(std::ostream& os) {
  Console& c = console();
  std::lock_guard<std::mutex> lock(c.mutex);
  if (c.open != &os) return;
  os << '\n';
  c.open = nullptr;
  c.width = 0;
}

void redirectLogLines(std::string* buffer) {
  Console& c = console();
  std::lock_guard<std::mutex> lock(c.mutex);
  c.buffer = buffer;
}

void writeLogLines(std::string_view lines) {
  if (lines.empty()) return;
  // One write under the console lock keeps concurrent campaign workers from
  // interleaving mid-line, and starts it on a fresh line.
  Console& c = console();
  std::lock_guard<std::mutex> lock(c.mutex);
  if (c.buffer != nullptr) {
    c.buffer->append(lines);
    return;
  }
  std::string out;
  if (c.open == &std::cerr) {
    out += '\n';
    c.open = nullptr;
    c.width = 0;
  }
  out += lines;
  std::cerr << out;
}

void lockConsoleForFork() { console().mutex.lock(); }

void unlockConsoleAfterFork(bool inChild) {
  Console& c = console();
  if (inChild) c.open = nullptr;
  c.mutex.unlock();
}

void setLogLevel(LogLevel level) {
  levelVar().store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel logLevel() {
  return static_cast<LogLevel>(levelVar().load(std::memory_order_relaxed));
}

std::optional<LogLevel> parseLogLevel(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (lower == "error") return LogLevel::Error;
  if (lower == "warn" || lower == "warning") return LogLevel::Warn;
  if (lower == "info") return LogLevel::Info;
  if (lower == "debug") return LogLevel::Debug;
  if (lower == "trace") return LogLevel::Trace;
  return std::nullopt;
}

const char* toString(LogLevel level) {
  switch (level) {
    case LogLevel::Error: return "error";
    case LogLevel::Warn: return "warn";
    case LogLevel::Info: return "info";
    case LogLevel::Debug: return "debug";
    case LogLevel::Trace: return "trace";
  }
  return "?";
}

bool logEnabled(LogLevel level) {
  return static_cast<int>(level) <=
         levelVar().load(std::memory_order_relaxed);
}

void logMessage(LogLevel level, std::string_view message) {
  std::string line;
  line.reserve(message.size() + 24);
  line += "[easycrash ";
  line += toString(level);
  line += "] ";
  line += message;
  line += '\n';
  writeLogLines(line);
  if (tracing()) {
    TraceEvent("log").field("level", toString(level)).field("msg", message).emit();
  }
}

}  // namespace easycrash::telemetry
