// Minimal JSON parser for the program's own files: trace JSONL lines,
// metrics exports and status snapshots (trace_lint, the tests, the report),
// and the campaign journal (crash::readJournal). Full RFC 8259 value
// grammar. A number is held as a double in `number`, and its source text
// in `string`, so a reader that needs an exact integer (a 64-bit seed, an
// index) parses the text with std::from_chars instead of trusting the
// double's 53-bit mantissa.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace easycrash::telemetry::json {

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;  ///< a String's value, or a Number's source text
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // preserves order

  [[nodiscard]] bool isObject() const { return kind == Kind::Object; }
  [[nodiscard]] bool isNumber() const { return kind == Kind::Number; }
  [[nodiscard]] bool isString() const { return kind == Kind::String; }

  /// First member with this key, or nullptr.
  [[nodiscard]] const Value* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parse a complete JSON document (trailing whitespace allowed, nothing
/// else). On failure returns nullopt and, if `error` is given, a message
/// with the byte offset.
[[nodiscard]] std::optional<Value> parse(std::string_view text,
                                         std::string* error = nullptr);

}  // namespace easycrash::telemetry::json
