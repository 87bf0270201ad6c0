// Minimal command-line option parsing for bench and example binaries.
//
// Supports "--name value" and "--name=value" forms plus boolean flags.
// Unknown options raise an error listing the registered options, so every
// bench binary gets a usable --help for free. A string, int or double option
// may be given once, and an int or double must parse whole; a flag may
// repeat, and a list option appends every occurrence.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace easycrash {

class CliParser {
 public:
  explicit CliParser(std::string description);

  /// Register an option with a default value and help text.
  void addString(const std::string& name, std::string defaultValue, std::string help);
  void addInt(const std::string& name, std::int64_t defaultValue, std::string help);
  void addDouble(const std::string& name, double defaultValue, std::string help);
  void addFlag(const std::string& name, std::string help);
  /// Repeatable option: every occurrence appends to the value list.
  void addStringList(const std::string& name, std::string help);

  /// Parse argv. Returns false (after printing usage) if --help was given.
  /// Throws std::runtime_error, naming the option, on an unknown option, a
  /// malformed value, or a second value for a string, int or double option.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] const std::string& getString(const std::string& name) const;
  [[nodiscard]] std::int64_t getInt(const std::string& name) const;
  /// The int option `name` as a T in [min, max]; a value outside throws
  /// std::runtime_error naming the option.
  template <typename T>
  [[nodiscard]] T getIntIn(const std::string& name, T min,
                           T max = std::numeric_limits<T>::max()) const;
  [[nodiscard]] double getDouble(const std::string& name) const;
  [[nodiscard]] bool getFlag(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& getStringList(
      const std::string& name) const;

  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { String, Int, Double, Flag, List };
  struct Option {
    Kind kind;
    std::string value;  // textual form; flags use "0"/"1"
    std::string defaultValue;
    std::string help;
    std::vector<std::string> values;  // Kind::List only
    bool given = false;
  };
  const Option& find(const std::string& name, Kind kind) const;

  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
};

template <typename T>
T CliParser::getIntIn(const std::string& name, T min, T max) const {
  const std::int64_t value = getInt(name);
  std::string bound;
  if (std::cmp_less(value, min)) {
    bound = min == 0   ? "must not be negative"
            : min == 1 ? "must be positive"
                       : "must be at least " + std::to_string(min);
  } else if (std::cmp_greater(value, max)) {
    bound = "must be at most " + std::to_string(max);
  } else {
    return static_cast<T>(value);
  }
  throw std::runtime_error("--" + name + " " + bound + " (got " + std::to_string(value) +
                           ")");
}

}  // namespace easycrash
