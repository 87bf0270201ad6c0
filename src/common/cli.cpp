#include "easycrash/common/cli.hpp"

#include <charconv>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "easycrash/common/check.hpp"

namespace easycrash {

namespace {

/// The whole of `text` as a T, or a message naming the option `--name`.
template <typename T>
T parseNumber(const std::string& name, const std::string& text, const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc::result_out_of_range) {
    throw std::runtime_error("--" + name + ": " + text + " is out of range");
  }
  if (error != std::errc() || stop != end) {
    throw std::runtime_error("--" + name + " expects " + what + ", got '" + text + "'");
  }
  return value;
}

}  // namespace

CliParser::CliParser(std::string description) : description_(std::move(description)) {}

void CliParser::addString(const std::string& name, std::string defaultValue,
                          std::string help) {
  EC_CHECK(!options_.contains(name));
  options_[name] = Option{Kind::String, defaultValue, defaultValue, std::move(help), {}};
  order_.push_back(name);
}

void CliParser::addInt(const std::string& name, std::int64_t defaultValue,
                       std::string help) {
  EC_CHECK(!options_.contains(name));
  const std::string text = std::to_string(defaultValue);
  options_[name] = Option{Kind::Int, text, text, std::move(help), {}};
  order_.push_back(name);
}

void CliParser::addDouble(const std::string& name, double defaultValue,
                          std::string help) {
  EC_CHECK(!options_.contains(name));
  std::ostringstream os;
  os << defaultValue;
  options_[name] = Option{Kind::Double, os.str(), os.str(), std::move(help), {}};
  order_.push_back(name);
}

void CliParser::addFlag(const std::string& name, std::string help) {
  EC_CHECK(!options_.contains(name));
  options_[name] = Option{Kind::Flag, "0", "0", std::move(help), {}};
  order_.push_back(name);
}

void CliParser::addStringList(const std::string& name, std::string help) {
  EC_CHECK(!options_.contains(name));
  options_[name] = Option{Kind::List, "", "", std::move(help), {}};
  order_.push_back(name);
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::runtime_error("unexpected positional argument: " + arg + "\n" + usage());
    }
    arg = arg.substr(2);
    std::string value;
    bool hasValue = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      hasValue = true;
    }
    auto it = options_.find(arg);
    if (it == options_.end()) {
      throw std::runtime_error("unknown option --" + arg + "\n" + usage());
    }
    Option& opt = it->second;
    if (opt.kind == Kind::Flag) {
      opt.value = hasValue ? value : "1";
      continue;
    }
    if (!hasValue) {
      if (i + 1 >= argc) throw std::runtime_error("missing value for --" + arg);
      value = argv[++i];
    }
    if (opt.kind == Kind::List) {
      opt.values.push_back(value);
      continue;
    }
    if (opt.given) throw std::runtime_error("--" + arg + " given more than once");
    if (opt.kind == Kind::Int) (void)parseNumber<std::int64_t>(arg, value, "an integer");
    if (opt.kind == Kind::Double) (void)parseNumber<double>(arg, value, "a number");
    opt.given = true;
    opt.value = value;
  }
  return true;
}

const CliParser::Option& CliParser::find(const std::string& name, Kind kind) const {
  auto it = options_.find(name);
  EC_CHECK_MSG(it != options_.end(), "option not registered: " + name);
  EC_CHECK_MSG(it->second.kind == kind, "option kind mismatch: " + name);
  return it->second;
}

const std::string& CliParser::getString(const std::string& name) const {
  return find(name, Kind::String).value;
}

std::int64_t CliParser::getInt(const std::string& name) const {
  return parseNumber<std::int64_t>(name, find(name, Kind::Int).value, "an integer");
}

double CliParser::getDouble(const std::string& name) const {
  return parseNumber<double>(name, find(name, Kind::Double).value, "a number");
}

bool CliParser::getFlag(const std::string& name) const {
  const std::string& v = find(name, Kind::Flag).value;
  return v == "1" || v == "true" || v == "yes";
}

const std::vector<std::string>& CliParser::getStringList(
    const std::string& name) const {
  return find(name, Kind::List).values;
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nOptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name;
    if (opt.kind != Kind::Flag) os << " <value>";
    os << "\n      " << opt.help;
    if (opt.kind == Kind::List) {
      os << " (repeatable)";
    } else if (opt.kind != Kind::Flag) {
      os << " (default: " << opt.defaultValue << ")";
    }
    os << '\n';
  }
  os << "  --help\n      Show this message\n";
  return os.str();
}

}  // namespace easycrash
