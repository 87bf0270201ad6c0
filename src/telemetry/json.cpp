#include "easycrash/telemetry/json.hpp"

#include <cctype>
#include <cstdlib>

namespace easycrash::telemetry::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(std::string* error) {
    skipWs();
    Value v;
    if (!parseValue(v)) {
      if (error) *error = error_ + " at offset " + std::to_string(pos_);
      return std::nullopt;
    }
    skipWs();
    if (pos_ != text_.size()) {
      if (error) *error = "trailing characters at offset " + std::to_string(pos_);
      return std::nullopt;
    }
    return v;
  }

 private:
  bool fail(const char* message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool parseValue(Value& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parseObject(out);
      case '[': return parseArray(out);
      case '"':
        out.kind = Value::Kind::String;
        return parseString(out.string);
      case 't':
        out.kind = Value::Kind::Bool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = Value::Kind::Bool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = Value::Kind::Null;
        return literal("null");
      default: return parseNumber(out);
    }
  }

  bool parseObject(Value& out) {
    out.kind = Value::Kind::Object;
    ++pos_;  // '{'
    skipWs();
    if (consume('}')) return true;
    for (;;) {
      skipWs();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected key");
      if (!parseString(key)) return false;
      skipWs();
      if (!consume(':')) return fail("expected ':'");
      skipWs();
      Value v;
      if (!parseValue(v)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skipWs();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  bool parseArray(Value& out) {
    out.kind = Value::Kind::Array;
    ++pos_;  // '['
    skipWs();
    if (consume(']')) return true;
    for (;;) {
      skipWs();
      Value v;
      if (!parseValue(v)) return false;
      out.array.push_back(std::move(v));
      skipWs();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  bool parseString(std::string& out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          if (!parseHex4(code)) return false;
          if (code >= 0xD800 && code <= 0xDBFF) {
            // Surrogate pair: require the low half.
            if (!consume('\\') || !consume('u')) return fail("lone surrogate");
            unsigned low = 0;
            if (!parseHex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) return fail("bad low surrogate");
            appendUtf8(out, 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00));
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return fail("lone surrogate");
          } else {
            appendUtf8(out, code);
          }
          break;
        }
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseHex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return fail("short \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<unsigned>(c - 'A' + 10);
      else return fail("bad \\u escape");
    }
    return true;
  }

  static void appendUtf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  bool parseNumber(Value& out) {
    const std::size_t start = pos_;
    if (consume('-')) { /* sign */ }
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return fail("bad number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (consume('.')) {
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return fail("bad fraction");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return fail("bad exponent");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    out.kind = Value::Kind::Number;
    out.string.assign(text_.substr(start, pos_ - start));
    out.number = std::strtod(out.string.c_str(), nullptr);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace easycrash::telemetry::json
