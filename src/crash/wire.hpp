// Byte framing of the fork evaluator's wire protocol (src/crash/campaign.cpp
// documents the messages): a little-endian writer, and a bounds-checked
// reader whose every overrun throws std::runtime_error("wire: truncated
// frame"), which the campaign maps to a protocol worker death. Internal to
// ec_crash; the tests include it to exercise the reader's length checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace easycrash::crash {

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    buf_.append(s);
  }
  void raw(const void* data, std::size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over one received frame. Every overrun throws — the
/// campaign maps a malformed frame to a protocol worker death.
class WireReader {
 public:
  explicit WireReader(const std::string& buf) : buf_(buf) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(buf_[pos_++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf_[pos_++])) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf_[pos_++])) << (8 * i);
    }
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t len = u64();
    need(len);
    std::string out(buf_.data() + pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return out;
  }
  void raw(void* out, std::size_t len) {
    need(len);
    std::memcpy(out, buf_.data() + pos_, len);
    pos_ += len;
  }
  /// An element count read before sizing a container from it: throws
  /// unless the rest of the frame can hold that many elements of at least
  /// `minBytesPerElement` (>= 1) bytes each, so a corrupt length fails here
  /// instead of value-initialising a huge vector first.
  std::uint64_t count(std::uint64_t minBytesPerElement) {
    const std::uint64_t n = u64();
    if (n > (buf_.size() - pos_) / minBytesPerElement) {
      throw std::runtime_error("wire: truncated frame");
    }
    return n;
  }

 private:
  void need(std::uint64_t n) const {
    if (n > buf_.size() - pos_) {
      throw std::runtime_error("wire: truncated frame");
    }
  }

  const std::string& buf_;
  std::size_t pos_ = 0;
};

}  // namespace easycrash::crash
