// Fork-protocol framing: WireWriter/WireReader round trips, and the reader's
// refusal of element counts the rest of a frame cannot hold — the guard that
// keeps a corrupt worker frame from sizing a multi-gigabyte vector before
// the truncation check would fire. The convergence memo's 'k' exchange is
// tested with its probe (MemoProbeTest.*).
#include <cstdint>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "wire.hpp"

namespace crash = easycrash::crash;

TEST(Wire, RoundTripsEveryFieldKind) {
  crash::WireWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(2.5);
  w.str("region");
  const std::string frame = w.take();
  crash::WireReader r(frame);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 2.5);
  EXPECT_EQ(r.str(), "region");
  EXPECT_THROW((void)r.u8(), std::runtime_error) << "reading past the end";
}

TEST(Wire, CountRejectsALengthTheFrameCannotHold) {
  crash::WireWriter w;
  w.u64(std::uint64_t{1} << 40);  // a corrupt length field
  w.u64(7);
  w.u64(9);
  const std::string frame = w.take();
  for (const std::uint64_t width : {1u, 4u, 8u, 52u}) {
    crash::WireReader r(frame);
    try {
      (void)r.count(width);
      FAIL() << "a 2^40-element count passed at width " << width;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "wire: truncated frame");
    }
  }
}

TEST(Wire, CountAcceptsExactlyWhatTheFrameHolds) {
  crash::WireWriter w;
  w.u64(2);
  w.u64(7);
  w.u64(9);
  const std::string frame = w.take();
  {
    crash::WireReader r(frame);
    ASSERT_EQ(r.count(8), 2u);
    EXPECT_EQ(r.u64(), 7u);
    EXPECT_EQ(r.u64(), 9u);
  }
  {
    crash::WireReader r(frame);
    EXPECT_THROW((void)r.count(9), std::runtime_error) << "two 9-byte elements need 18";
  }
}
