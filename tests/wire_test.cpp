// Fork-protocol framing: WireWriter/WireReader round trips, and the reader's
// refusal of element counts the rest of a frame cannot hold — the guard that
// keeps a corrupt worker frame from sizing a multi-gigabyte vector before
// the truncation check would fire — and the convergence memo's two wire
// fields: the table delta an 'R' request carries and the keys an 'r' reply
// carries. A malformed one throws (a protocol death) before anything lands
// in a table.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "convergence_memo.hpp"
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

namespace {

crash::MemoKey memoKey(int iteration, std::uint64_t lo) { return {iteration, {lo, lo * 3}}; }

}  // namespace

TEST(Wire, ATruncatedMemoDeltaLandsNothing) {
  crash::MemoTable parent;
  parent.insert({memoKey(1, 11), memoKey(2, 12)},
                {crash::Response::S1, 0, 6, "golden note"}, crash::MemoSource::Golden);
  parent.insert({memoKey(3, 13)}, {crash::Response::S4, 0, 12, "trial note"},
                crash::MemoSource::Trial);
  crash::MemoTable::Cursor cursor;
  crash::WireWriter w;
  parent.encodeDelta(w, cursor);
  const std::string frame = w.take();
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const std::string truncated = frame.substr(0, cut);
    crash::MemoTable replica;
    crash::WireReader r(truncated);
    EXPECT_THROW(replica.applyDelta(r), std::runtime_error) << "cut at " << cut;
    EXPECT_EQ(replica.size(), 0u) << "cut at " << cut;
  }
  crash::MemoTable replica;
  crash::WireReader r(frame);
  replica.applyDelta(r);
  EXPECT_EQ(replica.size(), 3u);
}

TEST(Wire, AMemoKeyCountTheFrameCannotHoldIsRefused) {
  crash::WireWriter w;
  w.u64(std::uint64_t{1} << 40);  // a corrupt key count
  w.i64(1);
  w.u64(7);
  w.u64(9);
  const std::string frame = w.take();
  crash::WireReader r(frame);
  try {
    (void)crash::decodeMemoKeys(r, 1, 1 << 20);
    FAIL() << "a 2^40-key reply decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "wire: truncated frame");
  }
}

TEST(Wire, MemoKeysPastTheIterationCapAreRefused) {
  const auto frameOf = [](const std::vector<crash::MemoKey>& keys) {
    crash::WireWriter w;
    crash::encodeMemoKeys(w, keys);
    return w.take();
  };
  // A restart from iteration 3 under cap 6 passes at most iterations 3..6.
  const std::string fits = frameOf({memoKey(3, 1), memoKey(6, 2)});
  crash::WireReader ok(fits);
  EXPECT_EQ(crash::decodeMemoKeys(ok, 3, 6).size(), 2u);
  for (const auto& keys : {std::vector<crash::MemoKey>{memoKey(7, 1)},
                           std::vector<crash::MemoKey>{memoKey(2, 1)},
                           std::vector<crash::MemoKey>{memoKey(3, 1), memoKey(4, 2),
                                                       memoKey(5, 3), memoKey(6, 4),
                                                       memoKey(6, 5)}}) {
    const std::string frame = frameOf(keys);
    crash::WireReader r(frame);
    EXPECT_THROW((void)crash::decodeMemoKeys(r, 3, 6), std::runtime_error)
        << keys.size() << " key(s) from iteration " << keys.front().iteration;
  }
}
