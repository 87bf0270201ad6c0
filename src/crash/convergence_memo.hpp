// The convergence memo (docs/INTERNALS.md "Convergence memo"): one
// (iteration, state key) -> outcome table per campaign. A restart whose
// state at a checked iteration end equals a state the campaign has already
// decided would replay that decision, so it stops there and copies the
// outcome. The golden run seeds the table; every decided restart extends it
// with the keys it passed. Internal to ec_crash; the tests include it to
// drive the table and its wire format directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "easycrash/crash/campaign.hpp"
#include "wire.hpp"

namespace easycrash::crash {

/// Where a table entry came from.
enum class MemoSource : std::uint8_t { Golden = 0, Trial = 1 };

[[nodiscard]] const char* toString(MemoSource source);

/// The part of a record a restart decides, plus the last iteration the
/// restart completed (what a hit skips is counted up to it). Like the
/// response, it is a function of the key that reached it.
struct MemoOutcome {
  Response response = Response::S4;
  int extraIterations = 0;
  int lastIteration = 0;
  std::string note;

  [[nodiscard]] auto tie() const {
    return std::tie(response, extraIterations, lastIteration, note);
  }
  friend bool operator==(const MemoOutcome& a, const MemoOutcome& b) {
    return a.tie() == b.tie();
  }
  friend bool operator<(const MemoOutcome& a, const MemoOutcome& b) {
    return a.tie() < b.tie();
  }
};

struct MemoHit {
  MemoOutcome outcome;
  MemoSource source = MemoSource::Golden;
};

/// What one restart leaves for the table: the keys of its checked
/// iteration ends up to its decision (a hit's own key is already in the
/// table) and the last iteration its outcome stands for. `bytes` holds
/// each key's state bytes under MemoSeams::compareBytes only.
struct MemoTrail {
  int lastIteration = 0;
  std::vector<MemoKey> keys;
  std::vector<std::string> bytes;
};

/// One campaign's table. Thread-safe: restart lanes look up and insert
/// concurrently. Outcomes are interned, so an entry is a key and an
/// outcome index; entries are kept in insertion order, which is what a
/// fork worker's replica receives in deltas.
class MemoTable {
 public:
  /// The entry for `key`. With `bytes` (MemoSeams::compareBytes), an entry
  /// that kept its state bytes must hold exactly these, or the digest
  /// collided: that throws std::logic_error.
  [[nodiscard]] std::optional<MemoHit> find(const MemoKey& key,
                                            const std::string* bytes = nullptr) const;

  /// Record that every key of `keys` decides `outcome`. A key already
  /// present keeps its entry: by purity its outcome is the same.
  /// `bytes` is parallel to `keys` or empty.
  void insert(const std::vector<MemoKey>& keys, const MemoOutcome& outcome,
              MemoSource source, const std::vector<std::string>& bytes = {});

  [[nodiscard]] std::size_t size() const;

  /// How much of the table one fork worker's replica already holds.
  struct Cursor {
    std::size_t outcomes = 0;
    std::size_t entries = 0;
  };
  /// Append the outcomes and entries added since `cursor` (an 'R' request's
  /// table delta) and advance it.
  void encodeDelta(WireWriter& w, Cursor& cursor) const;
  /// Apply a delta encodeDelta wrote, in a worker's replica. Decoded in
  /// full first: a truncated delta, one that does not continue this
  /// replica, or an out-of-range field throws before anything lands.
  void applyDelta(WireReader& r);

 private:
  struct Entry {
    MemoKey key;
    std::uint32_t outcome = 0;
    MemoSource source = MemoSource::Golden;
    std::string bytes;
  };
  struct KeyHash {
    std::size_t operator()(const MemoKey& key) const {
      return static_cast<std::size_t>(key.digest.lo ^
                                      (static_cast<std::uint64_t>(key.iteration) << 40));
    }
  };

  std::uint32_t internLocked(const MemoOutcome& outcome);
  void insertLocked(Entry entry);

  mutable std::mutex mutex_;
  std::vector<MemoOutcome> outcomes_;
  std::map<MemoOutcome, std::uint32_t> interned_;
  std::vector<Entry> entries_;
  std::unordered_map<MemoKey, std::size_t, KeyHash> index_;  ///< -> entries_
};

/// A restart's keys in an 'r' reply.
void encodeMemoKeys(WireWriter& w, const std::vector<MemoKey>& keys);
/// Decode the keys of a restart that resumed at `firstIteration` under the
/// iteration cap `cap`: at most one key per iteration in between, each
/// inside it. Anything else throws (the parent's protocol death).
[[nodiscard]] std::vector<MemoKey> decodeMemoKeys(WireReader& r, int firstIteration,
                                                  int cap);

/// The check stride of a campaign, from the golden run's counts: the
/// tracked accesses of an iteration, the blocks one can write, and the
/// nominal iteration count. Restarts key every stride-th iteration end, so
/// hashing stays a small share of the iterations it covers and a nominal
/// run makes at most 64 checks, which bounds the table. 0 turns the memo
/// off: the app writes too many blocks per access for any stride to pay.
[[nodiscard]] int memoStride(int nominalIterations, double accessesPerIteration,
                             double blocksPerIteration);

/// How often the golden run keys its iteration ends: a multiple of the
/// restarts' `stride` (so restarts check there too) spaced out until
/// hashing `footprintBlocks` from scratch at each key stays a small share
/// of the golden run, which the campaign waits on.
[[nodiscard]] int goldenKeyStride(int stride, double accessesPerIteration,
                                  double footprintBlocks);

}  // namespace easycrash::crash
