// The convergence memo (docs/INTERNALS.md "Convergence memo"): one
// (iteration, state key) -> outcome table per campaign. A restart whose
// state at a checked iteration end equals a state the campaign has already
// decided would replay that decision, so it stops there and copies the
// outcome. The golden run seeds the table; every decided restart extends it
// with the keys it passed, through its MemoProbe. A key a restart misses is
// claimed at once, pending, so a concurrent restart that reaches it waits
// for that outcome instead of computing it again. Fork workers hold no
// table: they ask the parent's. Internal to ec_crash; the tests include it
// to drive the table, the probe and the worker exchange directly.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/worker_pool.hpp"

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

class MemoProbe;

/// One campaign's table. Thread-safe: restart lanes look up and insert
/// concurrently. Outcomes are interned, so an entry is an outcome index,
/// its source and, under MemoSeams::compareBytes, its state bytes. An
/// entry is decided, or pending: claimed by the probe of a restart that is
/// computing it (MemoProbe::lookup). Only decided entries are found and
/// counted.
class MemoTable {
 public:
  /// The decided entry for `key`. With `bytes` (MemoSeams::compareBytes),
  /// an entry that kept its state bytes must hold exactly these, or the
  /// digest collided: that throws std::logic_error.
  [[nodiscard]] std::optional<MemoHit> find(const MemoKey& key,
                                            const std::string* bytes = nullptr) const;

  /// Record that every key of `keys` decides `outcome`, and wake the
  /// restarts waiting on any of them. A decided key keeps its entry: by
  /// purity its outcome is the same. `bytes` is parallel to `keys` or empty.
  void insert(const std::vector<MemoKey>& keys, const MemoOutcome& outcome,
              MemoSource source, const std::vector<std::string>& bytes = {});

  [[nodiscard]] std::size_t size() const;

 private:
  friend class MemoProbe;

  struct Entry {
    std::uint32_t outcome = 0;
    MemoSource source = MemoSource::Golden;
    std::string bytes;
    const MemoProbe* owner = nullptr;  ///< set while pending
  };
  struct KeyHash {
    std::size_t operator()(const MemoKey& key) const {
      return static_cast<std::size_t>(key.digest.lo ^
                                      (static_cast<std::uint64_t>(key.iteration) << 40));
    }
  };

  /// `owner`'s lookup: the decided entry for `key`; else, when `owner` is
  /// set, wait (adding the time to `waited`) while another probe's claim
  /// on it is pending, and claim it once it is free.
  [[nodiscard]] std::optional<MemoHit> claim(const MemoKey& key, const std::string* bytes,
                                             const MemoProbe* owner,
                                             std::chrono::steady_clock::duration& waited);
  /// Drop `owner`'s pending claims among `keys` and wake their waiters.
  void release(const std::vector<MemoKey>& keys, const MemoProbe* owner);
  [[nodiscard]] MemoHit hit(const MemoKey& key, const Entry& entry,
                            const std::string* bytes) const;

  mutable std::mutex mutex_;
  std::condition_variable settled_;  ///< a pending claim was decided or dropped
  std::vector<MemoOutcome> outcomes_;
  std::map<MemoOutcome, std::uint32_t> interned_;
  std::unordered_map<MemoKey, Entry, KeyHash> entries_;
  std::size_t pending_ = 0;
};

/// One restart's view of the table, the same in both isolation modes: the
/// restart asks it at each checked iteration end, in order, and it keeps
/// the keys that missed (the trail) until the restart is decided. Each miss
/// is claimed in the table, pending, until then. A probe discarded
/// undecided (the attempt failed) drops its claims and inserts nothing.
///
/// A lookup that lands on another probe's pending key waits until that
/// owner decides (a trial hit with its outcome) or is discarded (the key is
/// looked up again, and claimed if still free). That cannot deadlock: a
/// probe waits only at its current iteration, on an owner already past it,
/// so every chain of waits climbs in iteration and ends.
class MemoProbe {
 public:
  /// For a restart that resumes at `firstIteration` under the iteration
  /// cap `cap`. Reads MemoSeams::trialMatches once; with it off, the probe
  /// neither claims nor waits.
  MemoProbe(MemoTable& table, int firstIteration, int cap);
  ~MemoProbe();
  MemoProbe(const MemoProbe&) = delete;
  MemoProbe& operator=(const MemoProbe&) = delete;

  /// The outcome the table holds for `key`, if any (under
  /// MemoSeams::trialMatches off, only a golden entry counts). A miss
  /// joins the trail, with `bytes` (MemoSeams::compareBytes) when given.
  /// A key outside [firstIteration, cap], one that does not advance past
  /// the previous key, or any key after a hit throws std::runtime_error:
  /// from a fork worker, a protocol death.
  [[nodiscard]] std::optional<MemoHit> lookup(const MemoKey& key,
                                              const std::string* bytes = nullptr);

  /// Insert the trail: every key that missed decides `outcome`.
  void decide(const MemoOutcome& outcome);

  [[nodiscard]] const std::vector<MemoKey>& trail() const { return keys_; }
  /// How long lookups waited on other probes' pending keys.
  [[nodiscard]] std::chrono::steady_clock::duration waited() const { return waited_; }

 private:
  MemoTable& table_;
  const int cap_;
  const bool trialMatches_;
  int next_;  ///< the least iteration the next key may carry
  bool hit_ = false;
  bool decided_ = false;
  std::chrono::steady_clock::duration waited_{};
  std::vector<MemoKey> keys_;
  std::vector<std::string> bytes_;
};

/// The fork worker's side of a lookup (the 'k' exchange, documented in
/// campaign.cpp): send `key` to the parent over `ch` and wait for the
/// answer of its probe.
[[nodiscard]] std::optional<MemoHit> askParentMemo(const WorkerPool::ChildChannel& ch,
                                                   const MemoKey& key);

/// The parent's side: receive frames from a restarting worker, answering
/// each 'k' through `probe`, and return the first frame of any other tag.
/// The exchange has one deadline, `limit` from the call (0 = none), which
/// does not run while the probe (fresh for each attempt) waits on another
/// restart's pending key: the worker is idle then. `receive` waits for one
/// frame within what is left of it (0 = no deadline). A 'k' that does not
/// decode, or that the probe refuses, throws std::runtime_error (the
/// caller's protocol death) and nothing is inserted: the caller discards
/// the probe undecided.
[[nodiscard]] std::string answerMemoQueries(
    MemoProbe& probe, std::chrono::milliseconds limit,
    const std::function<std::string(std::chrono::milliseconds)>& receive,
    const std::function<void(const std::string&)>& send);

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
