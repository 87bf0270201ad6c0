#include "convergence_memo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace easycrash::crash {

const char* toString(MemoSource source) {
  return source == MemoSource::Golden ? "golden" : "trial";
}

std::optional<MemoHit> MemoTable::find(const MemoKey& key, const std::string* bytes) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  const Entry& entry = entries_[it->second];
  if (bytes != nullptr && !entry.bytes.empty() && entry.bytes != *bytes) {
    throw std::logic_error("convergence memo: digest collision at iteration " +
                           std::to_string(key.iteration));
  }
  return MemoHit{outcomes_[entry.outcome], entry.source};
}

void MemoTable::insert(const std::vector<MemoKey>& keys, const MemoOutcome& outcome,
                       MemoSource source, const std::vector<std::string>& bytes) {
  if (keys.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t index = internLocked(outcome);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    insertLocked({keys[i], index, source, bytes.empty() ? std::string() : bytes[i]});
  }
}

std::size_t MemoTable::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint32_t MemoTable::internLocked(const MemoOutcome& outcome) {
  const auto [it, added] =
      interned_.try_emplace(outcome, static_cast<std::uint32_t>(outcomes_.size()));
  if (added) outcomes_.push_back(outcome);
  return it->second;
}

void MemoTable::insertLocked(Entry entry) {
  const auto it = index_.find(entry.key);
  if (it != index_.end()) {
    const Entry& held = entries_[it->second];
    if (!held.bytes.empty() && !entry.bytes.empty() && held.bytes != entry.bytes) {
      throw std::logic_error("convergence memo: digest collision at iteration " +
                             std::to_string(entry.key.iteration));
    }
    return;
  }
  index_.emplace(entry.key, entries_.size());
  entries_.push_back(std::move(entry));
}

// Delta layout: u64 first outcome index, u64 outcome count, per outcome
// {u8 response, i64 extra iterations, i64 last iteration, str note}; then
// u64 first entry index, u64 entry count, per entry {i64 iteration,
// u64 digest lo, u64 digest hi, u32 outcome index, u8 source}.
void MemoTable::encodeDelta(WireWriter& w, Cursor& cursor) const {
  std::lock_guard<std::mutex> lock(mutex_);
  w.u64(cursor.outcomes);
  w.u64(outcomes_.size() - cursor.outcomes);
  for (std::size_t i = cursor.outcomes; i < outcomes_.size(); ++i) {
    const MemoOutcome& o = outcomes_[i];
    w.u8(static_cast<std::uint8_t>(o.response));
    w.i64(o.extraIterations);
    w.i64(o.lastIteration);
    w.str(o.note);
  }
  w.u64(cursor.entries);
  w.u64(entries_.size() - cursor.entries);
  for (std::size_t i = cursor.entries; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    w.i64(e.key.iteration);
    w.u64(e.key.digest.lo);
    w.u64(e.key.digest.hi);
    w.u32(e.outcome);
    w.u8(static_cast<std::uint8_t>(e.source));
  }
  cursor = {outcomes_.size(), entries_.size()};
}

namespace {

int checkedIteration(std::int64_t iteration) {
  if (iteration < 0 || iteration > std::int64_t{1} << 30) {
    throw std::runtime_error("wire: memo iteration out of range");
  }
  return static_cast<int>(iteration);
}

}  // namespace

void MemoTable::applyDelta(WireReader& r) {
  const std::uint64_t firstOutcome = r.u64();
  std::vector<MemoOutcome> outcomes(static_cast<std::size_t>(r.count(1 + 8 + 8 + 8)));
  for (MemoOutcome& o : outcomes) {
    const std::uint8_t response = r.u8();
    if (response > static_cast<std::uint8_t>(Response::S4)) {
      throw std::runtime_error("wire: memo response out of range");
    }
    o.response = static_cast<Response>(response);
    o.extraIterations = checkedIteration(r.i64());
    o.lastIteration = checkedIteration(r.i64());
    o.note = r.str();
  }
  const std::uint64_t firstEntry = r.u64();
  std::vector<Entry> entries(static_cast<std::size_t>(r.count(8 + 16 + 4 + 1)));
  for (Entry& e : entries) {
    e.key.iteration = checkedIteration(r.i64());
    e.key.digest.lo = r.u64();
    e.key.digest.hi = r.u64();
    e.outcome = r.u32();
    const std::uint8_t source = r.u8();
    if (source > static_cast<std::uint8_t>(MemoSource::Trial)) {
      throw std::runtime_error("wire: memo source out of range");
    }
    e.source = static_cast<MemoSource>(source);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (firstOutcome != outcomes_.size() || firstEntry != entries_.size()) {
    throw std::runtime_error("wire: memo delta does not continue the replica");
  }
  for (const Entry& e : entries) {
    if (e.outcome >= outcomes_.size() + outcomes.size()) {
      throw std::runtime_error("wire: memo outcome index out of range");
    }
  }
  // The parent interned these; appending keeps the indices aligned.
  for (MemoOutcome& o : outcomes) {
    interned_.emplace(o, static_cast<std::uint32_t>(outcomes_.size()));
    outcomes_.push_back(std::move(o));
  }
  // Keys are unique in the parent's log, so every entry appends.
  for (Entry& e : entries) {
    index_.emplace(e.key, entries_.size());
    entries_.push_back(std::move(e));
  }
}

void encodeMemoKeys(WireWriter& w, const std::vector<MemoKey>& keys) {
  w.u64(keys.size());
  for (const MemoKey& key : keys) {
    w.i64(key.iteration);
    w.u64(key.digest.lo);
    w.u64(key.digest.hi);
  }
}

std::vector<MemoKey> decodeMemoKeys(WireReader& r, int firstIteration, int cap) {
  const std::uint64_t n = r.count(8 + 16);
  if (n > static_cast<std::uint64_t>(std::max(0, cap - firstIteration + 1))) {
    throw std::runtime_error("wire: more memo keys than iterations under the cap");
  }
  std::vector<MemoKey> keys(static_cast<std::size_t>(n));
  for (MemoKey& key : keys) {
    const std::int64_t iteration = r.i64();
    if (iteration < firstIteration || iteration > cap) {
      throw std::runtime_error("wire: memo key outside the restart's iterations");
    }
    key.iteration = static_cast<int>(iteration);
    key.digest.lo = r.u64();
    key.digest.hi = r.u64();
  }
  return keys;
}

int memoStride(int nominalIterations, double accessesPerIteration,
               double blocksPerIteration) {
  // Hashing a written block out of the digest and back in costs about
  // kBlockCost direct-mode accesses, so checking every iteration costs
  // `share` of it. A stride spreads that cost over its iterations until it
  // is within kBudget. Past kMaxShare the app rewrites so much of its state
  // per access that the per-store marking, which no stride spreads, costs
  // more than a check is likely to save: the memo stays off.
  constexpr double kBlockCost = 8.0;
  constexpr double kBudget = 0.06;
  constexpr double kMaxShare = 0.15;
  constexpr int kMaxChecks = 64;
  if (nominalIterations <= 0 || accessesPerIteration <= 0.0) return 0;
  const double share = kBlockCost * blocksPerIteration / accessesPerIteration;
  if (share > kMaxShare) return 0;
  const int stride = std::max({1, static_cast<int>(std::ceil(share / kBudget)),
                               (nominalIterations + kMaxChecks - 1) / kMaxChecks});
  return stride > nominalIterations ? 0 : stride;
}

int goldenKeyStride(int stride, double accessesPerIteration, double footprintBlocks) {
  // Hashing a block from scratch costs about kBlockCost accesses; the
  // golden run spends at most kBudget of its time on it.
  constexpr double kBlockCost = 4.0;
  constexpr double kBudget = 0.02;
  if (stride <= 0 || accessesPerIteration <= 0.0) return stride;
  const double share = kBlockCost * footprintBlocks / accessesPerIteration;
  return stride * std::max(1, static_cast<int>(std::ceil(share / (kBudget * stride))));
}

}  // namespace easycrash::crash
