#include "convergence_memo.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "wire.hpp"

namespace easycrash::crash {

const char* toString(MemoSource source) {
  return source == MemoSource::Golden ? "golden" : "trial";
}

MemoHit MemoTable::hit(const MemoKey& key, const Entry& entry,
                       const std::string* bytes) const {
  if (bytes != nullptr && !entry.bytes.empty() && entry.bytes != *bytes) {
    throw std::logic_error("convergence memo: digest collision at iteration " +
                           std::to_string(key.iteration));
  }
  return MemoHit{outcomes_[entry.outcome], entry.source};
}

std::optional<MemoHit> MemoTable::find(const MemoKey& key, const std::string* bytes) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second.owner != nullptr) return std::nullopt;
  return hit(key, it->second, bytes);
}

void MemoTable::insert(const std::vector<MemoKey>& keys, const MemoOutcome& outcome,
                       MemoSource source, const std::vector<std::string>& bytes) {
  if (keys.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [interned, added] =
      interned_.try_emplace(outcome, static_cast<std::uint32_t>(outcomes_.size()));
  if (added) outcomes_.push_back(outcome);
  static const std::string kNoBytes;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string& keyBytes = bytes.empty() ? kNoBytes : bytes[i];
    const auto [it, inserted] =
        entries_.try_emplace(keys[i], Entry{interned->second, source, keyBytes});
    Entry& entry = it->second;
    if (entry.owner != nullptr) {
      entry = Entry{interned->second, source, keyBytes};
      --pending_;
    } else if (!inserted && !entry.bytes.empty() && !keyBytes.empty() &&
               entry.bytes != keyBytes) {
      throw std::logic_error("convergence memo: digest collision at iteration " +
                             std::to_string(keys[i].iteration));
    }
  }
  settled_.notify_all();
}

std::size_t MemoTable::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size() - pending_;
}

std::optional<MemoHit> MemoTable::claim(const MemoKey& key, const std::string* bytes,
                                        const MemoProbe* owner,
                                        std::chrono::steady_clock::duration& waited) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      if (owner != nullptr) {
        entries_.emplace(key, Entry{0, MemoSource::Trial, {}, owner});
        ++pending_;
      }
      return std::nullopt;
    }
    if (it->second.owner == nullptr) return hit(key, it->second, bytes);
    if (owner == nullptr) return std::nullopt;
    const auto start = std::chrono::steady_clock::now();
    settled_.wait(lock);
    waited += std::chrono::steady_clock::now() - start;
  }
}

void MemoTable::release(const std::vector<MemoKey>& keys, const MemoProbe* owner) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const MemoKey& key : keys) {
    const auto it = entries_.find(key);
    if (it != entries_.end() && it->second.owner == owner) {
      entries_.erase(it);
      --pending_;
    }
  }
  settled_.notify_all();
}

MemoProbe::MemoProbe(MemoTable& table, int firstIteration, int cap)
    : table_(table), cap_(cap), trialMatches_(memoSeams().trialMatches),
      next_(firstIteration) {}

MemoProbe::~MemoProbe() {
  if (!decided_ && trialMatches_) table_.release(keys_, this);
}

std::optional<MemoHit> MemoProbe::lookup(const MemoKey& key, const std::string* bytes) {
  if (hit_) throw std::runtime_error("memo: a key after the restart's hit");
  if (key.iteration < next_ || key.iteration > cap_) {
    throw std::runtime_error("memo: key at iteration " + std::to_string(key.iteration) +
                             " outside the restart's iterations " +
                             std::to_string(next_) + ".." + std::to_string(cap_));
  }
  next_ = key.iteration + 1;
  std::optional<MemoHit> hit =
      table_.claim(key, bytes, trialMatches_ ? this : nullptr, waited_);
  if (hit && (hit->source == MemoSource::Golden || trialMatches_)) {
    hit_ = true;
    return hit;
  }
  keys_.push_back(key);
  if (bytes != nullptr) bytes_.push_back(*bytes);
  return std::nullopt;
}

void MemoProbe::decide(const MemoOutcome& outcome) {
  table_.insert(keys_, outcome, MemoSource::Trial, bytes_);
  decided_ = true;
}

// The 'k' exchange: the worker sends {'k', i64 iteration, u64 digest lo,
// u64 digest hi}; the parent answers {'m'} for a miss or {'h', u8 source,
// u8 response, i64 extra iterations, i64 last iteration, str note}.
std::optional<MemoHit> askParentMemo(const WorkerPool::ChildChannel& ch,
                                     const MemoKey& key) {
  WireWriter query;
  query.u8('k');
  query.i64(key.iteration);
  query.u64(key.digest.lo);
  query.u64(key.digest.hi);
  ch.send(query.take());
  std::string answer;
  if (!ch.recv(answer)) throw std::runtime_error("memo: no answer from the parent");
  WireReader r(answer);
  const std::uint8_t tag = r.u8();
  if (tag == 'm') return std::nullopt;
  if (tag != 'h') throw std::runtime_error("memo: unexpected answer tag");
  MemoHit hit;
  hit.source = static_cast<MemoSource>(r.u8());
  hit.outcome.response = static_cast<Response>(r.u8());
  hit.outcome.extraIterations = static_cast<int>(r.i64());
  hit.outcome.lastIteration = static_cast<int>(r.i64());
  hit.outcome.note = r.str();
  return hit;
}

std::string answerMemoQueries(
    MemoProbe& probe, std::chrono::milliseconds limit,
    const std::function<std::string(std::chrono::milliseconds)>& receive,
    const std::function<void(const std::string&)>& send) {
  using std::chrono::milliseconds;
  const auto start = std::chrono::steady_clock::now();
  const auto left = [&] {
    if (limit.count() == 0) return limit;
    const auto spent = std::chrono::steady_clock::now() - start - probe.waited();
    return std::max(milliseconds(1),
                    limit - std::chrono::duration_cast<milliseconds>(spent));
  };
  for (;;) {
    std::string frame = receive(left());
    WireReader r(frame);
    if (frame.empty() || r.u8() != 'k') return frame;
    const std::int64_t iteration = r.i64();
    if (iteration != static_cast<int>(iteration)) {
      throw std::runtime_error("memo: key iteration out of range");
    }
    const MemoKey key{static_cast<int>(iteration), {r.u64(), r.u64()}};
    const std::optional<MemoHit> hit = probe.lookup(key);
    WireWriter answer;
    if (!hit) {
      answer.u8('m');
    } else {
      answer.u8('h');
      answer.u8(static_cast<std::uint8_t>(hit->source));
      answer.u8(static_cast<std::uint8_t>(hit->outcome.response));
      answer.i64(hit->outcome.extraIterations);
      answer.i64(hit->outcome.lastIteration);
      answer.str(hit->outcome.note);
    }
    send(answer.take());
  }
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
