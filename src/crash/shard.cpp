#include "easycrash/crash/shard.hpp"

#include <stdexcept>
#include <utility>

namespace easycrash::crash {

namespace {

/// Loud rejection: every validation failure names the offending journal and
/// what disagreed, never a silently corrupted merge.
[[noreturn]] void reject(const std::string& path, const std::string& what) {
  throw std::runtime_error(path + ": " + what);
}

}  // namespace

ShardMerge mergeShardJournals(const std::vector<std::string>& paths) {
  if (paths.empty()) throw std::runtime_error("no journals given");

  ShardMerge merge;
  JournalHeader& ref = merge.replay.header;
  std::string refPath;
  for (const std::string& path : paths) {
    // readJournal has already checked every line, the trial ranges and a
    // shard header's own campaign fingerprint.
    JournalReplay replay = readJournal(path);
    const JournalHeader& h = replay.header;

    if (refPath.empty()) {
      refPath = path;
      // The merged header is the unsharded one: exactly what an unsharded
      // journal carries.
      ref = h;
      ref.shardIndex = 0;
      ref.shardCount = 1;
      ref.campaignHash = 0;
      merge.shardCount = h.shardCount;
    } else {
      const std::string mismatch = identityMismatch(h, ref);
      if (!mismatch.empty()) {
        reject(path, mismatch + " does not match " + refPath +
                         " — journals were drawn for different campaigns");
      }
      if (h.shardCount != merge.shardCount) {
        reject(path, "shard count " + std::to_string(h.shardCount) +
                         " does not match " + refPath + " (" +
                         std::to_string(merge.shardCount) +
                         ") — unsharded and sharded journals cannot be mixed");
      }
      if (h.shardCount > 1 && !(h.candidates == ref.candidates)) {
        reject(path, "candidate object list does not match " + refPath);
      }
    }

    // Ownership: a shard journal may only decide the trials the partition
    // function assigns it (trial t belongs to shard t % k). This both
    // enforces disjointness — making the last-wins fold order-independent —
    // and catches a journal copied under the wrong shard's name.
    const auto checkOwned = [&](std::size_t trial) {
      if (h.shardCount > 1 &&
          trial % static_cast<std::size_t>(h.shardCount) !=
              static_cast<std::size_t>(h.shardIndex)) {
        reject(path, "trial " + std::to_string(trial) + " is not owned by shard " +
                         std::to_string(h.shardIndex) + "/" +
                         std::to_string(h.shardCount) +
                         " — journal does not belong to this shard");
      }
    };
    // The last record for an index wins, whichever kind it is, as within
    // one journal.
    for (auto& [trial, record] : replay.trials) {
      checkOwned(trial);
      merge.replay.failures.erase(trial);
      merge.replay.trials.insert_or_assign(trial, std::move(record));
    }
    for (auto& [trial, failure] : replay.failures) {
      checkOwned(trial);
      merge.replay.trials.erase(trial);
      merge.replay.failures.insert_or_assign(trial, std::move(failure));
    }
  }
  return merge;
}

std::string renderMergedJournal(const ShardMerge& merge) {
  // Header + every decided entry in trial order: the identical construction
  // to TrialJournal::compactLocked, so the merged journal is byte-for-byte
  // what an unsharded run leaves behind on close.
  const JournalReplay& replay = merge.replay;
  std::string content = serializeJournalHeader(replay.header);
  auto trial = replay.trials.cbegin();
  auto failure = replay.failures.cbegin();
  while (trial != replay.trials.cend() || failure != replay.failures.cend()) {
    if (failure == replay.failures.cend() ||
        (trial != replay.trials.cend() && trial->first < failure->first)) {
      content += serializeTrialRecord(trial->first, trial->second);
      ++trial;
    } else {
      content += serializeFailureRecord(failure->second);
      ++failure;
    }
  }
  return content;
}

}  // namespace easycrash::crash
