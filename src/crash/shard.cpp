#include "easycrash/crash/shard.hpp"

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "easycrash/crash/report.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash::crash {

namespace {

/// Loud rejection: every validation failure names the offending journal and
/// what disagreed, so a mis-addressed shard on a 10-machine fan-out is a
/// one-line diagnosis, not a silently corrupted merge.
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
      // The merged header is the unsharded one: exactly what the
      // single-machine run's journal carries.
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
    merge.shardsSeen.insert(h.shardIndex);

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

std::string renderMergedCsv(const ShardMerge& merge) {
  if (merge.replay.header.candidates.empty()) {
    throw std::runtime_error(
        "cannot rebuild the CSV — the journals carry no candidate "
        "object list (only shard journals embed one)");
  }
  // Rebuild just enough of a CampaignResult for writeCampaignCsv: the
  // candidate columns and the decided trials in index order. Reusing the
  // writer (not reimplementing it) is what guarantees byte-identity with
  // the unsharded run's --csv-out.
  CampaignResult result;
  for (const JournalCandidate& candidate : merge.replay.header.candidates) {
    runtime::DataObjectInfo object;
    object.id = candidate.id;
    object.name = candidate.name;
    object.candidate = true;
    result.golden.objects.push_back(std::move(object));
  }
  for (const auto& [trial, record] : merge.replay.trials) {
    result.tests.push_back(record);
  }
  std::ostringstream os;
  writeCampaignCsv(result, os);
  return os.str();
}

std::string renderMergedMetrics(const ShardMerge& merge) {
  // A pure function of the identity header and the decided set — never of
  // the shard layout, wall clock, or the k separate simulations that
  // produced it — so any shard split (including k=1) that decided the same
  // trials projects byte-identical JSON.
  const JournalReplay& replay = merge.replay;
  const JournalHeader& header = replay.header;
  std::string out = "{\n  \"type\": \"campaign_merge_metrics\",\n  \"app\": \"";
  telemetry::appendJsonEscaped(out, header.app);
  out += "\",\n  \"seed\": " + std::to_string(header.seed);
  out += ",\n  \"tests\": " + std::to_string(header.tests);
  out += ",\n  \"mode\": \"";
  telemetry::appendJsonEscaped(out, header.mode);
  out += "\",\n  \"plan_fingerprint\": \"" +
         std::to_string(header.planFingerprint) + '"';
  out += ",\n  \"window_accesses\": " + std::to_string(header.windowAccesses);
  out += ",\n  \"decided\": " +
         std::to_string(replay.trials.size() + replay.failures.size());
  out += ",\n  \"complete\": ";
  out += merge.complete() ? "true" : "false";

  TrialTally tally;
  for (const auto& [trial, record] : replay.trials) tally.add(record);
  out += ",\n  \"responses\": {";
  for (int s = 0; s < 4; ++s) {
    if (s) out += ", ";
    out += "\"s";
    out += static_cast<char>('1' + s);
    out += "\": " + std::to_string(tally.all.responses[static_cast<std::size_t>(s)]);
  }
  // The projection's field is unsigned.
  out += "},\n  \"extra_iterations\": " +
         std::to_string(static_cast<std::uint64_t>(tally.all.s2ExtraIterations));

  std::map<std::string, std::uint64_t> failureKinds;
  for (const auto& [trial, failure] : replay.failures) ++failureKinds[failure.kind];
  out += ",\n  \"failures\": " + std::to_string(replay.failures.size());
  out += ",\n  \"failure_kinds\": {";
  bool first = true;
  for (const auto& [kind, count] : failureKinds) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    telemetry::appendJsonEscaped(out, kind);
    out += "\": " + std::to_string(count);
  }
  out += '}';

  // Per-candidate rate aggregates, keyed by object id (names are a shard-
  // header extra an unsharded journal never carried; leaving them out keeps
  // the projection identical whichever journal kind it was derived from).
  out += ",\n  \"rates\": [";
  first = true;
  for (const auto& [id, stats] : tally.rates) {
    if (!first) out += ", ";
    first = false;
    out += "{\"id\": " + std::to_string(id);
    out += ", \"samples\": " + std::to_string(stats.samples);
    out += ", \"mean\": ";
    telemetry::appendExactDouble(out, stats.mean());
    out += ", \"max\": ";
    telemetry::appendExactDouble(out, stats.max);
    out += '}';
  }
  out += "]\n}\n";
  return out;
}

}  // namespace easycrash::crash
