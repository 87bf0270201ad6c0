#include "easycrash/crash/shard.hpp"

#include <array>
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
  throw std::runtime_error("nvct merge: " + path + ": " + what);
}

void checkIdentityMatches(const JournalHeader& h, const JournalHeader& ref,
                          const std::string& path, const std::string& refPath) {
  const auto mismatch = [&](const std::string& field) {
    reject(path, field + " does not match " + refPath +
                     " — journals were drawn for different campaigns");
  };
  if (h.app != ref.app) mismatch("app (" + h.app + " vs " + ref.app + ")");
  if (h.seed != ref.seed) mismatch("seed");
  if (h.tests != ref.tests) mismatch("test count");
  if (h.mode != ref.mode) mismatch("snapshot mode");
  if (h.planFingerprint != ref.planFingerprint) mismatch("persistence plan");
  if (h.windowAccesses != ref.windowAccesses) mismatch("golden crash window");
}

}  // namespace

ShardMerge mergeShardJournals(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    throw std::runtime_error("nvct merge: no journals given");
  }

  ShardMerge merge;
  std::string refPath;
  std::map<int, bool> seen;
  for (const std::string& path : paths) {
    JournalReplay replay = readJournal(path);
    const JournalHeader& h = replay.header;

    // Config-hash check first: a shard journal whose stamped fingerprint
    // disagrees with its own identity fields was tampered with or
    // mis-assembled, and the per-field comparison below would mis-blame the
    // other journal.
    if (h.shardCount > 1 && h.campaignHash != campaignHash(h)) {
      reject(path, "campaign fingerprint (config hash) does not match the "
                   "journal's own identity fields");
    }

    if (refPath.empty()) {
      refPath = path;
      merge.header = h;
      // The merged header is the unsharded one: exactly what the
      // single-machine run's journal carries.
      merge.header.shardIndex = 0;
      merge.header.shardCount = 1;
      merge.header.campaignHash = 0;
      merge.header.candidates.clear();
      merge.shardCount = h.shardCount;
      merge.candidates = h.candidates;
    } else {
      checkIdentityMatches(h, merge.header, path, refPath);
      if (h.shardCount != merge.shardCount) {
        reject(path, "shard count " + std::to_string(h.shardCount) +
                         " does not match " + refPath + " (" +
                         std::to_string(merge.shardCount) +
                         ") — unsharded and sharded journals cannot be mixed");
      }
      if (h.shardCount > 1 && !(h.candidates == merge.candidates)) {
        reject(path, "candidate object list does not match " + refPath);
      }
    }
    if (!seen[h.shardIndex]) {
      seen[h.shardIndex] = true;
      merge.shardsSeen.push_back(h.shardIndex);
    }

    // Ownership: a shard journal may only decide the trials the partition
    // function assigns it (trial t belongs to shard t % k). This both
    // enforces disjointness — making the last-wins fold order-independent —
    // and catches a journal copied under the wrong shard's name.
    const auto checkOwned = [&](std::size_t trial) {
      if (trial >= static_cast<std::size_t>(merge.header.tests)) {
        reject(path, "trial " + std::to_string(trial) +
                         " beyond the header's planned tests");
      }
      if (h.shardCount > 1 &&
          trial % static_cast<std::size_t>(h.shardCount) !=
              static_cast<std::size_t>(h.shardIndex)) {
        reject(path, "trial " + std::to_string(trial) + " is not owned by shard " +
                         std::to_string(h.shardIndex) + "/" +
                         std::to_string(h.shardCount) +
                         " — journal does not belong to this shard");
      }
    };
    for (auto& [trial, record] : replay.trials) {
      checkOwned(trial);
      merge.trials.insert_or_assign(trial, std::move(record));
    }
    for (auto& [trial, failure] : replay.failures) {
      checkOwned(trial);
      merge.failures.insert_or_assign(trial, std::move(failure));
    }
  }
  return merge;
}

std::string renderMergedJournal(const ShardMerge& merge) {
  // Header + every decided entry in trial order: the identical construction
  // to TrialJournal::compactLocked, so the merged journal is byte-for-byte
  // what an unsharded run leaves behind on close.
  std::string content = serializeJournalHeader(merge.header);
  auto trial = merge.trials.cbegin();
  auto failure = merge.failures.cbegin();
  while (trial != merge.trials.cend() || failure != merge.failures.cend()) {
    if (failure == merge.failures.cend() ||
        (trial != merge.trials.cend() && trial->first < failure->first)) {
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
  if (merge.candidates.empty()) {
    throw std::runtime_error(
        "nvct merge: cannot rebuild the CSV — the journals carry no candidate "
        "object list (only shard journals embed one)");
  }
  // Rebuild just enough of a CampaignResult for writeCampaignCsv: the
  // candidate columns and the decided trials in index order. Reusing the
  // writer (not reimplementing it) is what guarantees byte-identity with
  // the unsharded run's --csv-out.
  CampaignResult result;
  for (const JournalCandidate& candidate : merge.candidates) {
    runtime::DataObjectInfo object;
    object.id = candidate.id;
    object.name = candidate.name;
    object.candidate = true;
    result.golden.objects.push_back(std::move(object));
  }
  for (const auto& [trial, record] : merge.trials) result.tests.push_back(record);
  std::ostringstream os;
  writeCampaignCsv(result, os);
  return os.str();
}

std::string renderMergedMetrics(const ShardMerge& merge) {
  // A pure function of the identity header and the decided set — never of
  // the shard layout, wall clock, or the k separate simulations that
  // produced it — so any shard split (including k=1) that decided the same
  // trials projects byte-identical JSON.
  std::string out = "{\n  \"type\": \"campaign_merge_metrics\",\n  \"app\": \"";
  telemetry::appendJsonEscaped(out, merge.header.app);
  out += "\",\n  \"seed\": " + std::to_string(merge.header.seed);
  out += ",\n  \"tests\": " + std::to_string(merge.header.tests);
  out += ",\n  \"mode\": \"";
  telemetry::appendJsonEscaped(out, merge.header.mode);
  out += "\",\n  \"plan_fingerprint\": \"" +
         std::to_string(merge.header.planFingerprint) + '"';
  out += ",\n  \"window_accesses\": " + std::to_string(merge.header.windowAccesses);
  out += ",\n  \"decided\": " +
         std::to_string(merge.trials.size() + merge.failures.size());
  out += ",\n  \"complete\": ";
  out += merge.complete() ? "true" : "false";

  std::array<std::uint64_t, 4> responses{};
  std::uint64_t extraIterations = 0;
  for (const auto& [trial, record] : merge.trials) {
    responses[static_cast<std::size_t>(record.response)] += 1;
    if (record.response == Response::S2) {
      extraIterations += static_cast<std::uint64_t>(record.extraIterations);
    }
  }
  out += ",\n  \"responses\": {";
  for (int s = 0; s < 4; ++s) {
    if (s) out += ", ";
    out += "\"s";
    out += static_cast<char>('1' + s);
    out += "\": " + std::to_string(responses[static_cast<std::size_t>(s)]);
  }
  out += "},\n  \"extra_iterations\": " + std::to_string(extraIterations);

  std::map<std::string, std::uint64_t> failureKinds;
  for (const auto& [trial, failure] : merge.failures) ++failureKinds[failure.kind];
  out += ",\n  \"failures\": " + std::to_string(merge.failures.size());
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
  struct RateStats {
    double sum = 0.0;
    double max = 0.0;
    std::uint64_t samples = 0;
  };
  std::map<runtime::ObjectId, RateStats> rates;
  for (const auto& [trial, record] : merge.trials) {
    for (const auto& [id, rate] : record.inconsistentRate) {
      RateStats& stats = rates[id];
      stats.sum += rate;
      if (rate > stats.max) stats.max = rate;
      stats.samples += 1;
    }
  }
  out += ",\n  \"rates\": [";
  first = true;
  for (const auto& [id, stats] : rates) {
    if (!first) out += ", ";
    first = false;
    out += "{\"id\": " + std::to_string(id);
    out += ", \"samples\": " + std::to_string(stats.samples);
    out += ", \"mean\": ";
    telemetry::appendExactDouble(out, stats.sum / static_cast<double>(stats.samples));
    out += ", \"max\": ";
    telemetry::appendExactDouble(out, stats.max);
    out += '}';
  }
  out += "]\n}\n";
  return out;
}

JournalReplay toReplay(const ShardMerge& merge) {
  JournalReplay replay;
  replay.header = merge.header;
  replay.trials = merge.trials;
  replay.failures = merge.failures;
  return replay;
}

}  // namespace easycrash::crash
