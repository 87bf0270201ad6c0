// Shard journal merging (`nvct merge`, docs/INTERNALS.md "Sharded
// campaigns").
//
// A campaign sharded `--shard i/k` across k nvct processes leaves k
// self-describing shard journals, each holding only the trials its shard
// owns (trial t belongs to shard t % k). This core folds them back into one
// canonical decided set: validation first (readJournal checks each journal,
// a shard header's recomputed campaign fingerprint included; then every
// journal must be drawn for the same campaign — identity fields agree,
// shard counts match, every record is owned by the shard that wrote it),
// then a last-wins fold keyed by trial index. The fold is
// commutative and idempotent — any journal order, and any mix of complete,
// partial and re-merged journals, produces the identical decided set — so
// the rendered artifacts (compact journal, per-test CSV, flight report) are
// byte-identical to what the unsharded single-machine run writes.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "easycrash/crash/resilience.hpp"

namespace easycrash::crash {

/// The merged view of one campaign's shard journals.
struct ShardMerge {
  /// The decided set, compacted last-wins by trial index across every
  /// journal, under the canonical unsharded header (shard coordinates and
  /// campaign hash cleared): exactly what the single-machine run's journal
  /// carries on line 1. The header keeps the shard journals' candidate list
  /// for renderMergedCsv (empty when merging unsharded journals, which never
  /// carried one); an unsharded header never serializes it.
  JournalReplay replay;
  /// Shard count the inputs declared (1 when merging unsharded journals).
  int shardCount = 1;
  /// Distinct shard indices seen.
  std::set<int> shardsSeen;

  /// True iff every planned trial is decided (no undecided tail remains).
  [[nodiscard]] bool complete() const {
    return replay.trials.size() + replay.failures.size() ==
           static_cast<std::size_t>(replay.header.tests);
  }
};

/// Read (readJournal), validate and fold `paths`; throws std::runtime_error
/// naming the offending journal and field on any mismatch. Partial shard
/// journals are legal inputs — merge never requires completeness — and
/// merging a single unsharded journal is the k=1 identity (`nvct report`
/// reads one journal this way too).
[[nodiscard]] ShardMerge mergeShardJournals(const std::vector<std::string>& paths);

/// The canonical compact journal bytes of the merged decided set: unsharded
/// header + entries in trial order — the exact construction (and therefore
/// the exact bytes) of an unsharded TrialJournal left compacted on close.
[[nodiscard]] std::string renderMergedJournal(const ShardMerge& merge);

/// The per-test CSV of the merged decided set, byte-identical to the
/// unsharded run's --csv-out. Requires the candidate list (rate column
/// names), which only shard journals embed; throws without one.
[[nodiscard]] std::string renderMergedCsv(const ShardMerge& merge);

/// A deterministic metrics projection of the merged decided set (JSON):
/// outcome tallies, failure kinds, per-candidate rate aggregates. A live
/// campaign's --metrics-out snapshots wall-clock histograms and k separate
/// golden/sweep simulations, which can never be byte-identical across
/// process layouts — this projection is a pure function of the decided set,
/// so sharded and unsharded campaigns that decided the same trials project
/// identically (docs/INTERNALS.md "Sharded campaigns").
[[nodiscard]] std::string renderMergedMetrics(const ShardMerge& merge);

}  // namespace easycrash::crash
