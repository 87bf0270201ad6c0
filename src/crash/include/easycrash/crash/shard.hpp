// The shard-journal fold. Campaigns no longer shard, and `nvct report`
// reads one journal through readJournal. This fold stays only because
// nvbench's probe times and byte-checks a 2-way merge of a replayed
// campaign (its `crash.merge_ms` layer); ROADMAP item 6's benchmark change,
// which removes that replay, deletes this file with it.
//
// The fold reads k shard journals of one campaign, each holding the trials
// t with t % k == its shard index, and folds them back into one decided set:
// validation first (readJournal checks each journal, a shard header's
// recomputed campaign fingerprint included; then every journal must be drawn
// for the same campaign — identity fields agree, shard counts match, every
// record is owned by the shard that wrote it), then a last-wins fold keyed
// by trial index. The fold is commutative and idempotent — any journal
// order, and any mix of complete, partial and re-merged journals, produces
// the identical decided set — so the rendered journal is byte-identical to
// what one unsharded TrialJournal leaves behind on close.
#pragma once

#include <string>
#include <vector>

#include "easycrash/crash/resilience.hpp"

namespace easycrash::crash {

/// The merged view of one campaign's shard journals.
struct ShardMerge {
  /// The decided set, compacted last-wins by trial index across every
  /// journal, under the canonical unsharded header (shard coordinates and
  /// campaign hash cleared): exactly what an unsharded journal carries on
  /// line 1. The header keeps the shard journals' candidate list; an
  /// unsharded header never serializes it.
  JournalReplay replay;
  /// Shard count the inputs declared (1 when merging unsharded journals).
  int shardCount = 1;
};

/// Read (readJournal), validate and fold `paths`; throws std::runtime_error
/// naming the offending journal and field on any mismatch. Partial shard
/// journals are legal inputs — merge never requires completeness — and
/// merging a single unsharded journal is the k=1 identity.
[[nodiscard]] ShardMerge mergeShardJournals(const std::vector<std::string>& paths);

/// The canonical compact journal bytes of the merged decided set: unsharded
/// header + entries in trial order — the exact construction (and therefore
/// the exact bytes) of an unsharded TrialJournal left compacted on close.
[[nodiscard]] std::string renderMergedJournal(const ShardMerge& merge);

}  // namespace easycrash::crash
