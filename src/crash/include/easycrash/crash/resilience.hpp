// Fault tolerance for crash-test campaigns (docs/ROBUSTNESS.md).
//
// A tool whose subject is surviving failures should itself survive them:
// this layer keeps a campaign alive through throwing trials (isolation into
// TrialFailure records), dying or runaway trials (fork workers, which the
// parent SIGKILLs past their deadline), process death (a crash-safe
// JSONL journal of decided trials, replayed by --resume), and operator
// interruption (a SIGINT/SIGTERM stop flag workers drain against).
//
// The journal is written with the same discipline the paper demands of its
// subject applications, in an append-only segment format: the first flush
// writes a compacted base segment (header + every decided entry, test-index
// sorted) via temp-file + fsync + rename, and every later flush appends
// only the newly decided entries (fsynced) — O(batch) per flush instead of
// rewriting the O(decided) whole file. Appended entries land in decision
// order (the sweep evaluator decides trials in crash-index order), so
// readers compact on load: the last record per test index wins, and a torn
// final line from a mid-append crash is tolerated. Closing the journal (and
// resuming into it) rewrites it fully compacted, so finished journals are
// canonical — byte-identical for the same decided trials regardless of
// decision order — and segment files never grow without bound. Legacy
// journals (fully sorted, no "format" header field) parse identically;
// trace_lint --journal checks whichever discipline the header declares.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "easycrash/crash/campaign.hpp"

namespace easycrash::crash {

// ---- Graceful interruption ---------------------------------------------------

/// Install SIGINT/SIGTERM handlers that set the process-wide stop flag.
/// Workers finish the trial they are on, the journal and telemetry sinks
/// flush, and run() returns a partial CampaignResult with interrupted=true.
void installStopSignalHandlers();
/// Set the stop flag programmatically (tests, embedders).
void requestStop() noexcept;
[[nodiscard]] bool stopRequested() noexcept;
/// Signal number that set the flag, or 0 when it was set programmatically.
[[nodiscard]] int stopSignal() noexcept;
/// Reset the flag (tests; a campaign never clears it on its own).
void clearStopFlag() noexcept;

// ---- Journal ----------------------------------------------------------------

/// One candidate object's identity, embedded in a shard journal's header so
/// `nvct merge` can rebuild the per-test CSV (rate_<name> columns, candidate
/// order) without re-running the application.
struct JournalCandidate {
  runtime::ObjectId id = 0;
  std::string name;

  friend bool operator==(const JournalCandidate& a, const JournalCandidate& b) {
    return a.id == b.id && a.name == b.name;
  }
};

/// First line of every journal: identifies the campaign so --resume can
/// refuse a journal drawn for different work. windowAccesses pins the golden
/// run (and therefore the whole pre-drawn crash-point sequence).
struct JournalHeader {
  std::string app;
  std::uint64_t seed = 0;
  int tests = 0;
  std::string mode;  ///< "nvm" | "coherent"
  std::uint64_t planFingerprint = 0;
  std::uint64_t windowAccesses = 0;
  /// "sampled" when the campaign ran with the region-sampled monitor, empty
  /// for full monitoring. Serialized only when non-empty, so full-mode
  /// journals are byte-identical to journals from before the field existed.
  std::string monitor;
  /// Shard header segment (docs/INTERNALS.md "Sharded campaigns"): the
  /// shard's coordinates, the campaign fingerprint over the identity fields
  /// above (campaignHash; the shard coordinates are deliberately excluded,
  /// so every shard of one campaign — and its unsharded run — hash alike),
  /// and the candidate objects for CSV reconstruction. Serialized only when
  /// shardCount > 1: unsharded journals stay byte-identical to journals from
  /// before sharding existed, which is what makes a merged journal byte-
  /// comparable against an unsharded run's.
  int shardIndex = 0;
  int shardCount = 1;
  std::uint64_t campaignHash = 0;  ///< stamped value; 0 = not stamped
  std::vector<JournalCandidate> candidates;
};

/// FNV-1a campaign fingerprint over the header's identity fields (app, seed,
/// tests, mode, plan fingerprint, window accesses, monitor) — NOT the shard
/// coordinates, so the k shard journals of one campaign and the unsharded
/// journal all agree. `nvct merge` recomputes it and rejects a shard journal
/// whose stamped hash disagrees (a tampered or mis-labelled journal).
[[nodiscard]] std::uint64_t campaignHash(const JournalHeader& header);

/// FNV-1a over the plan's points/frequencies/objects — cheap identity check
/// for the journal header (full plan round-tripping is not needed: any
/// difference changes results, which the header exists to prevent).
[[nodiscard]] std::uint64_t planFingerprint(const runtime::PersistencePlan& plan);

/// Crash-safe writer. Thread-safe; records may arrive in any order (worker
/// interleaving, or the sweep deciding trials in crash-index order) and
/// every decided trial is persisted every `flushEvery` newly decided trials
/// and on close()/destruction. The first flush writes a compacted base
/// segment (test-index sorted, atomic rename); later flushes append only
/// the new entries in decision order; close() leaves the file fully
/// compacted again. Nothing is written until the first flush() — the
/// campaign seeds replayed records first, so resuming into the same path
/// never truncates the journal.
class TrialJournal {
 public:
  TrialJournal(std::string path, const JournalHeader& header, int flushEvery);
  ~TrialJournal();
  TrialJournal(const TrialJournal&) = delete;
  TrialJournal& operator=(const TrialJournal&) = delete;

  void recordTrial(std::size_t trial, const CrashTestRecord& record);
  void recordFailure(const TrialFailure& failure);
  /// Write header + every decided entry via temp-file + fsync + rename.
  void flush();
  void close();

 private:
  void flushLocked();
  /// Rewrite the whole journal compacted (header + entries in test-index
  /// order) via atomic rename. First flush, append-failure repair, and the
  /// close-time canonicalisation all land here.
  void compactLocked();

  std::string path_;
  std::mutex mutex_;
  std::string header_;                          ///< serialized first line
  std::map<std::size_t, std::string> entries_;  ///< serialized, by test index
  std::vector<std::string> pending_;  ///< decided since the last flush, in order
  std::size_t sinceFlush_ = 0;  ///< entries decided since the last write
  bool written_ = false;        ///< the base segment has landed
  bool appended_ = false;       ///< segments appended since the last compaction
  int flushEvery_ = 8;
  bool closed_ = false;
};

/// A parsed journal: the header plus every decided trial, compacted on load
/// — when the appended segments carry several records for one test index,
/// the last one wins. The reader tolerates (and ignores) a trailing partial
/// line from a torn append.
struct JournalReplay {
  JournalHeader header;
  std::map<std::size_t, CrashTestRecord> trials;
  std::map<std::size_t, TrialFailure> failures;
};

/// Parse `path`. Throws std::runtime_error on a missing file or a journal
/// whose prefix is malformed.
[[nodiscard]] JournalReplay readJournal(const std::string& path);

// ---- Record transport --------------------------------------------------------

/// The journal's exact trial/header/failure line formats, exposed so the
/// shard merge core can emit a canonical merged journal byte-identical to
/// what an unsharded TrialJournal leaves behind on close. Doubles are
/// serialized with %.17g, so a record round-trips exactly.
[[nodiscard]] std::string serializeTrialRecord(std::size_t trial,
                                               const CrashTestRecord& record);
[[nodiscard]] std::string serializeJournalHeader(const JournalHeader& header);
[[nodiscard]] std::string serializeFailureRecord(const TrialFailure& failure);
/// Inverse of serializeTrialRecord. Throws std::runtime_error on malformed
/// input (a journal line torn or tampered with).
[[nodiscard]] CrashTestRecord parseTrialRecord(const std::string& line,
                                               std::size_t* trial);

// ---- Retry backoff -----------------------------------------------------------

/// Backoff before retry `attempt` (1-based: the sleep after the first failed
/// attempt) of `trial`: ResilienceConfig::retryBackoffMs doubled per attempt
/// plus a deterministic bounded jitter (seeded by campaign seed, trial and
/// attempt — reruns sleep identically), capped at retryBackoffMaxMs. Zero
/// when backoff is disabled.
[[nodiscard]] std::uint64_t retryBackoffMs(const ResilienceConfig& res,
                                           std::uint64_t seed,
                                           std::size_t trial, int attempt);

// ---- Atomic file replacement -------------------------------------------------

/// Replace `path` with `content` atomically: write `<path>.tmp`, fsync,
/// rename. Retries once on a transient I/O failure (EC_LOG_WARN in between)
/// before throwing std::runtime_error, so output files are never silently
/// truncated by a failed in-place write.
void atomicWriteFile(const std::string& path, const std::string& content);

}  // namespace easycrash::crash
