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
// journals (fully sorted, no "format" header field) parse identically,
// with strictly ascending indices. readJournal is the format's one reader:
// --resume, `nvct merge`, `nvct report` and `trace_lint --journal` all
// accept and refuse exactly the same journals.
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

/// One candidate object's identity, embedded in a shard journal's header
/// (docs/INTERNALS.md "The shard-journal fold").
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
  /// Shard header segment (docs/INTERNALS.md "The shard-journal fold"),
  /// written now only by nvbench's merge replay: the shard's coordinates,
  /// the campaign fingerprint over the identity fields above (campaignHash;
  /// the shard coordinates are deliberately excluded, so every shard of one
  /// campaign — and its unsharded journal — hash alike), and the candidate
  /// objects. Serialized only when shardCount > 1, so a campaign's journal
  /// never carries it, and --resume refuses a journal that does.
  int shardIndex = 0;
  int shardCount = 1;
  std::uint64_t campaignHash = 0;  ///< stamped value; 0 = not stamped
  std::vector<JournalCandidate> candidates;
};

/// FNV-1a campaign fingerprint over the header's identity fields (app, seed,
/// tests, mode, plan fingerprint, window accesses) — NOT the shard
/// coordinates, so the k shard journals of one campaign and the unsharded
/// journal all agree. readJournal recomputes it and refuses a shard journal
/// whose stamped hash disagrees (a tampered or mis-labelled journal).
[[nodiscard]] std::uint64_t campaignHash(const JournalHeader& header);

/// The first identity field (app, seed, tests, mode, plan fingerprint,
/// window accesses) in which two headers differ, named for an error
/// message; empty when the headers describe the same campaign. Shard
/// coordinates are not compared.
[[nodiscard]] std::string identityMismatch(const JournalHeader& a,
                                           const JournalHeader& b);

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
/// trial or failure, the last one wins, so an index is in at most one map.
struct JournalReplay {
  JournalHeader header;
  std::map<std::size_t, CrashTestRecord> trials;
  std::map<std::size_t, TrialFailure> failures;
};

/// Parse `path`, enforcing every rule of the format (docs/ROBUSTNESS.md
/// "The journal and --resume"): header field types, tests >= 1, the mode,
/// decimal-string fingerprints, the shard fields together and a stamped
/// campaign_hash equal to campaignHash(header); known record types only,
/// 0 <= trial < tests, responses S1..S4, rates in [0, 1], attempts >= 1, a
/// non-empty reason and kind, and strictly ascending indices in a legacy
/// journal. Integers are read exactly from their source text into their
/// field's type. A final line with no newline that does not parse (a torn
/// append) is dropped. Throws std::runtime_error naming `journal
/// <path>:<line>` on anything else, or on a missing file.
[[nodiscard]] JournalReplay readJournal(const std::string& path);

// ---- Record transport --------------------------------------------------------

/// The journal's exact trial/header/failure line formats: TrialJournal
/// writes them, and the shard-journal fold emits a canonical merged journal
/// byte-identical to what an unsharded TrialJournal leaves behind on close.
/// Doubles are serialized with %.17g, so a record round-trips exactly.
[[nodiscard]] std::string serializeTrialRecord(std::size_t trial,
                                               const CrashTestRecord& record);
[[nodiscard]] std::string serializeJournalHeader(const JournalHeader& header);
[[nodiscard]] std::string serializeFailureRecord(const TrialFailure& failure);

// ---- Atomic file replacement -------------------------------------------------

/// Replace `path` with `content` atomically: write `<path>.tmp`, fsync,
/// rename. Retries once on a transient I/O failure (EC_LOG_WARN in between)
/// before throwing std::runtime_error, so output files are never silently
/// truncated by a failed in-place write.
void atomicWriteFile(const std::string& path, const std::string& content);

}  // namespace easycrash::crash
