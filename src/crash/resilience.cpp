#include "easycrash/crash/resilience.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "easycrash/common/check.hpp"
#include "easycrash/telemetry/json.hpp"
#include "easycrash/telemetry/log.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash::crash {

namespace json = telemetry::json;

// ---- Graceful interruption ---------------------------------------------------

namespace {

std::atomic<bool> g_stopRequested{false};
std::atomic<int> g_stopSignal{0};

extern "C" void stopSignalHandler(int sig) {
  // Only async-signal-safe work: set lock-free flags; workers notice at the
  // next trial boundary (or tracked access, via the campaign's stop check).
  g_stopSignal.store(sig, std::memory_order_relaxed);
  g_stopRequested.store(true, std::memory_order_relaxed);
}

}  // namespace

void installStopSignalHandlers() {
  std::signal(SIGINT, stopSignalHandler);
  std::signal(SIGTERM, stopSignalHandler);
}

void requestStop() noexcept { g_stopRequested.store(true, std::memory_order_relaxed); }

bool stopRequested() noexcept {
  return g_stopRequested.load(std::memory_order_relaxed);
}

int stopSignal() noexcept { return g_stopSignal.load(std::memory_order_relaxed); }

void clearStopFlag() noexcept {
  g_stopRequested.store(false, std::memory_order_relaxed);
  g_stopSignal.store(0, std::memory_order_relaxed);
}

// ---- Atomic file replacement -------------------------------------------------

namespace {

/// Write all of `content` to `fd` (retrying EINTR), then fsync it; returns
/// "write <name>: ..." or "fsync <name>: ..." on failure, else "".
std::string writeAll(int fd, const std::string& name, const std::string& content) {
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return "write " + name + ": " + std::strerror(errno);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) return "fsync " + name + ": " + std::strerror(errno);
  return {};
}

/// One write-temp-fsync-rename attempt; returns an error description or "".
std::string tryWriteOnce(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return "open " + tmp + ": " + std::strerror(errno);
  if (std::string err = writeAll(fd, tmp, content); !err.empty()) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return err;
  }
  if (::close(fd) != 0) return "close " + tmp + ": " + std::strerror(errno);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err =
        "rename " + tmp + " -> " + path + ": " + std::strerror(errno);
    ::unlink(tmp.c_str());
    return err;
  }
  return {};
}

/// One append-fsync attempt onto an existing file; returns an error
/// description or "". A failure can leave a torn final line — callers
/// recover by rewriting the whole file atomically, and readers tolerate the
/// torn tail in the meantime.
std::string tryAppendOnce(const std::string& path, const std::string& content) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) return "open " + path + ": " + std::strerror(errno);
  if (std::string err = writeAll(fd, path, content); !err.empty()) {
    ::close(fd);
    return err;
  }
  if (::close(fd) != 0) return "close " + path + ": " + std::strerror(errno);
  return {};
}

}  // namespace

void atomicWriteFile(const std::string& path, const std::string& content) {
  std::string err = tryWriteOnce(path, content);
  if (err.empty()) return;
  EC_LOG_WARN("atomic write of " << path << " failed (" << err << "), retrying once");
  err = tryWriteOnce(path, content);
  if (!err.empty()) {
    throw std::runtime_error("atomic write of " + path + " failed twice: " + err);
  }
}

// ---- Journal serialization ---------------------------------------------------

namespace {

void appendQuoted(std::string& out, std::string_view s) {
  out += '"';
  telemetry::appendJsonEscaped(out, s);
  out += '"';
}

}  // namespace

std::string serializeJournalHeader(const JournalHeader& h) {
  std::string line = "{\"type\":\"campaign_header\",\"app\":";
  appendQuoted(line, h.app);
  line += ",\"seed\":" + std::to_string(h.seed);
  line += ",\"tests\":" + std::to_string(h.tests);
  line += ",\"mode\":";
  appendQuoted(line, h.mode);
  // Quoted: the fingerprint is a full 64-bit hash and must not round-trip
  // through the JSON reader's double representation (2^53 mantissa).
  line += ",\"plan_fingerprint\":\"" + std::to_string(h.planFingerprint) + '"';
  line += ",\"window_accesses\":" + std::to_string(h.windowAccesses);
  // Shard header segment, only for shard journals (written now only by
  // nvbench's merge replay): unsharded journals keep the exact legacy
  // bytes, so a merged journal is byte-comparable against a campaign's.
  if (h.shardCount > 1) {
    line += ",\"shard\":" + std::to_string(h.shardIndex);
    line += ",\"shards\":" + std::to_string(h.shardCount);
    // Quoted for the same 2^53-mantissa reason as plan_fingerprint.
    line += ",\"campaign_hash\":\"" + std::to_string(h.campaignHash) + '"';
    line += ",\"objects\":[";
    bool first = true;
    for (const JournalCandidate& candidate : h.candidates) {
      if (!first) line += ',';
      first = false;
      line += "{\"id\":" + std::to_string(candidate.id) + ",\"name\":";
      appendQuoted(line, candidate.name);
      line += '}';
    }
    line += ']';
  }
  // Declares the append-only segment discipline: records after the base
  // segment may repeat or reorder test indices (last one wins on load).
  // Legacy journals lack the field and stay strictly index-sorted.
  line += ",\"format\":\"segments\"";
  line += "}\n";
  return line;
}

std::string serializeTrialRecord(std::size_t trial, const CrashTestRecord& r) {
  std::string line = "{\"type\":\"trial\",\"trial\":" + std::to_string(trial);
  line += ",\"crash_access\":" + std::to_string(r.crashAccessIndex);
  line += ",\"region\":" + std::to_string(r.region);
  line += ",\"region_path\":[";
  for (std::size_t i = 0; i < r.regionPath.size(); ++i) {
    if (i) line += ',';
    line += std::to_string(r.regionPath[i]);
  }
  line += "],\"crash_iteration\":" + std::to_string(r.crashIteration);
  line += ",\"restart_iteration\":" + std::to_string(r.restartIteration);
  line += ",\"response\":";
  appendQuoted(line, toString(r.response));
  line += ",\"extra_iterations\":" + std::to_string(r.extraIterations);
  line += ",\"rates\":{";
  bool first = true;
  for (const auto& [id, rate] : r.inconsistentRate) {
    if (!first) line += ',';
    first = false;
    line += '"' + std::to_string(id) + "\":";
    telemetry::appendExactDouble(line, rate);
  }
  line += "},\"note\":";
  appendQuoted(line, r.note);
  line += "}\n";
  return line;
}

std::string serializeFailureRecord(const TrialFailure& f) {
  std::string line =
      "{\"type\":\"trial_failure\",\"trial\":" + std::to_string(f.trial);
  line += ",\"crash_access\":" + std::to_string(f.crashAccessIndex);
  line += ",\"timeout\":";
  line += f.timeout ? "true" : "false";
  line += ",\"kind\":";
  appendQuoted(line, f.kind);
  line += ",\"attempts\":" + std::to_string(f.attempts);
  line += ",\"reason\":";
  appendQuoted(line, f.reason);
  line += ",\"region_path\":";
  appendQuoted(line, f.regionPath);
  line += "}\n";
  return line;
}

std::uint64_t campaignHash(const JournalHeader& header) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mixByte = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  const auto mix = [&mixByte](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      mixByte(static_cast<std::uint8_t>((v >> (byte * 8)) & 0xff));
    }
  };
  const auto mixString = [&](const std::string& s) {
    mix(s.size());
    for (const char c : s) mixByte(static_cast<std::uint8_t>(c));
  };
  // Identity fields only — never the shard coordinates or the candidate
  // list, so all k shard journals of one campaign (and its unsharded
  // journal) agree.
  mixString(header.app);
  mix(header.seed);
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(header.tests)));
  mixString(header.mode);
  mix(header.planFingerprint);
  mix(header.windowAccesses);
  // The retired monitor-mode field was mixed here as a string, and every
  // campaign that still runs had it empty: mixString("") is mix(0). Keeping
  // those 8 zero bytes keeps every stamped campaign_hash unchanged.
  mix(0);
  return h;
}

std::string identityMismatch(const JournalHeader& a, const JournalHeader& b) {
  if (a.app != b.app) return "app (" + a.app + " vs " + b.app + ")";
  if (a.seed != b.seed) return "seed";
  if (a.tests != b.tests) return "test count";
  if (a.mode != b.mode) return "snapshot mode";
  if (a.planFingerprint != b.planFingerprint) return "persistence plan";
  if (a.windowAccesses != b.windowAccesses) return "golden crash window";
  return {};
}

std::uint64_t planFingerprint(const runtime::PersistencePlan& plan) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(plan.flushKind));
  for (const auto& [point, directive] : plan.points) {
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(point)));
    mix(directive.everyN);
    mix(directive.atRegionEnd ? 1 : 0);
    for (const auto id : directive.objects) mix(id);
  }
  return h;
}

// ---- TrialJournal -----------------------------------------------------------

TrialJournal::TrialJournal(std::string path, const JournalHeader& header,
                           int flushEvery)
    : path_(std::move(path)),
      header_(serializeJournalHeader(header)),
      flushEvery_(std::max(1, flushEvery)) {
  // Nothing is written yet: when resuming into the same path, the campaign
  // first re-feeds the replayed records, then flushes — the on-disk journal
  // is never cut back to a bare header in between.
}

TrialJournal::~TrialJournal() {
  try {
    close();
  } catch (const std::exception& e) {
    EC_LOG_ERROR("journal final flush failed: " << e.what());
  }
}

void TrialJournal::recordTrial(std::size_t trial, const CrashTestRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return;
  std::string line = serializeTrialRecord(trial, record);
  if (written_) pending_.push_back(line);
  entries_[trial] = std::move(line);
  if (++sinceFlush_ >= static_cast<std::size_t>(flushEvery_)) flushLocked();
}

void TrialJournal::recordFailure(const TrialFailure& failure) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return;
  std::string line = serializeFailureRecord(failure);
  if (written_) pending_.push_back(line);
  entries_[failure.trial] = std::move(line);
  if (++sinceFlush_ >= static_cast<std::size_t>(flushEvery_)) flushLocked();
}

void TrialJournal::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  flushLocked();
}

void TrialJournal::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return;
  flushLocked();
  // A closed journal is always left fully compacted: the appended segments
  // are a mid-flight durability format, and this one O(decided) rewrite
  // makes the final file canonical — campaigns that decide the same trials
  // leave byte-identical journals regardless of decision order (the
  // sweep/threads differential fixtures compare them raw).
  if (appended_) {
    compactLocked();
    appended_ = false;
  }
  closed_ = true;
}

void TrialJournal::compactLocked() {
  // Header + every decided entry, sorted by test index, swapped in
  // atomically. Doubles as the repair path when an append fails part-way
  // (the rename replaces any torn tail).
  std::string content = header_;
  for (const auto& [trial, line] : entries_) content += line;
  atomicWriteFile(path_, content);
}

void TrialJournal::flushLocked() {
  if (sinceFlush_ == 0 && written_) return;  // nothing new since the last write
  if (!written_) {
    compactLocked();
  } else {
    // Append-only segment: just the entries decided since the last flush,
    // O(batch) instead of rewriting the O(decided) whole file. They land in
    // decision order — readers compact on load (last record per index wins).
    std::string batch;
    for (const auto& line : pending_) batch += line;
    if (!batch.empty()) {
      const std::string err = tryAppendOnce(path_, batch);
      if (!err.empty()) {
        EC_LOG_WARN("journal append to " << path_ << " failed (" << err
                                         << "), rewriting the compacted journal");
        compactLocked();
      } else {
        appended_ = true;
      }
    }
  }
  pending_.clear();
  sinceFlush_ = 0;
  written_ = true;
}

// ---- readJournal ------------------------------------------------------------

namespace {

// The journal's one reader: --resume, `nvct merge`, `nvct report` and
// `trace_lint --journal` all read through here, so every rule below holds
// for all of them. The helpers throw a bare description; readJournal names
// the line.

[[noreturn]] void refuse(const std::string& what) { throw std::runtime_error(what); }

std::string field(const char* key) { return std::string("field \"") + key + '"'; }

const json::Value& member(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) refuse("missing " + field(key));
  return *v;
}

const std::string& str(const json::Value& obj, const char* key) {
  const json::Value& v = member(obj, key);
  if (!v.isString()) refuse(field(key) + " is not a string");
  return v.string;
}

const std::string& nonEmpty(const json::Value& obj, const char* key) {
  const std::string& s = str(obj, key);
  if (s.empty()) refuse(field(key) + " is empty");
  return s;
}

/// `text` read exactly into T: a fraction, an exponent, a sign T cannot
/// hold or a value past T's range is refused, never rounded or wrapped.
template <class T>
T exactInteger(std::string_view text, const std::string& what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    refuse(what + " (" + std::string(text) + ") is not " +
           (std::is_signed_v<T> ? "an integer" : "a non-negative integer") +
           " in range");
  }
  return value;
}

/// A JSON number read exactly from its source text (json::Value keeps it).
template <class T>
T integerValue(const json::Value& v, const std::string& what) {
  if (!v.isNumber()) refuse(what + " is not a number");
  return exactInteger<T>(v.string, what);
}

template <class T>
T integer(const json::Value& obj, const char* key) {
  return integerValue<T>(member(obj, key), field(key));
}

/// A 64-bit hash the writer quotes, so it never passes through a double.
std::uint64_t decimalString(const json::Value& obj, const char* key) {
  const std::string& s = str(obj, key);
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    refuse(field(key) + " must be a decimal string");
  }
  return exactInteger<std::uint64_t>(s, field(key));
}

bool boolean(const json::Value& obj, const char* key) {
  const json::Value& v = member(obj, key);
  if (v.kind != json::Value::Kind::Bool) refuse(field(key) + " is not a bool");
  return v.boolean;
}

/// Line 1. Sets `segments` when the header declares the append-only format.
JournalHeader parseHeader(const json::Value& obj, bool* segments) {
  if (str(obj, "type") != "campaign_header") {
    refuse("first line must be a campaign_header");
  }
  // Only campaigns of the retired sampled monitoring mode stamped
  // "monitor". Their trials ran another access path, so neither --resume
  // nor merge may take them as this program's work.
  if (const json::Value* monitor = obj.find("monitor")) {
    refuse("header carries \"monitor\"" +
           (monitor->isString() ? ":\"" + monitor->string + '"' : "") +
           ", a journal of the retired sampled monitoring mode; re-run the "
           "campaign");
  }
  JournalHeader h;
  h.app = nonEmpty(obj, "app");
  h.seed = integer<std::uint64_t>(obj, "seed");
  h.tests = integer<int>(obj, "tests");
  if (h.tests < 1) refuse("field \"tests\" must be at least 1");
  h.mode = str(obj, "mode");
  if (h.mode != "nvm" && h.mode != "coherent") {
    refuse("field \"mode\" must be nvm or coherent");
  }
  h.planFingerprint = decimalString(obj, "plan_fingerprint");
  h.windowAccesses = integer<std::uint64_t>(obj, "window_accesses");
  if (const json::Value* format = obj.find("format")) {
    if (!format->isString() || format->string != "segments") {
      refuse("field \"format\" must be \"segments\" when present");
    }
    *segments = true;
  }

  // Shard header segment (docs/INTERNALS.md "The shard-journal fold"): the
  // coordinates, the campaign fingerprint and the candidate list travel
  // together, and an unsharded header carries none of them.
  const json::Value* shards = obj.find("shards");
  if (shards == nullptr) {
    for (const char* key : {"shard", "campaign_hash", "objects"}) {
      if (obj.find(key) != nullptr) refuse(field(key) + " requires \"shards\"");
    }
    return h;
  }
  h.shardCount = integerValue<int>(*shards, field("shards"));
  if (h.shardCount < 2) refuse("field \"shards\" must be at least 2");
  h.shardIndex = integer<int>(obj, "shard");
  if (h.shardIndex < 0 || h.shardIndex >= h.shardCount) {
    refuse("field \"shard\" must be in [0, shards)");
  }
  h.campaignHash = decimalString(obj, "campaign_hash");
  // A stamped fingerprint that disagrees with the header's own identity
  // fields marks a tampered or mis-assembled journal.
  if (h.campaignHash != campaignHash(h)) {
    refuse("campaign fingerprint (campaign_hash) does not match the header's "
           "own identity fields");
  }
  const json::Value& objects = member(obj, "objects");
  if (objects.kind != json::Value::Kind::Array) {
    refuse("field \"objects\" is not an array");
  }
  for (const json::Value& object : objects.array) {
    if (!object.isObject()) refuse("an \"objects\" entry is not an object");
    h.candidates.push_back(JournalCandidate{
        integer<runtime::ObjectId>(object, "id"), nonEmpty(object, "name")});
  }
  return h;
}

CrashTestRecord parseTrial(const json::Value& obj) {
  CrashTestRecord r;
  r.crashAccessIndex = integer<std::uint64_t>(obj, "crash_access");
  r.region = integer<runtime::PointId>(obj, "region");
  const json::Value& path = member(obj, "region_path");
  if (path.kind != json::Value::Kind::Array) {
    refuse("field \"region_path\" is not an array");
  }
  for (const json::Value& p : path.array) {
    r.regionPath.push_back(integerValue<runtime::PointId>(p, "a \"region_path\" entry"));
  }
  r.crashIteration = integer<int>(obj, "crash_iteration");
  r.restartIteration = integer<int>(obj, "restart_iteration");
  const std::string& response = str(obj, "response");
  const auto parsed = responseFromString(response);
  if (!parsed) refuse("field \"response\" must be S1..S4, not '" + response + "'");
  r.response = *parsed;
  r.extraIterations = integer<int>(obj, "extra_iterations");
  const json::Value& rates = member(obj, "rates");
  if (!rates.isObject()) refuse("field \"rates\" is not an object");
  for (const auto& [key, value] : rates.object) {
    const auto id = exactInteger<runtime::ObjectId>(key, "rate object id");
    if (!value.isNumber() || !(value.number >= 0.0 && value.number <= 1.0)) {
      refuse("rate for object " + key + " is not a number in [0, 1]");
    }
    r.inconsistentRate[id] = value.number;
  }
  r.note = str(obj, "note");
  return r;
}

TrialFailure parseFailure(const json::Value& obj) {
  TrialFailure f;
  f.crashAccessIndex = integer<std::uint64_t>(obj, "crash_access");
  f.timeout = boolean(obj, "timeout");
  // "kind" arrived with the fork evaluator; legacy journals only knew the
  // in-process failure modes, recoverable from the timeout flag.
  f.kind = obj.find("kind") != nullptr ? nonEmpty(obj, "kind")
                                       : f.timeout ? "timeout" : "exception";
  f.attempts = integer<int>(obj, "attempts");
  if (f.attempts < 1) refuse("field \"attempts\" must be at least 1");
  f.reason = nonEmpty(obj, "reason");
  f.regionPath = str(obj, "region_path");
  return f;
}

}  // namespace

JournalReplay readJournal(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open journal " + path);
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string content = buffer.str();

  JournalReplay replay;
  bool sawHeader = false;
  bool segments = false;   // legacy journals keep indices strictly ascending
  bool anyRecord = false;
  std::size_t lastTrial = 0;
  std::size_t lineNo = 0;
  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    const bool torn = nl == std::string::npos;
    const std::string line = content.substr(pos, torn ? std::string::npos : nl - pos);
    pos = torn ? content.size() : nl + 1;
    ++lineNo;
    if (line.empty() && sawHeader) continue;
    try {
      std::string error;
      const auto value = json::parse(line, &error);
      if (!value || !value->isObject()) {
        // A final line with no newline that does not parse is an append a
        // crash cut short: dropped here, repaired by the next compaction,
        // and reported by trace_lint.
        if (torn && sawHeader) break;
        refuse(error.empty() ? "not a JSON object" : error);
      }
      if (!sawHeader) {
        replay.header = parseHeader(*value, &segments);
        sawHeader = true;
        continue;
      }
      const std::string& type = str(*value, "type");
      if (type != "trial" && type != "trial_failure") {
        refuse("unknown record type \"" + type + '"');
      }
      const auto trial = integer<std::size_t>(*value, "trial");
      if (trial >= static_cast<std::size_t>(replay.header.tests)) {
        refuse("trial " + std::to_string(trial) + " is not below the header's " +
               std::to_string(replay.header.tests) + " tests");
      }
      if (!segments && anyRecord && trial <= lastTrial) {
        refuse(trial == lastTrial ? "duplicate trial index"
                                  : "trial indices are not ascending");
      }
      anyRecord = true;
      lastTrial = trial;
      // Compact on load: appended segments may carry several records for
      // one index (e.g. a re-decided trial after a resume). The last one
      // wins, whichever kind it is.
      if (type == "trial") {
        replay.trials.insert_or_assign(trial, parseTrial(*value));
        replay.failures.erase(trial);
      } else {
        TrialFailure failure = parseFailure(*value);
        failure.trial = trial;
        replay.failures.insert_or_assign(trial, std::move(failure));
        replay.trials.erase(trial);
      }
    } catch (const std::runtime_error& e) {
      throw std::runtime_error("journal " + path + ':' + std::to_string(lineNo) +
                               ": " + e.what());
    }
  }
  if (!sawHeader) {
    throw std::runtime_error("journal " + path + ":1: no campaign header");
  }
  return replay;
}

}  // namespace easycrash::crash
