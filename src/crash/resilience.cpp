#include "easycrash/crash/resilience.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

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

/// One write-temp-fsync-rename attempt; returns an error description or "".
std::string tryWriteOnce(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return "open " + tmp + ": " + std::strerror(errno);
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::string("write ") + tmp + ": " + std::strerror(errno);
      ::close(fd);
      ::unlink(tmp.c_str());
      return err;
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::string("fsync ") + tmp + ": " + std::strerror(errno);
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

}  // namespace

namespace {

/// One append-fsync attempt onto an existing file; returns an error
/// description or "". A failure can leave a torn final line — callers
/// recover by rewriting the whole file atomically, and readers tolerate the
/// torn tail in the meantime.
std::string tryAppendOnce(const std::string& path, const std::string& content) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) return "open " + path + ": " + std::strerror(errno);
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::string("write ") + path + ": " + std::strerror(errno);
      ::close(fd);
      return err;
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::string("fsync ") + path + ": " + std::strerror(errno);
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

std::string serializeHeader(const JournalHeader& h) {
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
  // Shard header segment, only when sharded: unsharded journals keep the
  // exact legacy bytes, so a merged journal (whose header is unsharded) is
  // byte-comparable against a single-machine run's journal.
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

std::string serializeTrial(std::size_t trial, const CrashTestRecord& r) {
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

std::string serializeFailure(const TrialFailure& f) {
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

// -- parsing helpers; all throw with the journal line context ----------------

const json::Value& member(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) {
    throw std::runtime_error(std::string("journal: missing field \"") + key + '"');
  }
  return *v;
}

double num(const json::Value& obj, const char* key) {
  const json::Value& v = member(obj, key);
  if (!v.isNumber()) {
    throw std::runtime_error(std::string("journal: field \"") + key +
                             "\" is not a number");
  }
  return v.number;
}

std::string str(const json::Value& obj, const char* key) {
  const json::Value& v = member(obj, key);
  if (!v.isString()) {
    throw std::runtime_error(std::string("journal: field \"") + key +
                             "\" is not a string");
  }
  return v.string;
}

CrashTestRecord parseTrial(const json::Value& obj, std::size_t* trial) {
  *trial = static_cast<std::size_t>(num(obj, "trial"));
  CrashTestRecord r;
  r.crashAccessIndex = static_cast<std::uint64_t>(num(obj, "crash_access"));
  r.region = static_cast<runtime::PointId>(num(obj, "region"));
  const json::Value& path = member(obj, "region_path");
  if (path.kind != json::Value::Kind::Array) {
    throw std::runtime_error("journal: \"region_path\" is not an array");
  }
  for (const auto& p : path.array) {
    if (!p.isNumber()) throw std::runtime_error("journal: bad region_path entry");
    r.regionPath.push_back(static_cast<runtime::PointId>(p.number));
  }
  r.crashIteration = static_cast<int>(num(obj, "crash_iteration"));
  r.restartIteration = static_cast<int>(num(obj, "restart_iteration"));
  const std::string response = str(obj, "response");
  const auto parsed = responseFromString(response);
  if (!parsed) throw std::runtime_error("journal: unknown response class '" + response + "'");
  r.response = *parsed;
  r.extraIterations = static_cast<int>(num(obj, "extra_iterations"));
  const json::Value& rates = member(obj, "rates");
  if (!rates.isObject()) throw std::runtime_error("journal: \"rates\" is not an object");
  for (const auto& [key, value] : rates.object) {
    if (!value.isNumber()) throw std::runtime_error("journal: bad rate for " + key);
    r.inconsistentRate[static_cast<runtime::ObjectId>(std::stoul(key))] = value.number;
  }
  r.note = str(obj, "note");
  return r;
}

TrialFailure parseFailure(const json::Value& obj) {
  TrialFailure f;
  f.trial = static_cast<std::size_t>(num(obj, "trial"));
  f.crashAccessIndex = static_cast<std::uint64_t>(num(obj, "crash_access"));
  const json::Value& timeout = member(obj, "timeout");
  if (timeout.kind != json::Value::Kind::Bool) {
    throw std::runtime_error("journal: \"timeout\" is not a bool");
  }
  f.timeout = timeout.boolean;
  // "kind" arrived with the fork evaluator; legacy journals only knew the
  // in-process failure modes, recoverable from the timeout flag.
  const json::Value* kind = obj.find("kind");
  if (kind != nullptr) {
    if (!kind->isString()) {
      throw std::runtime_error("journal: \"kind\" is not a string");
    }
    f.kind = kind->string;
  } else {
    f.kind = f.timeout ? "timeout" : "exception";
  }
  f.attempts = static_cast<int>(num(obj, "attempts"));
  f.reason = str(obj, "reason");
  f.regionPath = str(obj, "region_path");
  return f;
}

}  // namespace

std::string serializeTrialRecord(std::size_t trial, const CrashTestRecord& record) {
  return serializeTrial(trial, record);
}

std::string serializeJournalHeader(const JournalHeader& header) {
  return serializeHeader(header);
}

std::string serializeFailureRecord(const TrialFailure& failure) {
  return serializeFailure(failure);
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
  // list, so all k shards of one campaign (and its unsharded run) agree.
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

CrashTestRecord parseTrialRecord(const std::string& line, std::size_t* trial) {
  std::string error;
  const auto value = json::parse(line, &error);
  if (!value || !value->isObject()) {
    throw std::runtime_error("trial record: " +
                             (error.empty() ? "not an object" : error));
  }
  if (str(*value, "type") != "trial") {
    throw std::runtime_error("trial record: wrong type");
  }
  return parseTrial(*value, trial);
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
      header_(serializeHeader(header)),
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
  std::string line = serializeTrial(trial, record);
  if (written_) pending_.push_back(line);
  entries_[trial] = std::move(line);
  if (++sinceFlush_ >= static_cast<std::size_t>(flushEvery_)) flushLocked();
}

void TrialJournal::recordFailure(const TrialFailure& failure) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return;
  std::string line = serializeFailure(failure);
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

JournalReplay readJournal(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open journal " + path);
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string content = buffer.str();

  JournalReplay replay;
  bool sawHeader = false;
  std::size_t lineNo = 0;
  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    const bool torn = nl == std::string::npos;
    const std::string line = content.substr(pos, torn ? std::string::npos : nl - pos);
    pos = torn ? content.size() : nl + 1;
    ++lineNo;
    if (line.empty()) continue;
    std::string error;
    const auto value = json::parse(line, &error);
    if (!value || !value->isObject()) {
      // The writer only renames complete files, but tolerate a torn final
      // line anyway (e.g. a journal produced by some future appending
      // writer, or a copy truncated in flight).
      if (torn) break;
      throw std::runtime_error("journal " + path + ':' + std::to_string(lineNo) +
                               ": " + (error.empty() ? "not an object" : error));
    }
    const std::string type = str(*value, "type");
    if (lineNo == 1) {
      if (type != "campaign_header") {
        throw std::runtime_error("journal " + path + ": first line is not a header");
      }
      replay.header.app = str(*value, "app");
      replay.header.seed = static_cast<std::uint64_t>(num(*value, "seed"));
      replay.header.tests = static_cast<int>(num(*value, "tests"));
      replay.header.mode = str(*value, "mode");
      replay.header.planFingerprint =
          std::stoull(str(*value, "plan_fingerprint"));
      replay.header.windowAccesses =
          static_cast<std::uint64_t>(num(*value, "window_accesses"));
      // Only campaigns of the retired sampled monitoring mode stamped
      // "monitor". Their trials ran another access path, so neither
      // --resume nor merge may take them as this program's work.
      const json::Value* monitor = value->find("monitor");
      if (monitor != nullptr) {
        throw std::runtime_error(
            "journal " + path + ": header carries \"monitor\"" +
            (monitor->isString() ? ":\"" + monitor->string + '"' : "") +
            ", a journal of the retired sampled monitoring mode; re-run the "
            "campaign");
      }
      // Shard header segment — absent in unsharded journals.
      const json::Value* shards = value->find("shards");
      if (shards != nullptr) {
        if (!shards->isNumber() || shards->number < 2) {
          throw std::runtime_error("journal: \"shards\" must be >= 2");
        }
        replay.header.shardCount = static_cast<int>(shards->number);
        replay.header.shardIndex = static_cast<int>(num(*value, "shard"));
        if (replay.header.shardIndex < 0 ||
            replay.header.shardIndex >= replay.header.shardCount) {
          throw std::runtime_error("journal: \"shard\" outside [0, shards)");
        }
        try {
          replay.header.campaignHash = std::stoull(str(*value, "campaign_hash"));
        } catch (const std::exception&) {
          throw std::runtime_error(
              "journal: \"campaign_hash\" is not a 64-bit decimal");
        }
        const json::Value& objects = member(*value, "objects");
        if (objects.kind != json::Value::Kind::Array) {
          throw std::runtime_error("journal: \"objects\" is not an array");
        }
        for (const auto& object : objects.array) {
          if (!object.isObject()) {
            throw std::runtime_error("journal: bad \"objects\" entry");
          }
          JournalCandidate candidate;
          candidate.id = static_cast<runtime::ObjectId>(num(object, "id"));
          candidate.name = str(object, "name");
          replay.header.candidates.push_back(std::move(candidate));
        }
      }
      sawHeader = true;
      continue;
    }
    if (type == "trial") {
      std::size_t trial = 0;
      CrashTestRecord record = parseTrial(*value, &trial);
      // Compact on load: appended segments may carry several records for
      // one index (e.g. a re-decided trial after a resume); the last wins.
      replay.trials.insert_or_assign(trial, std::move(record));
    } else if (type == "trial_failure") {
      TrialFailure failure = parseFailure(*value);
      replay.failures.insert_or_assign(failure.trial, std::move(failure));
    }
    // Unknown types are skipped: the journal is allowed to grow new record
    // kinds without invalidating older readers.
  }
  if (!sawHeader) throw std::runtime_error("journal " + path + ": empty");
  return replay;
}

}  // namespace easycrash::crash
