// Tests for the campaign journal's one reader, crash::readJournal
// (docs/ROBUSTNESS.md "The journal and --resume"): --resume, `nvct merge`,
// `nvct report` and `trace_lint --journal` all read through it, so one table
// of malformed journals holds every rule of the format, and a seeded
// mutation sweep over real journals holds the reader's promise — a journal
// is either refused with `journal <path>:<line>`, or it reads back exactly
// after compaction.
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/apps/registry.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/resilience.hpp"

namespace cr = easycrash::crash;

namespace {

std::string tempPath(const std::string& name) { return testing::TempDir() + name; }

void writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

std::string readFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// `text` with its one occurrence of `from` replaced (the row is wrong, not
/// the reader, when `from` is missing).
std::string with(std::string text, const std::string& from, const std::string& to) {
  const auto pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "fixture text lacks " << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

/// The replay's compacted journal bytes: header, then every decided entry
/// in index order (the construction TrialJournal and renderMergedJournal
/// share). Equal bytes mean equal replays: every field is serialized, and
/// doubles exactly.
std::string compacted(const cr::JournalReplay& replay) {
  std::string out = cr::serializeJournalHeader(replay.header);
  std::map<std::size_t, std::string> lines;
  for (const auto& [t, record] : replay.trials) {
    lines[t] = cr::serializeTrialRecord(t, record);
  }
  for (const auto& [t, failure] : replay.failures) {
    lines[t] = cr::serializeFailureRecord(failure);
  }
  for (const auto& [t, line] : lines) out += line;
  return out;
}

/// True iff `what` names `journal <path>:<line>:`.
bool namesLine(const std::string& what, const std::string& path) {
  const std::string prefix = "journal " + path + ':';
  if (what.rfind(prefix, 0) != 0) return false;
  std::size_t i = prefix.size();
  const std::size_t digits = i;
  while (i < what.size() && what[i] >= '0' && what[i] <= '9') ++i;
  return i > digits && i < what.size() && what[i] == ':';
}

/// trace_lint --journal's exit status on `path`.
int traceLintExit(const std::string& path) {
  const std::string command =
      std::string(EC_TRACE_LINT) + " --journal '" + path + "' > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ---- Fixture lines -------------------------------------------------------------

cr::JournalHeader legacyHeader() {
  cr::JournalHeader h;
  h.app = "sp";
  h.seed = 1;
  h.tests = 6;
  h.mode = "nvm";
  h.planFingerprint = 2955283251572180930ull;
  h.windowAccesses = 2459208;
  return h;
}

cr::JournalHeader shardHeader() {
  cr::JournalHeader h = legacyHeader();
  h.shardIndex = 1;
  h.shardCount = 2;
  h.campaignHash = cr::campaignHash(h);
  h.candidates = {{1, "u"}, {2, "rhs"}};
  return h;
}

/// The writer's header line without the "format" field: a legacy journal.
std::string legacyHeaderLine() {
  return with(cr::serializeJournalHeader(legacyHeader()), ",\"format\":\"segments\"", "");
}

std::string segmentsHeaderLine() { return cr::serializeJournalHeader(legacyHeader()); }

std::string trialLine(std::size_t trial) {
  cr::CrashTestRecord r;
  r.crashAccessIndex = 1000 + trial;
  r.region = 1;
  r.regionPath = {1};
  r.crashIteration = 3;
  r.restartIteration = 3;
  r.response = cr::Response::S1;
  r.inconsistentRate = {{1, 0.25}, {2, 0.0}};
  r.note = "ok";
  return cr::serializeTrialRecord(trial, r);
}

std::string failureLine(std::size_t trial) {
  cr::TrialFailure f;
  f.trial = trial;
  f.crashAccessIndex = 2000 + trial;
  f.kind = "crashed";
  f.attempts = 1;
  f.reason = "worker killed by signal 11";
  return cr::serializeFailureRecord(f);
}

struct Row {
  std::string rule;
  std::string text;
  int line;  ///< the line the reader must name
};

/// One row per rule the reader enforces. Records sit on line 2 unless the
/// row says otherwise; header rows break line 1.
std::vector<Row> malformedJournals() {
  const std::string H = legacyHeaderLine();
  const std::string S = segmentsHeaderLine();
  const std::string SH = cr::serializeJournalHeader(shardHeader());
  const std::string T = trialLine(1);
  const std::string F = failureLine(1);
  const auto header = [&](const std::string& line) { return line + T; };
  const auto record = [&](const std::string& line) { return H + line; };
  return {
      // Every line parses as a JSON object with a "type".
      {"line is not JSON", record("{\"type\":\"trial\",\n"), 2},
      {"line is not an object", record("[1,2]\n"), 2},
      {"missing type", record(with(T, "\"type\":\"trial\",", "")), 2},
      // The header.
      {"first line is not a header", T + T, 1},
      {"header missing app", header(with(H, "\"app\":\"sp\",", "")), 1},
      {"header app empty", header(with(H, "\"app\":\"sp\"", "\"app\":\"\"")), 1},
      {"header missing seed", header(with(H, "\"seed\":1,", "")), 1},
      {"header missing tests", header(with(H, "\"tests\":6,", "")), 1},
      {"header tests below 1", header(with(H, "\"tests\":6", "\"tests\":0")), 1},
      {"header mode unknown",
       header(with(H, "\"mode\":\"nvm\"", "\"mode\":\"dram\"")), 1},
      {"plan fingerprint not a string",
       header(with(H, "\"plan_fingerprint\":\"2955283251572180930\"",
                   "\"plan_fingerprint\":2955283251572180930")),
       1},
      {"plan fingerprint not decimal",
       header(with(H, "\"2955283251572180930\"", "\"0x29\"")), 1},
      {"header missing window_accesses",
       header(with(H, ",\"window_accesses\":2459208", "")), 1},
      {"format not segments", header(with(S, "\"segments\"", "\"rows\"")), 1},
      {"shards below 2", header(with(SH, "\"shards\":2", "\"shards\":1")), 1},
      {"shard outside [0, shards)", header(with(SH, "\"shard\":1", "\"shard\":2")), 1},
      {"campaign_hash not decimal",
       header(with(SH, "\"campaign_hash\":\"", "\"campaign_hash\":\"x")), 1},
      {"shard header missing objects",
       header(with(SH,
                   ",\"objects\":[{\"id\":1,\"name\":\"u\"},"
                   "{\"id\":2,\"name\":\"rhs\"}]",
                   "")),
       1},
      {"objects entry missing id", header(with(SH, "{\"id\":1,", "{")), 1},
      {"objects entry name empty",
       header(with(SH, "\"name\":\"u\"", "\"name\":\"\"")), 1},
      {"shard without shards", header(with(H, "\"window_accesses\":2459208",
                                          "\"window_accesses\":2459208,\"shard\":0")),
       1},
      {"campaign_hash without shards",
       header(with(H, "\"window_accesses\":2459208",
                   "\"window_accesses\":2459208,\"campaign_hash\":\"1\"")),
       1},
      // Records.
      {"unknown record type",
       record(with(T, "\"type\":\"trial\"", "\"type\":\"mystery\"")), 2},
      {"missing trial index", record(with(T, "\"trial\":1,", "")), 2},
      {"negative trial index", record(with(T, "\"trial\":1", "\"trial\":-1")), 2},
      {"trial index not below tests", record(trialLine(40)), 2},
      {"legacy duplicate index", H + T + T, 3},
      {"legacy indices not ascending", H + trialLine(2) + T, 3},
      {"missing crash_access", record(with(T, "\"crash_access\":1001,", "")), 2},
      {"response not S1..S4", record(with(T, "\"S1\"", "\"S5\"")), 2},
      {"missing crash_iteration", record(with(T, "\"crash_iteration\":3,", "")), 2},
      {"rates not an object", record(with(T, "\"rates\":{", "\"rates\":[{")), 2},
      {"rate above 1", record(with(T, "\"1\":0.25", "\"1\":1.5")), 2},
      {"rate below 0", record(with(T, "\"1\":0.25", "\"1\":-0.25")), 2},
      {"failure attempts below 1",
       record(with(F, "\"attempts\":1", "\"attempts\":0")), 2},
      {"failure reason empty",
       record(with(F, "\"reason\":\"worker killed by signal 11\"",
                   "\"reason\":\"\"")),
       2},
      {"failure missing timeout", record(with(F, "\"timeout\":false,", "")), 2},
      {"failure kind empty", record(with(F, "\"kind\":\"crashed\"", "\"kind\":\"\"")), 2},
      {"empty journal", "", 1},
      // Integers are read exactly from their text, into their field's type.
      {"fraction in an integer field", header(with(H, "\"seed\":1", "\"seed\":1.5")), 1},
      {"exponent in an integer field",
       header(with(H, "\"window_accesses\":2459208", "\"window_accesses\":2e6")), 1},
      {"negative in an unsigned field", header(with(H, "\"seed\":1", "\"seed\":-1")), 1},
      {"unsigned overflow",
       header(with(H, "\"seed\":1", "\"seed\":18446744073709551616")), 1},
      {"int overflow", header(with(H, "\"tests\":6", "\"tests\":2147483648")), 1},
      {"fraction in a trial index", record(with(T, "\"trial\":1", "\"trial\":1.0")), 2},
      {"rate key not an object id", record(with(T, "\"1\":0.25", "\"x\":0.25")), 2},
      // A shard header's stamped fingerprint equals its own campaignHash.
      {"campaign_hash of another campaign",
       header(with(SH, "\"seed\":1", "\"seed\":2")), 1},
      // Cross-kind: a trial and a failure for one index are a duplicate in a
      // legacy journal (a segments journal keeps the last of them).
      {"legacy trial and failure for one index", H + T + F, 3},
  };
}

TEST(JournalReader, AcceptsTheFixtureLines) {
  // The rows below break exactly one rule each; unbroken, these parse.
  for (const std::string& text :
       {legacyHeaderLine() + trialLine(0) + failureLine(1) + trialLine(2),
        segmentsHeaderLine() + trialLine(2) + failureLine(0),
        cr::serializeJournalHeader(shardHeader()) + trialLine(1)}) {
    const std::string path = tempPath("journal_reader_ok.jsonl");
    writeFile(path, text);
    EXPECT_NO_THROW((void)cr::readJournal(path)) << text;
    EXPECT_EQ(traceLintExit(path), 0) << text;
    std::remove(path.c_str());
  }
}

TEST(JournalReader, RejectsMalformedJournals) {
  const std::string path = tempPath("journal_reader_row.jsonl");
  for (const Row& row : malformedJournals()) {
    writeFile(path, row.text);
    try {
      (void)cr::readJournal(path);
      ADD_FAILURE() << row.rule << ": accepted";
    } catch (const std::runtime_error& e) {
      const std::string expected =
          "journal " + path + ':' + std::to_string(row.line) + ':';
      EXPECT_EQ(std::string(e.what()).rfind(expected, 0), 0u)
          << row.rule << ": " << e.what();
    }
    EXPECT_EQ(traceLintExit(path), 1) << row.rule;
  }
  std::remove(path.c_str());
}

TEST(JournalReader, ReadsIntegersExactly) {
  // 2^53 + 1 and 2^64 - 1 do not survive a double; the reader takes them
  // from their text.
  cr::JournalHeader h = legacyHeader();
  h.seed = 9007199254740993ull;
  h.windowAccesses = 18446744073709551615ull;
  const std::string path = tempPath("journal_reader_exact.jsonl");
  writeFile(path, cr::serializeJournalHeader(h) +
                      with(trialLine(1), "\"crash_access\":1001",
                           "\"crash_access\":9007199254740993"));
  const auto replay = cr::readJournal(path);
  EXPECT_EQ(replay.header.seed, 9007199254740993ull);
  EXPECT_EQ(replay.header.windowAccesses, 18446744073709551615ull);
  EXPECT_EQ(replay.trials.at(1).crashAccessIndex, 9007199254740993ull);
  std::remove(path.c_str());
}

TEST(JournalReader, LastRecordWinsAcrossKinds) {
  // In a segments journal a re-decided index keeps its last record,
  // whichever kind: a trial and a failure for one index count once.
  const std::string path = tempPath("journal_reader_kinds.jsonl");
  writeFile(path, segmentsHeaderLine() + trialLine(1) + failureLine(1) + trialLine(2) +
                      failureLine(3) + trialLine(3));
  const auto replay = cr::readJournal(path);
  EXPECT_EQ(replay.trials.size(), 2u);
  EXPECT_EQ(replay.failures.size(), 1u);
  EXPECT_TRUE(replay.failures.count(1));
  EXPECT_TRUE(replay.trials.count(3));
  EXPECT_EQ(traceLintExit(path), 0);
  std::remove(path.c_str());
}

TEST(JournalReader, TornFinalLineIsDroppedAndLinted) {
  // The reader drops a torn final line (resume repairs the file by
  // compaction); trace_lint reports it.
  const std::string path = tempPath("journal_reader_torn.jsonl");
  const std::string whole = segmentsHeaderLine() + trialLine(0) + trialLine(1);
  writeFile(path, whole.substr(0, whole.size() - 20));
  const auto replay = cr::readJournal(path);
  EXPECT_EQ(replay.trials.size(), 1u);
  EXPECT_EQ(traceLintExit(path), 1);
  // A complete final record without its newline is read, and still linted.
  writeFile(path, whole.substr(0, whole.size() - 1));
  EXPECT_EQ(cr::readJournal(path).trials.size(), 2u);
  EXPECT_EQ(traceLintExit(path), 1);
  std::remove(path.c_str());
}

// ---- Seeded mutation sweep -------------------------------------------------------

/// Real journals of a small sp campaign: unsharded, and both shards of a
/// 2-way split.
std::vector<std::string> seedJournals() {
  std::vector<std::string> journals;
  for (int shard = -1; shard < 2; ++shard) {
    const std::string path = tempPath("journal_mutation_seed.jsonl");
    std::remove(path.c_str());
    cr::CampaignConfig config;
    config.numTests = 8;
    config.appLabel = "sp";
    config.resilience.isolation = cr::IsolationMode::InProcess;
    config.resilience.journalPath = path;
    if (shard >= 0) {
      config.shard.index = shard;
      config.shard.count = 2;
    }
    (void)cr::CampaignRunner(easycrash::apps::findBenchmark("sp").factory, config).run();
    journals.push_back(readFile(path));
    std::remove(path.c_str());
  }
  return journals;
}

/// Splits into lines, each keeping its '\n'.
std::vector<std::string> linesOf(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    lines.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return lines;
}

/// [begin, end) of every number lexeme that follows ':', '[' or ','.
std::vector<std::pair<std::size_t, std::size_t>> numberSpans(const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 1; i < text.size(); ++i) {
    const char prev = text[i - 1];
    if ((prev != ':' && prev != '[' && prev != ',') ||
        !(text[i] == '-' || (text[i] >= '0' && text[i] <= '9'))) {
      continue;
    }
    std::size_t end = i + 1;
    while (end < text.size() &&
           std::string_view("0123456789.eE+-").find(text[end]) !=
               std::string_view::npos) {
      ++end;
    }
    spans.emplace_back(i, end);
    i = end;
  }
  return spans;
}

class MutationSweep {
 public:
  explicit MutationSweep(std::string path) : path_(std::move(path)) {}

  /// The reader's promise on one mutated journal: refused naming
  /// `journal <path>:<line>`, or read back identically after compaction.
  /// Returns the replay when the journal was accepted.
  std::optional<cr::JournalReplay> check(const std::string& bytes,
                                         const std::string& what) {
    ++checked_;
    writeFile(path_, bytes);
    cr::JournalReplay replay;
    try {
      replay = cr::readJournal(path_);
    } catch (const std::runtime_error& e) {
      ++refused_;
      EXPECT_TRUE(namesLine(e.what(), path_)) << what << ": " << e.what();
      return std::nullopt;
    }
    const std::string once = compacted(replay);
    writeFile(path_, once);
    try {
      EXPECT_EQ(compacted(cr::readJournal(path_)), once) << what;
    } catch (const std::runtime_error& e) {
      ADD_FAILURE() << what << ": the compacted replay does not read back: " << e.what();
    }
    return replay;
  }

  [[nodiscard]] int checked() const { return checked_; }
  [[nodiscard]] int refused() const { return refused_; }

 private:
  std::string path_;
  int checked_ = 0;
  int refused_ = 0;
};

TEST(JournalReader, MutatedJournalsAreRefusedOrReadBackExactly) {
  const auto seeds = seedJournals();
  MutationSweep sweep(tempPath("journal_mutant.jsonl"));
  std::mt19937_64 rng(20261019);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % static_cast<std::uint64_t>(n));
  };

  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const std::string& seed = seeds[s];
    const std::string tag = "seed " + std::to_string(s);
    const auto original = sweep.check(seed, tag);
    ASSERT_TRUE(original) << tag << " is refused unmutated";
    const std::string originalBytes = compacted(*original);

    // Truncation at every byte offset: refused, or a subset of the
    // original decided set (a torn tail is dropped, never misread).
    for (std::size_t cut = 0; cut < seed.size(); ++cut) {
      const auto prefix =
          sweep.check(seed.substr(0, cut), tag + " cut " + std::to_string(cut));
      if (!prefix) continue;
      EXPECT_EQ(cr::serializeJournalHeader(prefix->header),
                cr::serializeJournalHeader(original->header));
      for (const auto& [t, record] : prefix->trials) {
        ASSERT_TRUE(original->trials.count(t)) << tag << " cut " << cut;
        EXPECT_EQ(cr::serializeTrialRecord(t, record),
                  cr::serializeTrialRecord(t, original->trials.at(t)));
      }
      for (const auto& [t, failure] : prefix->failures) {
        ASSERT_TRUE(original->failures.count(t)) << tag << " cut " << cut;
        EXPECT_EQ(cr::serializeFailureRecord(failure),
                  cr::serializeFailureRecord(original->failures.at(t)));
      }
    }

    // Bit flips.
    for (int i = 0; i < 600; ++i) {
      std::string bytes = seed;
      const std::size_t at = pick(bytes.size());
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << pick(8)));
      (void)sweep.check(bytes, tag + " flip at " + std::to_string(at));
    }

    // Duplicated and spliced lines, within the journal and across seeds.
    const auto lines = linesOf(seed);
    for (int i = 0; i < 100; ++i) {
      auto mutant = lines;
      const std::size_t from = pick(mutant.size());
      const std::size_t to = pick(mutant.size() + 1);
      switch (pick(3)) {
        case 0:  // duplicate a line elsewhere
          mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(to), mutant[from]);
          break;
        case 1: {  // splice in a line of another seed
          const auto other = linesOf(seeds[pick(seeds.size())]);
          mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(to),
                        other[pick(other.size())]);
          break;
        }
        default: {  // splice two halves of different lines
          const std::string& a = mutant[from];
          const std::string& b = mutant[pick(mutant.size())];
          mutant[from] = a.substr(0, pick(a.size())) + b.substr(pick(b.size()));
        }
      }
      std::string bytes;
      for (const auto& line : mutant) bytes += line;
      (void)sweep.check(bytes, tag + " line mutation " + std::to_string(i));
    }

    // Numbers replaced by values no double or no field type holds exactly.
    for (const auto& [begin, end] : numberSpans(seed)) {
      for (const char* value : {"9007199254740993", "1e400", "-1", "1.5"}) {
        std::string bytes = seed;
        bytes.replace(begin, end - begin, value);
        (void)sweep.check(bytes,
                          tag + " number at " + std::to_string(begin) + " := " + value);
      }
    }

    // Foreign shard header fields.
    const std::string header = lines.front();
    const std::string rest = seed.substr(header.size());
    const std::string foreign[] = {
        ",\"shard\":1", ",\"shards\":2", ",\"campaign_hash\":\"1\"", ",\"objects\":[]",
        ",\"shards\":2,\"shard\":0,\"campaign_hash\":\"" +
            std::to_string(cr::campaignHash(original->header)) + "\",\"objects\":[]",
        ",\"monitor\":\"sampled\""};
    for (const std::string& field : foreign) {
      std::string line = header;
      line.insert(line.rfind('}'), field);
      (void)sweep.check(line + rest, tag + " header +" + field);
    }
    for (const char* swap : {"\"shard\":0", "\"shard\":1", "\"shards\":2"}) {
      if (header.find(swap) == std::string::npos) continue;
      for (const char* to : {"\"shard\":5", "\"shards\":3", "\"shards\":1"}) {
        (void)sweep.check(with(header, swap, to) + rest,
                          tag + " header " + swap + " -> " + to);
      }
    }
    EXPECT_EQ(originalBytes, compacted(*sweep.check(seed, tag)));
  }
  // The sweep exercised both outcomes.
  EXPECT_GT(sweep.refused(), 0);
  EXPECT_LT(sweep.refused(), sweep.checked());
}

}  // namespace
