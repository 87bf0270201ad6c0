// trace_lint — validates telemetry artifacts produced by nvct and the bench
// binaries, so a corrupted trace fails fast instead of poisoning analysis.
//
//   trace_lint --trace trace.jsonl                       # every line parses
//   trace_lint --trace trace.jsonl --require-field app   # field presence
//   trace_lint --trace trace.jsonl --stats               # event-type census
//   trace_lint --metrics metrics.json --require-counter memsim.nvmBlockWrites
//   trace_lint --journal campaign.jsonl                  # resume journal
//   trace_lint --status status.json                      # live status snapshot
//
// Trace mode additionally knows the per-type schema of the sweep
// evaluator's events (docs/INTERNALS.md): a sweep_capture must carry
// run/crash_access/region/iteration/trials and a sweep_end must carry
// run/captures/planned/completed with captures <= planned — an analysis
// joining captures against trial_end rows breaks silently otherwise. The
// flight recorder's phase spans (docs/OBSERVABILITY.md) are checked too: a
// phase_begin must name its "phase" and a phase_end must additionally carry
// a non-negative "duration_ns", a postmortem_scan must carry block tallies
// that add up (skipped + compared == blocks), and a restart_converged must carry its trial, the iteration it
// stopped at, the source of the memo key it reached ("golden" or "trial")
// and the iterations it skipped. --stats appends a name-sorted event-type
// frequency table, a quick census of what a trace actually contains.
//
// Status mode validates one live snapshot written by nvct --status-out: a
// single campaign_status object whose tallies are self-consistent
// (s1+s2+s3+s4+failures == decided <= tests).
//
// Journal mode reads the campaign journal with crash::readJournal, the
// reader --resume and `nvct report` use, so it accepts and
// refuses exactly what they do (docs/ROBUSTNESS.md lists the rules). On top
// it requires a final newline: the reader drops a torn final line, which
// the lint reports.
//
// Exit status 0 iff every check passes; failures name the offending line.
// Doubles as the e2e check behind the nvct smoke test in tests/.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "easycrash/common/cli.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/telemetry/json.hpp"

namespace ec = easycrash;
namespace json = easycrash::telemetry::json;

namespace {

std::vector<std::string> splitCsv(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

bool numberField(const json::Value& value, const char* name, double* out = nullptr) {
  const json::Value* field = value.find(name);
  if (field == nullptr || !field->isNumber()) return false;
  if (out != nullptr) *out = field->number;
  return true;
}

/// Per-type schema of the flight recorder's phase-span events. Returns an
/// empty string when the event is well-formed (or not a phase event).
std::string lintPhaseEvent(const json::Value& value, const std::string& type) {
  if (type != "phase_begin" && type != "phase_end") return {};
  const json::Value* phase = value.find("phase");
  if (phase == nullptr || !phase->isString() || phase->string.empty()) {
    return type + " missing \"phase\"";
  }
  if (type == "phase_end") {
    double durationNs = 0;
    if (!numberField(value, "duration_ns", &durationNs) || durationNs < 0) {
      return "phase_end missing non-negative \"duration_ns\"";
    }
  }
  return {};
}

/// Per-type schema of the fork evaluator's worker lifecycle events
/// (docs/ROBUSTNESS.md). Returns an empty string when the event is
/// well-formed (or not a worker event).
std::string lintWorkerEvent(const json::Value& value, const std::string& type) {
  if (type != "worker_exit" && type != "worker_respawn") return {};
  double slot = 0;
  double pid = 0;
  if (!numberField(value, "slot", &slot) || slot < 0) {
    return type + " missing non-negative \"slot\"";
  }
  if (!numberField(value, "pid", &pid) || pid < 0) {
    return type + " missing non-negative \"pid\"";
  }
  if (type == "worker_exit") {
    const json::Value* death = value.find("death");
    if (death == nullptr || !death->isString() || death->string.empty()) {
      return "worker_exit missing \"death\"";
    }
    if (!numberField(value, "signal") || !numberField(value, "exit_code")) {
      return "worker_exit missing \"signal\"/\"exit_code\"";
    }
    const json::Value* timeout = value.find("timeout");
    if (timeout == nullptr ||
        !(timeout->kind == json::Value::Kind::Bool || timeout->isNumber())) {
      return "worker_exit missing \"timeout\"";
    }
  }
  return {};
}

/// Per-type schema of the sweep evaluator's trace events. Returns an empty
/// string when the event is well-formed (or not a sweep event).
std::string lintSweepEvent(const json::Value& value, const std::string& type) {
  const json::Value* run = value.find("run");
  if (type == "sweep_capture") {
    if (run == nullptr || !run->isString()) return "sweep_capture missing \"run\"";
    if (!numberField(value, "crash_access")) {
      return "sweep_capture missing \"crash_access\"";
    }
    if (!numberField(value, "region") || !numberField(value, "iteration")) {
      return "sweep_capture missing \"region\"/\"iteration\"";
    }
    double trials = 0;
    if (!numberField(value, "trials", &trials) || trials < 1) {
      return "sweep_capture must name at least one trial";
    }
  } else if (type == "sweep_end") {
    if (run == nullptr || !run->isString()) return "sweep_end missing \"run\"";
    double captures = 0;
    double planned = 0;
    if (!numberField(value, "captures", &captures) ||
        !numberField(value, "planned", &planned)) {
      return "sweep_end missing \"captures\"/\"planned\"";
    }
    if (captures > planned) return "sweep_end captured more points than planned";
    const json::Value* completed = value.find("completed");
    if (completed == nullptr ||
        !(completed->kind == json::Value::Kind::Bool || completed->isNumber())) {
      return "sweep_end missing \"completed\"";
    }
  }
  return {};
}

/// Per-type schema of the convergence memo's trace event: a restart that
/// reached a decided state names where it stopped and what it skipped.
std::string lintMemoEvent(const json::Value& value, const std::string& type) {
  if (type != "restart_converged") return {};
  double trial = 0;
  double iteration = 0;
  double skipped = 0;
  if (!numberField(value, "trial", &trial) || trial < 0) {
    return "restart_converged missing non-negative \"trial\"";
  }
  if (!numberField(value, "iteration", &iteration) || iteration < 1) {
    return "restart_converged missing positive \"iteration\"";
  }
  if (!numberField(value, "skipped", &skipped) || skipped < 0) {
    return "restart_converged missing non-negative \"skipped\"";
  }
  const json::Value* source = value.find("source");
  if (source == nullptr || !source->isString() ||
      (source->string != "golden" && source->string != "trial")) {
    return "restart_converged \"source\" must be \"golden\" or \"trial\"";
  }
  return {};
}

/// Per-type schema of the post-mortem scan's trace event: the fast-path
/// inconsistency scan emits one postmortem_scan per scanned range, carrying
/// its block tallies: every block of the range is either skipped or
/// compared, so blocks_skipped + blocks_compared must equal blocks.
std::string lintPostmortemEvent(const json::Value& value, const std::string& type) {
  if (type != "postmortem_scan") return {};
  std::map<std::string, double> fields;
  for (const char* name :
       {"blocks", "blocks_compared", "blocks_skipped", "bytes_compared"}) {
    if (!numberField(value, name, &fields[name]) || fields[name] < 0) {
      return std::string("postmortem_scan missing non-negative \"") + name + '"';
    }
  }
  if (fields["blocks_skipped"] + fields["blocks_compared"] != fields["blocks"]) {
    return "postmortem_scan blocks_skipped + blocks_compared != blocks";
  }
  return {};
}

int lintTrace(const std::string& path, const std::vector<std::string>& requiredFields,
              bool stats) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "trace_lint: cannot open " << path << '\n';
    return 1;
  }
  std::string line;
  std::uint64_t lineNo = 0;
  std::uint64_t events = 0;
  std::map<std::string, std::uint64_t> typeCounts;
  while (std::getline(is, line)) {
    ++lineNo;
    if (line.empty()) continue;
    std::string error;
    const auto value = json::parse(line, &error);
    if (!value) {
      std::cerr << "trace_lint: " << path << ':' << lineNo << ": " << error << '\n';
      return 1;
    }
    if (!value->isObject()) {
      std::cerr << "trace_lint: " << path << ':' << lineNo << ": not a JSON object\n";
      return 1;
    }
    const json::Value* type = value->find("type");
    if (type == nullptr || !type->isString() || type->string.empty()) {
      std::cerr << "trace_lint: " << path << ':' << lineNo << ": missing \"type\"\n";
      return 1;
    }
    const json::Value* ts = value->find("ts_ns");
    if (ts == nullptr || !ts->isNumber() || ts->number < 0) {
      std::cerr << "trace_lint: " << path << ':' << lineNo << ": missing \"ts_ns\"\n";
      return 1;
    }
    for (const auto& field : requiredFields) {
      if (value->find(field) == nullptr) {
        std::cerr << "trace_lint: " << path << ':' << lineNo << ": missing required field \""
                  << field << "\" (event type " << type->string << ")\n";
        return 1;
      }
    }
    for (const std::string& error2 : {lintSweepEvent(*value, type->string),
                                      lintPhaseEvent(*value, type->string),
                                      lintWorkerEvent(*value, type->string),
                                      lintMemoEvent(*value, type->string),
                                      lintPostmortemEvent(*value, type->string)}) {
      if (!error2.empty()) {
        std::cerr << "trace_lint: " << path << ':' << lineNo << ": " << error2 << '\n';
        return 1;
      }
    }
    ++events;
    if (stats) ++typeCounts[type->string];
  }
  if (events == 0) {
    std::cerr << "trace_lint: " << path << " contains no events\n";
    return 1;
  }
  std::cout << path << ": " << events << " events ok\n";
  if (stats) {
    for (const auto& [type, count] : typeCounts) {
      std::cout << "  " << type << ": " << count << '\n';
    }
  }
  return 0;
}

/// nvct --status-out snapshot: one campaign_status object with
/// self-consistent tallies.
int lintStatus(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "trace_lint: cannot open " << path << '\n';
    return 1;
  }
  std::stringstream buffer;
  buffer << is.rdbuf();
  std::string error;
  const auto value = json::parse(buffer.str(), &error);
  const auto fail = [&path](const std::string& what) {
    std::cerr << "trace_lint: " << path << ": " << what << '\n';
    return 1;
  };
  if (!value || !value->isObject()) {
    return fail(error.empty() ? "not a JSON object" : error);
  }
  const json::Value* type = value->find("type");
  if (type == nullptr || !type->isString() || type->string != "campaign_status") {
    return fail("\"type\" must be campaign_status");
  }
  const json::Value* app = value->find("app");
  if (app == nullptr || !app->isString() || app->string.empty()) {
    return fail("missing \"app\"");
  }
  std::map<std::string, double> fields;
  for (const char* name : {"tests", "decided", "resumed", "s1", "s2", "s3", "s4",
                           "failures", "retries", "timeouts", "queue_depth",
                           "workers", "worker_deaths", "elapsed_s",
                           "trials_per_s", "eta_s", "seq"}) {
    if (!numberField(*value, name, &fields[name])) {
      return fail(std::string("missing numeric \"") + name + '"');
    }
    if (fields[name] < 0 && std::string(name) != "eta_s") {
      return fail(std::string("negative \"") + name + '"');
    }
  }
  for (const char* name : {"interrupted", "done"}) {
    const json::Value* flag = value->find(name);
    if (flag == nullptr || flag->kind != json::Value::Kind::Bool) {
      return fail(std::string("missing boolean \"") + name + '"');
    }
  }
  const double settled =
      fields["s1"] + fields["s2"] + fields["s3"] + fields["s4"] + fields["failures"];
  if (settled != fields["decided"]) {
    return fail("s1+s2+s3+s4+failures does not equal decided");
  }
  if (fields["decided"] > fields["tests"]) {
    return fail("decided exceeds planned tests");
  }
  if (fields["resumed"] > fields["decided"]) {
    return fail("resumed exceeds decided");
  }
  std::cout << path << ": status ok (" << static_cast<std::uint64_t>(fields["decided"])
            << "/" << static_cast<std::uint64_t>(fields["tests"]) << " decided, seq "
            << static_cast<std::uint64_t>(fields["seq"]) << ")\n";
  return 0;
}

int lintMetrics(const std::string& path, const std::vector<std::string>& requiredCounters) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "trace_lint: cannot open " << path << '\n';
    return 1;
  }
  std::stringstream buffer;
  buffer << is.rdbuf();
  std::string error;
  const auto value = json::parse(buffer.str(), &error);
  if (!value) {
    std::cerr << "trace_lint: " << path << ": " << error << '\n';
    return 1;
  }
  const json::Value* counters = value->isObject() ? value->find("counters") : nullptr;
  if (counters == nullptr || !counters->isObject()) {
    std::cerr << "trace_lint: " << path << ": missing \"counters\" object\n";
    return 1;
  }
  for (const auto& name : requiredCounters) {
    const json::Value* counter = counters->find(name);
    if (counter == nullptr || !counter->isNumber()) {
      std::cerr << "trace_lint: " << path << ": missing counter \"" << name << "\"\n";
      return 1;
    }
    if (counter->number <= 0) {
      std::cerr << "trace_lint: " << path << ": counter \"" << name << "\" is zero\n";
      return 1;
    }
  }
  std::cout << path << ": metrics ok (" << counters->object.size() << " counters)\n";
  return 0;
}

/// The campaign journal, read by the one reader --resume and `nvct report`
/// use. The lint adds two checks: the file must end in a
/// newline (the reader drops a torn final line, which the next compaction
/// repairs; the lint reports it), and each required failure kind must be
/// decided at least once.
int lintJournal(const std::string& path,
                const std::vector<std::string>& requiredFailureKinds) {
  ec::crash::JournalReplay replay;
  try {
    replay = ec::crash::readJournal(path);
  } catch (const std::runtime_error& e) {
    std::cerr << "trace_lint: " << e.what() << '\n';
    return 1;
  }
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  char last = 0;
  if (is.tellg() > 0) is.seekg(-1, std::ios::end).get(last);
  if (last != '\n') {
    std::cerr << "trace_lint: " << path << ": torn final line (no newline)\n";
    return 1;
  }
  std::set<std::string> failureKinds;
  for (const auto& [trial, failure] : replay.failures) failureKinds.insert(failure.kind);
  for (const auto& required : requiredFailureKinds) {
    if (failureKinds.count(required) == 0) {
      std::cerr << "trace_lint: " << path << ": no trial_failure of kind \""
                << required << "\"\n";
      return 1;
    }
  }
  std::cout << path << ": journal ok (" << replay.trials.size() << " trials, "
            << replay.failures.size() << " failures of " << replay.header.tests
            << " planned)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ec::CliParser cli(
      "trace_lint — validate telemetry traces (JSONL) and metrics snapshots.");
  cli.addString("trace", "", "JSONL trace file to validate");
  cli.addString("metrics", "", "metrics JSON snapshot to validate");
  cli.addString("journal", "", "campaign resume journal (JSONL) to validate");
  cli.addString("status", "", "nvct --status-out snapshot (JSON) to validate");
  cli.addString("require-field", "",
                "comma-separated fields every trace event must carry");
  cli.addString("require-counter", "",
                "comma-separated counters that must be present and non-zero");
  cli.addString("require-failure-kind", "",
                "comma-separated kinds the journal must record at least one "
                "trial_failure of (e.g. crashed,killed,oom,protocol)");
  cli.addFlag("stats", "print an event-type frequency table for the trace");
  if (!cli.parse(argc, argv)) return 0;

  try {
    const std::string tracePath = cli.getString("trace");
    const std::string metricsPath = cli.getString("metrics");
    const std::string journalPath = cli.getString("journal");
    const std::string statusPath = cli.getString("status");
    if (tracePath.empty() && metricsPath.empty() && journalPath.empty() &&
        statusPath.empty()) {
      std::cerr << "trace_lint: nothing to do "
                   "(--trace, --metrics, --journal and/or --status)\n";
      return 1;
    }
    int status = 0;
    if (!tracePath.empty()) {
      status |= lintTrace(tracePath, splitCsv(cli.getString("require-field")),
                          cli.getFlag("stats"));
    }
    if (!metricsPath.empty()) {
      status |= lintMetrics(metricsPath, splitCsv(cli.getString("require-counter")));
    }
    if (!journalPath.empty()) {
      status |= lintJournal(journalPath,
                            splitCsv(cli.getString("require-failure-kind")));
    }
    if (!statusPath.empty()) {
      status |= lintStatus(statusPath);
    }
    return status;
  } catch (const std::exception& e) {
    std::cerr << "trace_lint: " << e.what() << '\n';
    return 1;
  }
}
