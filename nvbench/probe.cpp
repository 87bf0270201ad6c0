// The benchmark's probe: every part of the benchmark that calls into the
// libraries directly (README.md). run.py drives it; it prints one JSON object
// on stdout.
//
//   nvbench_probe setup --app A [--scale S] --repeat K
//       wall time of CampaignRunner::goldenRun(), K times (the set-up cost a
//       campaign pays before its first trial).
//   nvbench_probe workflow --app A --tests N --seed S --work DIR
//                          [--trace-out F --metrics-out F]
//       runEasyCrashWorkflow with library defaults; writes each campaign's
//       per-test CSV into DIR and summarises the outcome and both plans.
//   nvbench_probe replay --app A [--scale S] --tests N --seed S --work DIR
//                        [--workers W] [--csv F] [--journal F]
//                        [--workflow --everywhere-plan P --validation-plan P]
//       the traced replay: runs a campaign (or the workflow's campaigns under
//       the plans the workflow job chose) layer by layer through the
//       libraries' public calls, timing each call from spans in this file,
//       and checks every replayed trial against the outputs the real job
//       wrote.
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "easycrash/apps/registry.hpp"
#include "easycrash/common/check.hpp"
#include "easycrash/common/cli.hpp"
#include "easycrash/common/rng.hpp"
#include "easycrash/core/workflow.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/flight_report.hpp"
#include "easycrash/crash/plan_spec.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/crash/shard.hpp"
#include "easycrash/crash/worker_pool.hpp"
#include "easycrash/stats/spearman.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace {

namespace ec = easycrash;
using ec::crash::CampaignConfig;
using ec::crash::CrashTestRecord;
using ec::crash::Response;
using ec::runtime::Driver;
using ec::runtime::Runtime;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Flat JSON object printed as the probe's single stdout line.
class JsonOut {
 public:
  void num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    add(key, buf);
  }
  void str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    add(key, quoted + "\"");
  }
  void list(const std::string& key, const std::vector<double>& values) {
    std::string text = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", values[i]);
      text += buf;
    }
    add(key, text + "]");
  }
  void raw(const std::string& key, const std::string& json) { add(key, json); }
  void print() const { std::cout << "{" << body_ << "}\n"; }

 private:
  void add(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + value;
  }
  std::string body_;
};

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EC_CHECK_MSG(in.good(), "cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// Per-layer time and work of one replay, summed over its campaigns.
struct Ledger {
  double goldenS = 0;      ///< Driver::freshRun on tracked runtimes
  double sweepS = 0;       ///< sweep crashing runs, capture hook excluded
  double postmortemS = 0;  ///< inconsistentRate + NVM snapshots per capture
  double restartS = 0;     ///< restore + Driver::run per trial, summed
  std::vector<double> postmortemUs;
  std::vector<double> restartMs;
  std::uint64_t goldenAccesses = 0;
  std::uint64_t captures = 0;
  std::uint64_t captureBytes = 0;
  std::uint64_t maxCaptureBytes = 0;
  std::uint64_t blocksCompared = 0;
  std::uint64_t restarts = 0;
  std::uint64_t distinctInputs = 0;
  std::uint64_t checked = 0;     ///< replayed trials compared to the job's CSV
  std::uint64_t mismatched = 0;  ///< of those, trials whose outcome differed
  std::uint64_t countMismatches = 0;  ///< campaigns whose exact counts did not repeat
};

/// The ledger's exact counts, which must repeat bit for bit for a seed.
std::array<std::uint64_t, 4> exactCounts(const Ledger& ledger) {
  return {ledger.goldenAccesses, ledger.captures, ledger.blocksCompared,
          ledger.distinctInputs};
}

/// A replayed campaign: golden stats plus records in trial order, and the
/// order in which the sweep decided them (crash-index order).
struct Replay {
  ec::crash::CampaignResult result;
  std::vector<std::size_t> decisionOrder;
};

CrashTestRecord replayRestart(const ec::runtime::AppFactory& factory,
                              const CampaignConfig& config,
                              const ec::crash::GoldenStats& golden,
                              const ec::crash::SweepCapture& capture, Ledger& ledger) {
  CrashTestRecord record;
  record.crashAccessIndex = capture.crashAccessIndex;
  record.region = capture.region;
  record.regionPath = capture.regionPath;
  record.crashIteration = capture.crashIteration;
  record.restartIteration = capture.restartIteration;
  record.inconsistentRate = capture.inconsistentRate;

  const auto start = Clock::now();
  Runtime rt(config.cache);
  rt.setDirect(true);
  rt.setPlan(config.plan);
  auto app = factory();
  app->setup(rt);
  app->initialize(rt);
  for (const auto& [id, bytes] : capture.snapshots) rt.restoreObject(id, bytes);
  const auto rerun = Driver::run(*app, rt, record.restartIteration,
                                 golden.finalIteration * config.maxIterationFactor);
  const double seconds = secondsSince(start);
  ledger.restartS += seconds;
  ledger.restartMs.push_back(seconds * 1e3);
  ++ledger.restarts;

  if (rerun.interrupted) {
    record.response = Response::S3;
    record.note = rerun.interruptReason;
  } else if (!rerun.verification.pass) {
    record.response = Response::S4;
    record.note = rerun.verification.detail;
  } else {
    record.extraIterations = std::max(0, rerun.finalIteration - golden.finalIteration);
    record.response = record.extraIterations == 0 ? Response::S1 : Response::S2;
    record.note = rerun.verification.detail;
  }
  return record;
}

/// The campaign engine's layers, called one by one: tracked golden run, the
/// crash-point draw, one sweep crashing run with a capture at every drawn
/// point (post-mortem inside the capture), and a direct-mode restart per
/// trial (skipped when `restarts` is false). Every run starts from a fresh
/// Runtime, so simulated caches start empty, as in a user's campaign.
Replay replayCampaign(const ec::runtime::AppFactory& factory,
                      const CampaignConfig& config, Ledger& ledger, bool restarts = true) {
  Replay out;
  auto& golden = out.result.golden;
  {
    Runtime rt(config.cache);
    rt.setPlan(config.plan);
    rt.enableProfile();
    auto app = factory();
    const auto start = Clock::now();
    const auto run = Driver::freshRun(*app, rt);
    ledger.goldenS += secondsSince(start);
    EC_CHECK_MSG(!run.interrupted && run.verification.pass, "golden run failed");
    golden.windowAccesses = rt.windowAccesses();
    golden.finalIteration = run.finalIteration;
    golden.events = rt.events();
    golden.footprintBytes = rt.footprintBytes();
    golden.regionCount = rt.regionCount();
    golden.persistenceOps = rt.persistenceOps();
    golden.verifyMetric = run.verification.metric;
    golden.objects = rt.objects();
    for (const auto& [region, accesses] : rt.regionAccesses()) {
      golden.regionTimeShare[region] =
          static_cast<double>(accesses) / static_cast<double>(golden.windowAccesses);
    }
    golden.regionIterationEnds = rt.regionIterationEnds();
    ledger.goldenAccesses += golden.events.loads + golden.events.stores;
  }

  ec::Rng rng(config.seed);
  const auto n = static_cast<std::size_t>(config.numTests);
  std::map<std::uint64_t, std::vector<std::size_t>> sweepPlan;
  for (std::size_t t = 0; t < n; ++t) {
    sweepPlan[rng.between(1, golden.windowAccesses)].push_back(t);
  }
  out.result.plannedTests = config.numTests;
  out.result.tests.resize(n);
  if (n == 0) return out;

  Runtime rt(config.cache);
  rt.setPlan(config.plan);
  rt.enableProfile();
  auto app = factory();
  app->setup(rt);
  app->initialize(rt);
  std::vector<std::uint64_t> indices;
  for (const auto& [index, trials] : sweepPlan) indices.push_back(index);
  rt.armCrash(indices.back());
  auto pending = sweepPlan.cbegin();
  std::unordered_set<std::uint64_t> inputs;
  double hookS = 0;
  rt.armCaptures(std::move(indices), [&](const ec::runtime::CrashEvent& at) {
    const auto hookStart = Clock::now();
    EC_CHECK(pending != sweepPlan.cend());
    const auto& [index, trials] = *pending++;
    ec::crash::SweepCapture capture;
    capture.crashAccessIndex = index;
    capture.region = at.activeRegion;
    capture.regionPath = at.regionPath;
    capture.crashIteration = at.iteration;
    const auto start = Clock::now();
    for (const auto& object : rt.objects()) {
      if (!object.candidate) continue;
      capture.inconsistentRate[object.id] = rt.inconsistentRate(object.id);
      capture.snapshots[object.id] = rt.dumpObjectNvm(object.id);
    }
    capture.restartIteration = rt.bookmarkedIterationNvm();
    const double postmortem = secondsSince(start);
    ledger.postmortemS += postmortem;
    ledger.postmortemUs.push_back(postmortem * 1e6);
    ++ledger.captures;

    // A restart's outcome is a function of its iteration and the candidate
    // snapshots; the digest counts how many distinct restart inputs exist.
    std::uint64_t digest = fnv1a(14695981039346656037ull, &capture.restartIteration,
                                 sizeof capture.restartIteration);
    std::uint64_t bytes = 0;
    for (const auto& [id, snapshot] : capture.snapshots) {
      digest = fnv1a(digest, &id, sizeof id);
      digest = fnv1a(digest, snapshot.data(), snapshot.size());
      bytes += snapshot.size();
    }
    inputs.insert(digest);
    ledger.captureBytes += bytes;
    ledger.maxCaptureBytes = std::max(ledger.maxCaptureBytes, bytes);

    if (restarts) {
      for (const std::size_t t : trials) {
        out.result.tests[t] = replayRestart(factory, config, golden, capture, ledger);
        out.decisionOrder.push_back(t);
      }
    }
    hookS += secondsSince(hookStart);
  });
  const auto sweepStart = Clock::now();
  try {
    (void)Driver::run(*app, rt, 1, golden.finalIteration);
    EC_CHECK_MSG(false, "armed crash did not fire");
  } catch (const ec::runtime::CrashEvent&) {
  }
  ledger.sweepS += secondsSince(sweepStart) - hookS;
  ledger.blocksCompared += rt.events().postmortemBlocksCompared;
  ledger.distinctInputs += inputs.size();
  return out;
}

/// replayCampaign, then its golden run and sweep once more on fresh
/// runtimes: the second pass must reproduce the first pass's exact counts.
Replay replayRepeated(const ec::runtime::AppFactory& factory,
                      const CampaignConfig& config, Ledger& ledger) {
  const auto before = exactCounts(ledger);
  Replay replay = replayCampaign(factory, config, ledger);
  Ledger again;
  (void)replayCampaign(factory, config, again, false);
  const auto after = exactCounts(ledger);
  const auto repeat = exactCounts(again);
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (after[i] - before[i] != repeat[i]) {
      ++ledger.countMismatches;
      break;
    }
  }
  return replay;
}

/// Compare replayed trials with the job's per-test CSV, trial by trial.
void checkAgainstCsv(const Replay& replay, const std::string& csvPath, Ledger& ledger) {
  const auto& tests = replay.result.tests;
  ledger.checked += tests.size();
  std::ifstream in(csvPath);
  if (!in.good()) {
    ledger.mismatched += tests.size();
    return;
  }
  const auto rows = ec::crash::readCampaignCsv(in);
  for (std::size_t t = 0; t < tests.size(); ++t) {
    const bool same = rows.size() == tests.size() &&
                      rows[t].crashAccessIndex == tests[t].crashAccessIndex &&
                      rows[t].restartIteration == tests[t].restartIteration &&
                      rows[t].response == tests[t].response &&
                      rows[t].extraIterations == tests[t].extraIterations;
    if (!same) ++ledger.mismatched;
  }
}

ec::crash::JournalHeader journalHeader(const CampaignConfig& config,
                                       const Replay& replay) {
  ec::crash::JournalHeader header;
  header.app = config.appLabel;
  header.seed = config.seed;
  header.tests = config.numTests;
  header.mode = "nvm";
  header.planFingerprint = ec::crash::planFingerprint(config.plan);
  header.windowAccesses = replay.result.golden.windowAccesses;
  return header;
}

/// Journal, 2-way shard merge and flight report over the replayed records.
/// The rewritten journal and the merged journal must both equal `reference`
/// (the job's own journal) when one is given.
void journalLayers(const CampaignConfig& config, const Replay& replay,
                   const std::string& work, const std::string& reference,
                   JsonOut& out, Ledger& ledger) {
  const auto header = journalHeader(config, replay);
  const std::string path = work + "/replay.jsonl";
  const auto start = Clock::now();
  {
    ec::crash::TrialJournal journal(path, header, config.resilience.journalFlushEvery);
    journal.flush();
    for (const std::size_t t : replay.decisionOrder) {
      journal.recordTrial(t, replay.result.tests[t]);
    }
    journal.close();
  }
  const double journalS = secondsSince(start);
  const std::string journalText = readFile(path);
  const std::size_t records = replay.decisionOrder.size();

  std::vector<std::string> shards;
  for (int i = 0; i < 2; ++i) {
    auto shardHeader = header;
    shardHeader.shardIndex = i;
    shardHeader.shardCount = 2;
    shardHeader.campaignHash = ec::crash::campaignHash(header);
    for (const auto& object : replay.result.golden.objects) {
      if (object.candidate) shardHeader.candidates.push_back({object.id, object.name});
    }
    shards.push_back(work + "/shard" + std::to_string(i) + ".jsonl");
    ec::crash::TrialJournal journal(shards.back(), shardHeader, 1 << 30);
    for (std::size_t t = static_cast<std::size_t>(i); t < records; t += 2) {
      journal.recordTrial(t, replay.result.tests[t]);
    }
    journal.close();
  }
  auto mark = Clock::now();
  const auto merged = ec::crash::mergeShardJournals(shards);
  const std::string mergedText = ec::crash::renderMergedJournal(merged);
  const double mergeS = secondsSince(mark);

  mark = Clock::now();
  const std::string report = ec::crash::renderFlightReport(ec::crash::readJournal(path), "", "");
  const double reportS = secondsSince(mark);

  bool journalOk = mergedText == journalText && !report.empty();
  if (!reference.empty()) journalOk = journalOk && readFile(reference) == journalText;
  if (!journalOk) ++ledger.mismatched;
  ++ledger.checked;

  out.num("journal_s", journalS);
  out.num("journal_append_us", records ? journalS * 1e6 / static_cast<double>(records) : 0);
  out.num("journal_bytes", static_cast<double>(journalText.size()));
  out.num("merge_ms", mergeS * 1e3);
  out.num("report_ms", reportS * 1e3);
}

/// Worker spawn and one capture-sized round trip through the worker arena,
/// the fork evaluator's transport.
void transportLayers(int workers, std::uint64_t captureBytes, JsonOut& out) {
  const std::size_t bytes = std::max<std::uint64_t>(captureBytes, 1);
  const auto handler = [](int, const std::string& request,
                          const ec::crash::WorkerPool::ChildChannel& ch) {
    const auto n = static_cast<std::size_t>(std::stoull(request));
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) sum += ch.arena()[i];
    ch.send(std::to_string(sum));
  };
  std::vector<double> spawnMs;
  for (int i = 0; i < 5; ++i) {
    const auto start = Clock::now();
    ec::crash::WorkerPool pool(workers, bytes, handler);
    spawnMs.push_back(secondsSince(start) * 1e3);
  }
  std::vector<std::uint8_t> payload(bytes);
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131u);
    expected += payload[i];
  }
  ec::crash::WorkerPool pool(1, bytes, handler);
  std::vector<double> roundtripUs;
  for (int i = 0; i < 200; ++i) {
    const auto start = Clock::now();
    std::memcpy(pool.arena(0), payload.data(), bytes);
    EC_CHECK(pool.send(0, std::to_string(bytes)));
    const auto reply = pool.recv(0, std::chrono::milliseconds(0));
    roundtripUs.push_back(secondsSince(start) * 1e6);
    EC_CHECK_MSG(reply.ok && reply.frame == std::to_string(expected),
                 "transport round trip returned a wrong frame");
  }
  out.num("worker_spawn_ms", percentile(spawnMs, 0.5));
  out.num("transport_roundtrip_us", percentile(roundtripUs, 0.5));
}

/// Runtime::persistObject on a plan's objects at every main-loop end of a
/// tracked run that executes the plan. Returns {seconds, calls}.
std::pair<double, std::uint64_t> persistLayer(const ec::runtime::AppFactory& factory,
                                              const CampaignConfig& config,
                                              int finalIteration) {
  std::vector<ec::runtime::ObjectId> objects;
  for (const auto& [point, directive] : config.plan.points) {
    for (const auto id : directive.objects) {
      if (std::find(objects.begin(), objects.end(), id) == objects.end()) {
        objects.push_back(id);
      }
    }
  }
  if (objects.empty()) return {0.0, 0};
  Runtime rt(config.cache);
  rt.setPlan(config.plan);
  auto app = factory();
  app->setup(rt);
  app->initialize(rt);
  rt.setCrashWindow(true);
  double seconds = 0;
  std::uint64_t calls = 0;
  for (int it = 1; it <= finalIteration; ++it) {
    rt.bookmarkIteration(it);
    app->iterate(rt, it);
    rt.mainLoopIterationEnd(it);
    const auto start = Clock::now();
    for (const auto id : objects) rt.persistObject(id, config.plan.flushKind);
    seconds += secondsSince(start);
    calls += objects.size();
    if (app->converged(rt, it)) break;
  }
  rt.setCrashWindow(false);
  return {seconds, calls};
}

CampaignConfig campaignConfig(const std::string& label, int tests, std::uint64_t seed) {
  CampaignConfig config;
  config.appLabel = label;
  config.numTests = tests;
  config.seed = seed;
  return config;
}

void emitLedger(const Ledger& ledger, JsonOut& out) {
  out.num("golden_s", ledger.goldenS);
  out.num("golden_accesses", static_cast<double>(ledger.goldenAccesses));
  out.num("sweep_s", ledger.sweepS);
  out.num("postmortem_s", ledger.postmortemS);
  out.num("postmortem_us_p50", percentile(ledger.postmortemUs, 0.5));
  out.num("postmortem_us_p99", percentile(ledger.postmortemUs, 0.99));
  out.num("postmortem_blocks_compared", static_cast<double>(ledger.blocksCompared));
  out.num("captures", static_cast<double>(ledger.captures));
  out.num("capture_bytes", ledger.captures ? static_cast<double>(ledger.captureBytes) /
                                                 static_cast<double>(ledger.captures)
                                           : 0.0);
  out.num("restart_s", ledger.restartS);
  out.num("restart_ms_p50", percentile(ledger.restartMs, 0.5));
  out.num("restart_ms_p99", percentile(ledger.restartMs, 0.99));
  out.num("restarts", static_cast<double>(ledger.restarts));
  out.num("restart_distinct_inputs", static_cast<double>(ledger.distinctInputs));
  out.num("checked", static_cast<double>(ledger.checked));
  out.num("mismatched", static_cast<double>(ledger.mismatched));
  out.num("count_mismatches", static_cast<double>(ledger.countMismatches));
}

int cmdSetup(int argc, char** argv) {
  ec::CliParser cli("nvbench_probe setup");
  cli.addString("app", "ft", "benchmark app");
  cli.addInt("scale", 1, "problem-size multiplier");
  cli.addInt("repeat", 3, "golden runs to time");
  if (!cli.parse(argc, argv)) return 0;
  const std::string app = cli.getString("app");
  const int scale = static_cast<int>(cli.getInt("scale"));
  const ec::crash::CampaignRunner runner(ec::apps::scaledBenchmarkFactory(app, scale),
                                         campaignConfig(app, 0, 1));
  std::vector<double> seconds;
  std::uint64_t window = 0;
  for (std::int64_t i = 0; i < cli.getInt("repeat"); ++i) {
    const auto start = Clock::now();
    const auto golden = runner.goldenRun();
    seconds.push_back(secondsSince(start));
    EC_CHECK_MSG(window == 0 || window == golden.windowAccesses,
                 "golden runs disagree on the crash window");
    window = golden.windowAccesses;
  }
  JsonOut out;
  out.list("golden_s", seconds);
  out.num("window_accesses", static_cast<double>(window));
  out.print();
  return 0;
}

std::string campaignJson(const ec::crash::CampaignResult& campaign) {
  const auto counts = campaign.responseCounts();
  std::ostringstream os;
  os << "{\"planned\":" << campaign.plannedTests << ",\"tests\":" << campaign.tests.size()
     << ",\"failures\":" << campaign.failures.size() << ",\"tally\":[" << counts[0] << ','
     << counts[1] << ',' << counts[2] << ',' << counts[3] << "]}";
  return os.str();
}

void writeCsv(const ec::crash::CampaignResult& campaign, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ec::crash::writeCampaignCsv(campaign, os);
  EC_CHECK_MSG(os.good(), "cannot write " + path);
}

int cmdWorkflow(int argc, char** argv) {
  ec::CliParser cli("nvbench_probe workflow");
  cli.addString("app", "mg", "benchmark app");
  cli.addInt("tests", 300, "crash tests per campaign");
  cli.addInt("seed", 1, "workflow seed");
  cli.addString("work", "", "directory for the campaigns' CSVs");
  cli.addString("trace-out", "", "JSONL trace of the program's own telemetry");
  cli.addString("metrics-out", "", "metrics snapshot of the program's own telemetry");
  if (!cli.parse(argc, argv)) return 0;
  const auto& entry = ec::apps::findBenchmark(cli.getString("app"));
  const std::string work = cli.getString("work");
  const std::string tracePath = cli.getString("trace-out");
  if (!tracePath.empty()) {
    ec::telemetry::TraceSink::instance().setCommonField("app", entry.name);
    ec::telemetry::TraceSink::instance().openFile(tracePath);
  }
  ec::core::WorkflowConfig config;
  config.testsPerCampaign = static_cast<int>(cli.getInt("tests"));
  config.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
  const auto workflow = ec::core::runEasyCrashWorkflow(entry.factory, config);
  if (!tracePath.empty()) ec::telemetry::TraceSink::instance().close();
  const std::string metricsPath = cli.getString("metrics-out");
  if (!metricsPath.empty()) {
    std::ofstream os(metricsPath, std::ios::trunc);
    ec::telemetry::MetricsRegistry::instance().writeJson(os);
  }

  Runtime names;
  entry.factory()->setup(names);
  std::string campaigns = "{\"baseline\":" + campaignJson(workflow.baseline);
  writeCsv(workflow.baseline, work + "/baseline.csv");
  if (!workflow.everywherePlan.empty()) {
    campaigns += ",\"everywhere\":" + campaignJson(workflow.everywhere);
    writeCsv(workflow.everywhere, work + "/everywhere.csv");
  }
  if (workflow.validation) {
    campaigns += ",\"validation\":" + campaignJson(*workflow.validation);
    writeCsv(*workflow.validation, work + "/validation.csv");
  }
  JsonOut out;
  out.raw("campaigns", campaigns + "}");
  out.str("everywhere_plan", ec::crash::formatPlanSpec(workflow.everywherePlan, names));
  out.str("plan", ec::crash::formatPlanSpec(workflow.plan, names));
  out.num("meets_tau", workflow.regions.meetsTau ? 1 : 0);
  out.num("interrupted", workflow.interrupted ? 1 : 0);
  out.print();
  return 0;
}

/// The workflow's campaigns, replayed under the plans the workflow job chose
/// (`everywhere` and `validation`, empty when the job ran no such campaign),
/// each checked against the job's CSV.
void replayWorkflow(const ec::runtime::AppFactory& factory, const std::string& app,
                    int tests, std::uint64_t seed, const std::string& work,
                    const ec::runtime::PersistencePlan& everywhere,
                    const ec::runtime::PersistencePlan& validation, JsonOut& out,
                    Ledger& ledger) {
  const auto base = campaignConfig(app, tests, seed);
  const Replay baseline = replayRepeated(factory, base, ledger);
  checkAgainstCsv(baseline, work + "/baseline.csv", ledger);
  journalLayers(base, baseline, work, "", out, ledger);

  // Step 2's rank correlation, once per candidate on the baseline's trials.
  std::vector<double> outcome;
  for (const auto& test : baseline.result.tests) {
    outcome.push_back(test.response == Response::S1 ? 1.0 : 0.0);
  }
  std::vector<double> spearmanUs;
  for (const auto& object : baseline.result.golden.objects) {
    if (!object.candidate) continue;
    std::vector<double> rates;
    for (const auto& test : baseline.result.tests) {
      const auto it = test.inconsistentRate.find(object.id);
      rates.push_back(it == test.inconsistentRate.end() ? 0.0 : it->second);
    }
    const auto mark = Clock::now();
    (void)ec::stats::spearman(rates, outcome);
    spearmanUs.push_back(secondsSince(mark) * 1e6);
  }
  out.num("spearman_us", percentile(spearmanUs, 0.5));

  double persistS = 0;
  std::uint64_t persistCalls = 0;
  const std::pair<const char*, const ec::runtime::PersistencePlan*> campaigns[] = {
      {"everywhere", &everywhere}, {"validation", &validation}};
  std::uint64_t offset = 0;
  for (const auto& [name, plan] : campaigns) {
    ++offset;
    if (plan->empty()) continue;
    auto config = base;
    config.seed = seed + offset;
    config.plan = *plan;
    const Replay replay = replayRepeated(factory, config, ledger);
    checkAgainstCsv(replay, work + "/" + name + ".csv", ledger);
    const auto [seconds, calls] =
        persistLayer(factory, config, baseline.result.golden.finalIteration);
    persistS += seconds;
    persistCalls += calls;
  }
  out.num("persist_us", persistCalls ? persistS * 1e6 / static_cast<double>(persistCalls) : 0);
  out.num("persist_calls", static_cast<double>(persistCalls));
}

int cmdReplay(int argc, char** argv) {
  ec::CliParser cli("nvbench_probe replay");
  cli.addString("app", "ft", "benchmark app");
  cli.addInt("scale", 1, "problem-size multiplier");
  cli.addInt("tests", 100, "crash tests per campaign");
  cli.addInt("seed", 1, "campaign seed");
  cli.addInt("workers", 0, "fork workers of the replayed job (0 = in-process)");
  cli.addString("csv", "", "the job's per-test CSV");
  cli.addString("journal", "", "the job's journal, compared byte for byte");
  cli.addString("work", "", "scratch directory");
  cli.addFlag("workflow", "replay runEasyCrashWorkflow's campaigns instead");
  cli.addString("everywhere-plan", "none", "the workflow job's persist-everywhere plan");
  cli.addString("validation-plan", "none", "the plan of the workflow job's validation campaign");
  if (!cli.parse(argc, argv)) return 0;
  const std::string app = cli.getString("app");
  const int scale = static_cast<int>(cli.getInt("scale"));
  const int tests = static_cast<int>(cli.getInt("tests"));
  const auto seed = static_cast<std::uint64_t>(cli.getInt("seed"));
  const std::string work = cli.getString("work");
  const auto factory = ec::apps::scaledBenchmarkFactory(app, scale);

  JsonOut out;
  Ledger ledger;
  const auto start = Clock::now();
  if (cli.getFlag("workflow")) {
    Runtime names;
    factory()->setup(names);
    replayWorkflow(factory, app, tests, seed, work,
                   ec::crash::parsePlanSpec(cli.getString("everywhere-plan"), names),
                   ec::crash::parsePlanSpec(cli.getString("validation-plan"), names), out,
                   ledger);
  } else {
    const auto config =
        campaignConfig(scale == 1 ? app : app + "@s" + std::to_string(scale), tests, seed);
    const Replay replay = replayRepeated(factory, config, ledger);
    checkAgainstCsv(replay, cli.getString("csv"), ledger);
    journalLayers(config, replay, work, cli.getString("journal"), out, ledger);
  }
  const int workers = static_cast<int>(cli.getInt("workers"));
  if (workers > 0) {
    transportLayers(workers, ledger.maxCaptureBytes, out);
  } else {
    out.num("worker_spawn_ms", 0);
    out.num("transport_roundtrip_us", 0);
  }
  emitLedger(ledger, out);
  out.num("replay_s", secondsSince(start));
  out.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "setup") return cmdSetup(argc - 1, argv + 1);
    if (mode == "workflow") return cmdWorkflow(argc - 1, argv + 1);
    if (mode == "replay") return cmdReplay(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::cerr << "nvbench_probe: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "usage: nvbench_probe setup|workflow|replay [options]\n";
  return 2;
}
