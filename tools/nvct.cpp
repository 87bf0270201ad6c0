// nvct — the crash-study command-line tool (the paper's open-sourced NVCT).
//
// Runs a crash-test campaign for one of the bundled benchmarks under an
// optional persistence plan, prints the human-readable post-mortem summary,
// and optionally writes the per-test CSV for external analysis.
//
//   nvct --app mg --tests 200
//   nvct --app mg --tests 200 --plan "u@main"
//   nvct --app is --tests 500 --plan "key_array+bucket_hist@main"
//        --csv-out is_campaign.csv --mode coherent
//   nvct --app kmeans --list-objects
//
// Observability (docs/OBSERVABILITY.md): --trace-out writes a JSONL event
// trace, --metrics-out a counters/histograms snapshot (including the sweep's
// per-object access/wear profile), --status-out keeps a live status snapshot
// fresh while the campaign runs, --log-level tunes stderr diagnostics, and a
// live progress line, rendered from the same status samples, tracks the
// campaign. After a campaign, `nvct report` joins the journal, trace, and
// metrics into one deterministic markdown report:
//
//   nvct report --journal mg.jsonl --trace mg_trace.jsonl
//        --metrics mg_metrics.json --out mg_report.md
//
// Performance (docs/INTERNALS.md): one sweep run captures every pending
// crash point and the restarts pipeline behind it, the apps' range accesses
// take the block-granular bulk path, and the post-mortem inconsistency scan
// compares only the LLC's dirty blocks with a vectorized compare kernel.
//
// Fault tolerance (docs/ROBUSTNESS.md): trials run in pre-forked worker
// processes (a throwing or dying trial becomes a reported TrialFailure,
// bounded by --max-trial-failures; --isolation none runs them in-process,
// where only a throwing trial can be caught), the parent SIGKILLs a worker
// that misses its deadline (--trial-timeout-ms), --journal records
// decided trials crash-safely and --resume replays such a journal, and
// SIGINT/SIGTERM drain the in-flight trials then exit with code 130 and a
// partial summary.
//
// Exit codes: 0 success, 1 error, 130 interrupted (SIGINT/SIGTERM).
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include <string_view>

#include "easycrash/apps/registry.hpp"
#include "easycrash/common/cli.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/flight_report.hpp"
#include "easycrash/crash/plan_spec.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/telemetry/log.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace ec = easycrash;

namespace {

constexpr int kExitInterrupted = 130;

// A millisecond option that must not be negative: a negative value would
// wrap to a ~2^64 ms sleep or deadline.
std::uint64_t nonNegative(const ec::CliParser& cli, const std::string& name) {
  const std::int64_t value = cli.getInt(name);
  if (value < 0) throw std::runtime_error("--" + name + " must not be negative");
  return static_cast<std::uint64_t>(value);
}

// `nvct report`: deterministic post-run analysis over a finished campaign's
// outputs. Dispatched on argv[1] before the campaign CLI (CliParser has no
// positional arguments).
int reportMain(int argc, char** argv) {
  ec::CliParser cli(
      "nvct report — render a deterministic markdown report from a finished "
      "campaign's journal (+ optional trace and metrics snapshot).\n"
      "Byte-identical output for identical inputs.");
  // A list, so that a second --journal is refused rather than silently
  // overriding the first.
  cli.addStringList("journal", "campaign journal (required, exactly one)");
  cli.addString("trace", "", "JSONL trace for phase-latency percentiles");
  cli.addString("metrics", "", "metrics snapshot for the access/wear heatmap");
  cli.addString("out", "", "write the report here (default: stdout)");

  try {
    if (!cli.parse(argc, argv)) return 0;
    const auto& journals = cli.getStringList("journal");
    if (journals.empty()) {
      throw std::runtime_error("requires --journal");
    }
    if (journals.size() > 1) {
      throw std::runtime_error(
          "takes exactly one --journal (got " + std::to_string(journals.size()) +
          "): campaigns are no longer sharded, so there are no journals to merge");
    }
    const std::string report = ec::crash::renderFlightReport(
        ec::crash::readJournal(journals.front()), cli.getString("trace"),
        cli.getString("metrics"));
    const std::string outPath = cli.getString("out");
    if (outPath.empty()) {
      std::cout << report;
    } else {
      ec::crash::atomicWriteFile(outPath, report);
      std::cout << "report written to " << outPath << '\n';
    }
  } catch (const std::exception& e) {
    std::cerr << "nvct report: " << e.what() << '\n';
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string_view(argv[1]) == "report") {
    return reportMain(argc - 1, argv + 1);
  }
  ec::CliParser cli(
      "nvct — crash-test campaigns on the simulated NVM machine.\n"
      "Plan spec grammar: obj[+obj...]@(main|R<k>)[:everyN], comma-separated;\n"
      "'candidates' expands to every candidate object.\n"
      "Exit codes: 0 success, 1 error, 130 interrupted (SIGINT/SIGTERM).");
  cli.addString("app", "mg", "benchmark to study (see --list-apps)");
  cli.addInt("tests", 200, "number of crash tests");
  cli.addInt("seed", 1, "campaign master seed");
  cli.addString("plan", "none", "persistence plan spec");
  cli.addString("mode", "nvm", "snapshot mode: nvm (NVCT) or coherent (verified)");
  cli.addInt("threads", 1, "campaign worker threads (0 = hardware concurrency)");
  cli.addInt("scale", 1,
             "problem-size multiplier for cg, mg and kmeans (grid edge / "
             "point count); other apps only accept 1");
  cli.addString("csv-out", "", "write the per-test CSV to this file");
  cli.addString("trace-out", "", "write a JSONL telemetry trace to this file");
  cli.addString("metrics-out", "", "write the final metrics snapshot (JSON)");
  cli.addString("status-out", "",
                "atomically rewrite a live campaign status snapshot (JSON) "
                "on every interval and after the final drain");
  cli.addInt("status-interval-ms", 1000,
             "status sample interval (snapshot rewrite and progress redraw)");
  cli.addString("log-level", "", "stderr log level: error|warn|info|debug|trace");
  cli.addFlag("no-progress", "suppress the live campaign progress line");
  cli.addString("journal", "", "append decided trials to this crash-safe JSONL journal");
  cli.addString("resume", "", "replay this journal; only missing trials are re-run");
  cli.addInt("journal-flush-every", 8, "journal flush cadence in decided trials");
  cli.addInt("max-trial-failures", 25,
             "abort once more than this many trials fail (-1 = unlimited)");
  cli.addInt("trial-retries", 1, "retries per failing trial before recording it");
  cli.addInt("trial-timeout-ms", 0,
             "per-attempt deadline; the parent SIGKILLs a worker that misses "
             "it (0 = golden-run multiple; requires --isolation fork)");
  cli.addDouble("timeout-golden-multiple", 20.0,
                "deadline as a multiple of the golden run (used when "
                "--trial-timeout-ms is 0; 0 disables the deadline; ignored "
                "without --isolation fork)");
  cli.addString("isolation", "fork",
                "trial evaluator isolation: 'fork' runs every crashing run "
                "and restart in a pre-forked worker process (a trial that "
                "throws, segfaults, OOMs or hangs becomes a TrialFailure); "
                "'none' runs trials in-process (a trial that throws becomes "
                "a TrialFailure)");
  cli.addString("inject", "",
                "deterministic fault injection: segv|wild-write|oom|hang"
                ":<access-index> kills the worker at exactly that tracked "
                "access of every crashing run (requires --isolation fork)");
  cli.addInt("stop-after", 0,
             "test hook: request a graceful stop after N new trials (0 = off)");
  cli.addFlag("list-apps", "list the bundled benchmarks and exit");
  cli.addFlag("list-objects", "list the app's data objects and exit");

  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::string logLevel = cli.getString("log-level");
    if (!logLevel.empty()) {
      const auto parsed = ec::telemetry::parseLogLevel(logLevel);
      if (!parsed) throw std::runtime_error("unknown --log-level " + logLevel);
      ec::telemetry::setLogLevel(*parsed);
    }
    if (cli.getFlag("list-apps")) {
      for (const auto& entry : ec::apps::allBenchmarks()) {
        std::cout << entry.name << "  —  " << entry.description << '\n';
      }
      return 0;
    }

    const auto& entry = ec::apps::findBenchmark(cli.getString("app"));
    const int scale = static_cast<int>(cli.getInt("scale"));
    const auto factory = ec::apps::scaledBenchmarkFactory(entry.name, scale);

    // A setup-only runtime resolves object names for the plan spec.
    ec::runtime::Runtime probe;
    auto probeApp = factory();
    probeApp->setup(probe);

    if (cli.getFlag("list-objects")) {
      for (const auto& object : probe.objects()) {
        std::cout << object.name << "  " << object.bytes << " bytes"
                  << (object.candidate ? "  [candidate]" : "")
                  << (object.readOnly ? "  [read-only]" : "") << '\n';
      }
      return 0;
    }

    ec::crash::CampaignConfig config;
    config.numTests = static_cast<int>(cli.getInt("tests"));
    config.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    config.plan = ec::crash::parsePlanSpec(cli.getString("plan"), probe);
    // Scaled instances get their own label: their golden runs (and journals)
    // are different campaigns from the scale-1 app.
    config.appLabel =
        scale == 1 ? entry.name : entry.name + "@s" + std::to_string(scale);
    config.threads = static_cast<int>(cli.getInt("threads"));
    config.progress = !cli.getFlag("no-progress");
    const std::string mode = cli.getString("mode");
    if (mode == "coherent") {
      config.mode = ec::crash::SnapshotMode::Coherent;
    } else if (mode != "nvm") {
      throw std::runtime_error("--mode must be 'nvm' or 'coherent'");
    }
    config.statusPath = cli.getString("status-out");
    config.statusIntervalMs = static_cast<int>(cli.getInt("status-interval-ms"));
    if (config.statusIntervalMs <= 0) {
      throw std::runtime_error("--status-interval-ms must be positive");
    }

    auto& res = config.resilience;
    res.maxFailures = static_cast<int>(cli.getInt("max-trial-failures"));
    res.maxRetries = static_cast<int>(cli.getInt("trial-retries"));
    res.trialTimeoutMs = nonNegative(cli, "trial-timeout-ms");
    res.goldenTimeoutMultiple = cli.getDouble("timeout-golden-multiple");
    if (!std::isfinite(res.goldenTimeoutMultiple) || res.goldenTimeoutMultiple < 0) {
      throw std::runtime_error(
          "--timeout-golden-multiple must be a finite non-negative number");
    }
    res.journalPath = cli.getString("journal");
    res.resumePath = cli.getString("resume");
    res.journalFlushEvery = static_cast<int>(cli.getInt("journal-flush-every"));
    res.stopAfterTrials = static_cast<int>(cli.getInt("stop-after"));
    const std::string isolation = cli.getString("isolation");
    if (isolation == "fork") {
      res.isolation = ec::crash::IsolationMode::Fork;
    } else if (isolation == "none") {
      res.isolation = ec::crash::IsolationMode::InProcess;
    } else {
      throw std::runtime_error("--isolation must be 'fork' or 'none'");
    }
    if (res.trialTimeoutMs > 0 && res.isolation != ec::crash::IsolationMode::Fork) {
      throw std::runtime_error(
          "--trial-timeout-ms requires --isolation fork (only a worker "
          "process can be killed when it misses its deadline)");
    }
    const std::string inject = cli.getString("inject");
    if (!inject.empty()) {
      if (res.isolation != ec::crash::IsolationMode::Fork) {
        throw std::runtime_error(
            "--inject requires --isolation fork (the fault kills the process "
            "that runs the trial)");
      }
      const auto colon = inject.find(':');
      if (colon == std::string::npos || colon + 1 >= inject.size()) {
        throw std::runtime_error("--inject must be <kind>:<access-index>");
      }
      const std::string kind = inject.substr(0, colon);
      if (kind == "segv") {
        config.inject.kind = ec::crash::FaultPlan::Kind::Segv;
      } else if (kind == "wild-write") {
        config.inject.kind = ec::crash::FaultPlan::Kind::WildWrite;
      } else if (kind == "oom") {
        config.inject.kind = ec::crash::FaultPlan::Kind::Oom;
      } else if (kind == "hang") {
        config.inject.kind = ec::crash::FaultPlan::Kind::Hang;
      } else {
        throw std::runtime_error(
            "--inject kind must be segv|wild-write|oom|hang");
      }
      std::size_t used = 0;
      const std::string idx = inject.substr(colon + 1);
      config.inject.accessIndex = std::stoull(idx, &used);
      if (used != idx.size() || config.inject.accessIndex == 0) {
        throw std::runtime_error("--inject access index must be a positive "
                                 "integer");
      }
    }

    ec::crash::installStopSignalHandlers();

    const std::string tracePath = cli.getString("trace-out");
    if (!tracePath.empty()) {
      auto& sink = ec::telemetry::TraceSink::instance();
      sink.setCommonField("app", entry.name);
      sink.openFile(tracePath);
    }

    std::cout << "app: " << config.appLabel << "  plan: "
              << ec::crash::formatPlanSpec(config.plan, probe) << "  mode: " << mode
              << "  tests: " << config.numTests << '\n';
    const auto campaign = ec::crash::CampaignRunner(factory, config).run();
    ec::crash::writeCampaignSummary(campaign, std::cout);

    // Output files are replaced atomically (temp + fsync + rename), so an
    // interrupted or crashed nvct never leaves a truncated CSV/metrics file
    // where a previous good one stood.
    const std::string csvPath = cli.getString("csv-out");
    if (!csvPath.empty()) {
      std::ostringstream os;
      ec::crash::writeCampaignCsv(campaign, os);
      ec::crash::atomicWriteFile(csvPath, os.str());
      std::cout << "per-test CSV written to " << csvPath << '\n';
    }

    if (!tracePath.empty()) {
      ec::telemetry::TraceSink::instance().close();
      std::cout << "trace written to " << tracePath << '\n';
    }
    const std::string metricsPath = cli.getString("metrics-out");
    if (!metricsPath.empty()) {
      std::ostringstream os;
      std::string profileSection;
      if (!campaign.profile.empty()) {
        profileSection =
            "\"profile\": " + ec::crash::campaignProfileJson(campaign.profile);
      }
      ec::telemetry::MetricsRegistry::instance().writeJson(os, profileSection);
      ec::crash::atomicWriteFile(metricsPath, os.str());
      std::cout << "metrics snapshot written to " << metricsPath << '\n';
    }

    if (campaign.interrupted) {
      std::cout << "interrupted — resume with --resume "
                << (res.journalPath.empty() ? std::string("<journal>")
                                            : res.journalPath)
                << '\n';
      return kExitInterrupted;
    }
  } catch (const std::exception& e) {
    std::cerr << "nvct: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
