// Shared plumbing for the table/figure bench binaries: one main wrapper, a
// standard CLI (test counts, seed, app filter, CSV output), app iteration,
// and common plan constructions.
#pragma once

#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "easycrash/apps/registry.hpp"
#include "easycrash/common/cli.hpp"
#include "easycrash/common/table.hpp"
#include "easycrash/core/workflow.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/telemetry/metrics.hpp"

namespace easycrash::bench {

/// The main of every table/figure bench binary: runs `body`, and turns an
/// exception (an unknown option, a malformed value, an unwritable output)
/// into "<binary>: <message>" on stderr and exit status 1, as nvct does.
inline int runMain(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << std::filesystem::path(argv[0]).filename().string() << ": " << e.what()
              << '\n';
    return 1;
  }
}

/// Standard options shared by every campaign-driven bench binary.
inline void addCampaignOptions(CliParser& cli, int defaultTests = 120) {
  cli.addInt("tests", defaultTests, "crash tests per campaign");
  cli.addInt("seed", 1, "master seed");
  cli.addString("apps", "all", "comma-separated benchmark filter or 'all'");
  cli.addFlag("csv", "emit CSV instead of an aligned table");
  cli.addDouble("ts", 0.35,
                "runtime-overhead budget t_s (paper: 0.03 at Class-C scale; the"
                " scaled-down problems compress work-per-persist ~10x, see"
                " DESIGN.md and bench_ablation_ts)");
  cli.addString("metrics-out", "",
                "also write the final telemetry metrics snapshot (JSON) — "
                "counter provenance for the BENCH_*.json entry");
}

/// Dump the metrics registry next to the bench result when --metrics-out was
/// given, so every recorded figure carries the MemEvents counter totals that
/// produced it.
inline void maybeWriteMetrics(const CliParser& cli) {
  const std::string path = cli.getString("metrics-out");
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  telemetry::MetricsRegistry::instance().writeJson(os);
  std::cerr << "metrics snapshot written to " << path << '\n';
}

[[nodiscard]] inline std::vector<apps::BenchmarkEntry> selectedApps(
    const CliParser& cli) {
  const std::string filter = cli.getString("apps");
  std::vector<apps::BenchmarkEntry> out;
  for (const auto& entry : apps::allBenchmarks()) {
    if (filter == "all" || filter.find(entry.name) != std::string::npos) {
      out.push_back(entry);
    }
  }
  return out;
}

[[nodiscard]] inline crash::CampaignConfig campaignConfig(const CliParser& cli) {
  crash::CampaignConfig config;
  config.numTests = cli.getIntIn<int>("tests", 0);
  config.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
  config.threads = 0;  // one lane per core
  return config;
}

[[nodiscard]] inline core::WorkflowConfig workflowConfig(const CliParser& cli) {
  core::WorkflowConfig config;
  config.testsPerCampaign = cli.getIntIn<int>("tests", 0);
  config.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
  config.regionConfig.ts = cli.getDouble("ts");
  return config;
}

inline void printResult(const CliParser& cli, const Table& table,
                        const std::string& title) {
  if (cli.getFlag("csv")) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout, title);
  }
  maybeWriteMetrics(cli);
}

/// Plan that persists `objects` once per activation of every region (the
/// paper's Figure 4(b) style "persist at region Rk" configuration uses a
/// single-region variant of this).
[[nodiscard]] inline runtime::PersistencePlan atRegionEndPlan(
    const crash::GoldenStats& golden, runtime::PointId region,
    std::vector<runtime::ObjectId> objects) {
  runtime::PersistencePlan plan;
  runtime::PersistDirective directive;
  directive.objects = std::move(objects);
  const auto endsIt = golden.regionIterationEnds.find(region);
  const auto mainIt = golden.regionIterationEnds.find(runtime::kMainLoopEnd);
  const double mainIters =
      mainIt != golden.regionIterationEnds.end() ? double(mainIt->second) : 1.0;
  const double ends =
      endsIt != golden.regionIterationEnds.end() ? double(endsIt->second) : 1.0;
  directive.everyN = static_cast<std::uint32_t>(
      std::max(1.0, ends / std::max(1.0, mainIters)));
  plan.points[region] = std::move(directive);
  return plan;
}

}  // namespace easycrash::bench
