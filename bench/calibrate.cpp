// Calibration harness (development tool, also a useful smoke check):
// per benchmark, print the golden-run characteristics and — optionally — a
// quick crash campaign without any persistence, so app constants can be
// tuned against the paper's Table 1 / Figure 3 shapes.
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "easycrash/apps/registry.hpp"
#include "easycrash/common/cli.hpp"
#include "easycrash/common/table.hpp"
#include "easycrash/crash/campaign.hpp"

namespace ec = easycrash;

static int benchMain(int argc, char** argv) {
  ec::CliParser cli("Golden-run calibration and quick crash campaign");
  cli.addString("app", "all", "benchmark name or 'all'");
  cli.addInt("tests", 0, "crash tests per app (0 = golden run only)");
  cli.addInt("seed", 1, "campaign master seed");
  if (!cli.parse(argc, argv)) return 0;

  ec::Table table({"app", "iters", "window-acc", "R/W", "footprint", "cand-bytes",
                   "regions", "verify-metric", "golden-ms", "S1", "S2", "S3", "S4",
                   "recomp", "avg-extra"});

  for (const auto& entry : ec::apps::allBenchmarks()) {
    if (cli.getString("app") != "all" && cli.getString("app") != entry.name) continue;
    ec::crash::CampaignConfig config;
    config.numTests = cli.getIntIn<int>("tests", 0);
    config.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    config.goldenEvents = true;  // the R/W column reads the golden MemEvents
    ec::crash::CampaignRunner runner(entry.factory, config);

    const auto start = std::chrono::steady_clock::now();
    try {
      if (config.numTests == 0) {
        const auto golden = runner.goldenRun();
        const auto ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        table.row()
            .cell(entry.name)
            .cell(static_cast<long long>(golden.finalIteration))
            .cell(static_cast<unsigned long long>(golden.windowAccesses))
            .cell(static_cast<double>(golden.events.loads) /
                      static_cast<double>(golden.events.stores),
                  2)
            .cell(ec::formatBytes(golden.footprintBytes))
            .cell(ec::formatBytes(golden.candidateBytes))
            .cell(static_cast<long long>(golden.regionCount))
            .cell(golden.verifyMetric, 10)
            .cell(ms, 1)
            .cell("-").cell("-").cell("-").cell("-").cell("-").cell("-");
      } else {
        const auto result = runner.run();
        const auto ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        const auto counts = result.responseCounts();
        table.row()
            .cell(entry.name)
            .cell(static_cast<long long>(result.golden.finalIteration))
            .cell(static_cast<unsigned long long>(result.golden.windowAccesses))
            .cell(static_cast<double>(result.golden.events.loads) /
                      static_cast<double>(result.golden.events.stores),
                  2)
            .cell(ec::formatBytes(result.golden.footprintBytes))
            .cell(ec::formatBytes(result.golden.candidateBytes))
            .cell(static_cast<long long>(result.golden.regionCount))
            .cell(result.golden.verifyMetric, 10)
            .cell(ms, 1)
            .cell(static_cast<long long>(counts[0]))
            .cell(static_cast<long long>(counts[1]))
            .cell(static_cast<long long>(counts[2]))
            .cell(static_cast<long long>(counts[3]))
            .cellPercent(result.recomputability())
            .cell(result.averageExtraIterations(), 1);
      }
    } catch (const std::exception& e) {
      table.row().cell(entry.name).cell(std::string("ERROR: ") + e.what());
    }
  }
  table.print(std::cout, "Calibration (no persistence plan)");
  return 0;
}

int main(int argc, char** argv) {
  return ec::bench::runMain(argc, argv, benchMain);
}
