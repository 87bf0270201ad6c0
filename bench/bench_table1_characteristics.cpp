// Table 1 — benchmark information for crash experiments.
//
// Reproduces: description, number of code regions, read/write ratio, memory
// footprint, candidate and critical data-object sizes, average extra
// iterations needed to restart (the paper's restart overhead, with the
// segfault / verification-failure N/A cases), and the nominal iteration
// count of the original execution.
#include <iostream>

#include "bench_common.hpp"
#include "easycrash/core/object_selection.hpp"

namespace ec = easycrash;
using ec::bench::addCampaignOptions;
using ec::bench::campaignConfig;
using ec::bench::printResult;
using ec::bench::selectedApps;

static int benchMain(int argc, char** argv) {
  ec::CliParser cli("Table 1: benchmark characteristics for crash experiments");
  addCampaignOptions(cli, /*defaultTests=*/60);
  if (!cli.parse(argc, argv)) return 0;

  ec::Table table({"Benchmark", "Description", "#regions", "R/W", "Footprint",
                   "Candidate DO", "Critical DO", "Extra iter. to restart",
                   "Total iter."});

  for (const auto& entry : selectedApps(cli)) {
    auto config = campaignConfig(cli);
    config.goldenEvents = true;  // the R/W column reads the golden MemEvents
    const ec::crash::CampaignRunner runner(entry.factory, config);
    const auto campaign = runner.run();
    const auto selection = ec::core::selectCriticalObjects(campaign);
    const auto counts = campaign.responseCounts();

    // Restart-overhead column semantics follow the paper: segfault-dominated
    // apps are "N/A (segfault)", never-verifying apps are "N/A (the
    // verification fails)", otherwise the mean extra iterations of S2 runs.
    std::string restartOverhead;
    const int total = static_cast<int>(campaign.tests.size());
    if (counts[2] > total / 2) {
      restartOverhead = "N/A (segfault)";
    } else if (counts[0] + counts[1] == 0) {
      restartOverhead = "N/A (the verification fails)";
    } else if (counts[1] == 0) {
      restartOverhead = "0";
    } else {
      restartOverhead = ec::formatDouble(campaign.averageExtraIterations(), 1);
    }

    table.row()
        .cell(entry.name)
        .cell(entry.description)
        .cell(static_cast<long long>(campaign.golden.regionCount))
        .cell(static_cast<double>(campaign.golden.events.loads) /
                  static_cast<double>(campaign.golden.events.stores),
              1)
        .cell(ec::formatBytes(campaign.golden.footprintBytes))
        .cell(ec::formatBytes(selection.candidateBytes))
        .cell(ec::formatBytes(selection.criticalBytes))
        .cell(restartOverhead)
        .cell(static_cast<long long>(campaign.golden.finalIteration));
  }
  printResult(cli, table, "Table 1: benchmark information (scaled problems)");
  return 0;
}

int main(int argc, char** argv) {
  return ec::bench::runMain(argc, argv, benchMain);
}
