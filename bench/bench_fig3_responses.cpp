// Figure 3 — application responses after crash and restart, without any
// EasyCrash persistence: S1 (success, no extra iterations), S2 (success with
// extra iterations), S3 (interruption) and S4 (verification fails).
#include <iostream>

#include "bench_common.hpp"

namespace ec = easycrash;
using ec::bench::addCampaignOptions;
using ec::bench::campaignConfig;
using ec::bench::printResult;
using ec::bench::selectedApps;

static int benchMain(int argc, char** argv) {
  ec::CliParser cli("Figure 3: application responses after crash and restart");
  addCampaignOptions(cli, /*defaultTests=*/60);
  if (!cli.parse(argc, argv)) return 0;

  ec::Table table({"Benchmark", "S1 (success)", "S2 (extra iters)",
                   "S3 (interruption)", "S4 (verify fails)", "tests"});
  double s1Sum = 0.0;
  int appCount = 0;
  for (const auto& entry : selectedApps(cli)) {
    const ec::crash::CampaignRunner runner(entry.factory, campaignConfig(cli));
    const auto campaign = runner.run();
    const auto counts = campaign.responseCounts();
    const double total = static_cast<double>(campaign.tests.size());
    table.row()
        .cell(entry.name)
        .cellPercent(counts[0] / total)
        .cellPercent(counts[1] / total)
        .cellPercent(counts[2] / total)
        .cellPercent(counts[3] / total)
        .cell(static_cast<long long>(campaign.tests.size()));
    s1Sum += counts[0] / total;
    ++appCount;
  }
  if (appCount > 0) {
    table.row().cell("average").cellPercent(s1Sum / appCount).cell("").cell("").cell(
        "").cell("");
  }
  printResult(cli, table,
              "Figure 3: responses after crash+restart (no persistence)");
  return 0;
}

int main(int argc, char** argv) {
  return ec::bench::runMain(argc, argv, benchMain);
}
