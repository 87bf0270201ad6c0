// Ablation — sensitivity of the region-selection outcome to the runtime
// overhead budget t_s (the paper studies t_s in {2%, 3%, 5%}; our scaled
// problems compress work-per-persist, so the sweep covers a wider range —
// see DESIGN.md). For each budget: the chosen plan's predicted cost, the
// predicted recomputability, and the measured recomputability.
#include <iostream>

#include "bench_common.hpp"

namespace ec = easycrash;
using ec::bench::addCampaignOptions;
using ec::bench::printResult;

static int benchMain(int argc, char** argv) {
  ec::CliParser cli("Ablation: t_s budget sensitivity");
  addCampaignOptions(cli, /*defaultTests=*/15);
  if (!cli.parse(argc, argv)) return 0;

  ec::Table table({"Benchmark", "t_s", "plan cost", "predicted Y'", "measured R",
                   "#points chosen"});
  for (const auto& entry : ec::bench::selectedApps(cli)) {
    if (entry.name == "ep" && cli.getString("apps") == "all") continue;
    for (double ts : {0.03, 0.12, 0.35}) {
      auto config = ec::bench::workflowConfig(cli);
      config.regionConfig.ts = ts;
      const auto workflow = ec::core::runEasyCrashWorkflow(entry.factory, config);
      table.row()
          .cell(entry.name)
          .cellPercent(ts)
          .cellPercent(workflow.regions.totalCostFraction)
          .cellPercent(workflow.regions.predictedY)
          .cellPercent(workflow.validation ? workflow.validation->recomputability()
                                           : workflow.baselineRecomputability())
          .cell(static_cast<long long>(workflow.regions.chosen.size()));
    }
  }
  printResult(cli, table, "Ablation: t_s sensitivity of region selection");
  return 0;
}

int main(int argc, char** argv) {
  return ec::bench::runMain(argc, argv, benchMain);
}
