// Figure 5 — verification of the critical-data-object selection: application
// recomputability when persisting (1) no objects, (2) the Spearman-selected
// critical objects, (3) all candidate objects — the last two should be close
// (the paper reports < 3% difference), while both beat (1).
#include <iostream>

#include "bench_common.hpp"
#include "easycrash/core/object_selection.hpp"

namespace ec = easycrash;
using ec::bench::addCampaignOptions;
using ec::bench::campaignConfig;
using ec::bench::printResult;
using ec::bench::selectedApps;

static int benchMain(int argc, char** argv) {
  ec::CliParser cli("Figure 5: selection verification (none / selected / all)");
  addCampaignOptions(cli, /*defaultTests=*/40);
  if (!cli.parse(argc, argv)) return 0;

  ec::Table table({"Benchmark", "No DO persisted", "Selected DOs", "All candidate DOs",
                   "|selected - all|"});
  for (const auto& entry : selectedApps(cli)) {
    const auto base = campaignConfig(cli);
    const auto baseline = ec::crash::CampaignRunner(entry.factory, base).run();
    const auto selection = ec::core::selectCriticalObjects(baseline);

    std::vector<ec::runtime::ObjectId> allCandidates;
    for (const auto& object : baseline.golden.objects) {
      if (object.candidate) allCandidates.push_back(object.id);
    }

    const auto withPlan = [&](std::vector<ec::runtime::ObjectId> objects) {
      ec::crash::CampaignConfig config = base;
      config.seed = base.seed + 7;
      config.plan = ec::runtime::PersistencePlan::atMainLoopEnd(std::move(objects));
      return ec::crash::CampaignRunner(entry.factory, config).run().recomputability();
    };

    const double none = baseline.recomputability();
    const double selected =
        selection.critical.empty() ? none : withPlan(selection.critical);
    const double all = allCandidates.empty() ? none : withPlan(allCandidates);
    table.row()
        .cell(entry.name)
        .cellPercent(none)
        .cellPercent(selected)
        .cellPercent(all)
        .cellPercent(std::abs(selected - all));
  }
  printResult(cli, table, "Figure 5: recomputability under three persistence strategies");
  return 0;
}

int main(int argc, char** argv) {
  return ec::bench::runMain(argc, argv, benchMain);
}
