// Figure 8 — normalized execution time with and without EasyCrash on Intel
// Optane DC PMM (app-direct mode, modeled by its published latency and
// bandwidth characteristics).
#include <iostream>

#include "bench_common.hpp"
#include "easycrash/perfmodel/time_model.hpp"

namespace ec = easycrash;
using ec::bench::addCampaignOptions;
using ec::bench::printResult;
using ec::bench::workflowConfig;

static int benchMain(int argc, char** argv) {
  ec::CliParser cli("Figure 8: normalized time on Optane DC PMM");
  addCampaignOptions(cli, /*defaultTests=*/20);
  if (!cli.parse(argc, argv)) return 0;

  const ec::perfmodel::TimeModel model(ec::perfmodel::NvmProfile::optaneDcPmm());
  ec::Table table({"Benchmark", "Norm. time (EC)", "Norm. time (no EC, persist all)"});
  double sumEc = 0.0, sumAll = 0.0;
  int count = 0;
  for (const auto& entry : ec::bench::selectedApps(cli)) {
    if (entry.name == "ep" && cli.getString("apps") == "all") continue;
    auto config = workflowConfig(cli);
    config.validateFinal = false;
    const auto workflow = ec::core::runEasyCrashWorkflow(entry.factory, config);

    const auto goldenWith = [&](const ec::runtime::PersistencePlan& plan) {
      ec::crash::CampaignConfig c;
      c.numTests = 0;
      c.plan = plan;
      c.goldenEvents = true;  // the time model reads the golden MemEvents
      return ec::crash::CampaignRunner(entry.factory, c).goldenRun();
    };
    const auto baseline = goldenWith({});
    std::vector<ec::runtime::ObjectId> allCandidates;
    for (const auto& object : baseline.objects) {
      if (object.candidate) allCandidates.push_back(object.id);
    }
    const double base = model.executionTimeNs(baseline.events);
    const double withEc =
        model.executionTimeNs(goldenWith(workflow.plan).events) / base;
    const double withoutEc =
        model.executionTimeNs(
            goldenWith(ec::runtime::PersistencePlan::atMainLoopEnd(allCandidates))
                .events) /
        base;
    table.row().cell(entry.name).cell(withEc, 3).cell(withoutEc, 3);
    sumEc += withEc;
    sumAll += withoutEc;
    ++count;
  }
  if (count > 0) {
    table.row().cell("average").cell(sumEc / count, 3).cell(sumAll / count, 3);
  }
  printResult(cli, table, "Figure 8: normalized execution time on Optane DC PMM");
  return 0;
}

int main(int argc, char** argv) {
  return ec::bench::runMain(argc, argv, benchMain);
}
