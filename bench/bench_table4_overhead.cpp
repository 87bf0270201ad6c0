// Table 4 — normalized execution time: the cost of one persistence
// operation, the number of persistence operations, and the normalized
// execution time with EasyCrash, without EasyCrash's selection (persisting
// all candidates every main-loop iteration) and when chasing the best
// recomputability (persisting critical objects at every persist point).
#include <iostream>

#include "bench_common.hpp"
#include "easycrash/perfmodel/time_model.hpp"

namespace ec = easycrash;
using ec::bench::addCampaignOptions;
using ec::bench::printResult;
using ec::bench::workflowConfig;

static int benchMain(int argc, char** argv) {
  ec::CliParser cli("Table 4: normalized execution time of persistence");
  addCampaignOptions(cli, /*defaultTests=*/20);
  if (!cli.parse(argc, argv)) return 0;

  const ec::perfmodel::TimeModel model(ec::perfmodel::NvmProfile::dram());

  ec::Table table({"Benchmark", "Persist once", "#persist ops", "Norm. time (EC)",
                   "Norm. time (persist all, no selection)",
                   "Norm. time (best recomputability)"});
  double sumEc = 0.0, sumAll = 0.0, sumBest = 0.0;
  int count = 0;
  for (const auto& entry : ec::bench::selectedApps(cli)) {
    if (entry.name == "ep" && cli.getString("apps") == "all") continue;
    auto config = workflowConfig(cli);
    config.validateFinal = false;  // only plans are needed here
    const auto workflow = ec::core::runEasyCrashWorkflow(entry.factory, config);

    const auto goldenWith = [&](const ec::runtime::PersistencePlan& plan) {
      ec::crash::CampaignConfig c;
      c.numTests = 0;
      c.plan = plan;
      c.goldenEvents = true;  // the time model reads the golden MemEvents
      return ec::crash::CampaignRunner(entry.factory, c).goldenRun();
    };

    const auto baseline = goldenWith({});
    const double baseNs = model.executionTimeNs(baseline.events);

    std::vector<ec::runtime::ObjectId> allCandidates;
    for (const auto& object : baseline.objects) {
      if (object.candidate) allCandidates.push_back(object.id);
    }

    const auto ecGolden = goldenWith(workflow.plan);
    const auto allGolden =
        goldenWith(ec::runtime::PersistencePlan::atMainLoopEnd(allCandidates));
    const auto bestGolden = goldenWith(workflow.everywherePlan);

    const double ecNs = model.executionTimeNs(ecGolden.events);
    const double allNs = model.executionTimeNs(allGolden.events);
    const double bestNs = model.executionTimeNs(bestGolden.events);
    const double persistOnceUs =
        ecGolden.persistenceOps > 0
            ? model.persistenceTimeNs(ecGolden.events) /
                  static_cast<double>(ecGolden.persistenceOps) / 1000.0
            : 0.0;

    table.row()
        .cell(entry.name)
        .cell(ec::formatDouble(persistOnceUs, 1) + " us")
        .cell(static_cast<long long>(ecGolden.persistenceOps))
        .cell(ecNs / baseNs, 3)
        .cell(allNs / baseNs, 3)
        .cell(bestNs / baseNs, 3);
    sumEc += ecNs / baseNs;
    sumAll += allNs / baseNs;
    sumBest += bestNs / baseNs;
    ++count;
  }
  if (count > 0) {
    table.row()
        .cell("average")
        .cell("")
        .cell("")
        .cell(sumEc / count, 3)
        .cell(sumAll / count, 3)
        .cell(sumBest / count, 3);
  }
  printResult(cli, table, "Table 4: normalized execution time (DRAM time model)");
  return 0;
}

int main(int argc, char** argv) {
  return ec::bench::runMain(argc, argv, benchMain);
}
