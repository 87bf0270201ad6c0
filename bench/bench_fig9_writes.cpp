// Figure 9 — normalized number of NVM writes: the extra writes EasyCrash's
// selective flushing adds, versus a traditional checkpoint-into-NVM that
// copies (a) the critical objects or (b) all writable objects once per
// execution (the paper's conservative single-checkpoint assumption).
// Values are normalized by the total NVM writes of a plain run.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "easycrash/perfmodel/write_model.hpp"

namespace ec = easycrash;
using ec::bench::addCampaignOptions;
using ec::bench::printResult;
using ec::bench::workflowConfig;
using ec::perfmodel::CheckpointScope;

static int benchMain(int argc, char** argv) {
  ec::CliParser cli("Figure 9: normalized number of NVM writes");
  addCampaignOptions(cli, /*defaultTests=*/20);
  if (!cli.parse(argc, argv)) return 0;

  ec::Table table({"Benchmark", "EasyCrash extra writes", "C/R critical DOs",
                   "C/R all DOs", "EC reduction vs C/R(all)"});
  double sumEc = 0.0, sumCrCritical = 0.0, sumCrAll = 0.0, sumReduction = 0.0;
  int count = 0;
  for (const auto& entry : ec::bench::selectedApps(cli)) {
    if (entry.name == "ep" && cli.getString("apps") == "all") continue;
    auto config = workflowConfig(cli);
    config.validateFinal = false;
    const auto workflow = ec::core::runEasyCrashWorkflow(entry.factory, config);

    const auto baseline = ec::perfmodel::measureRunWrites(entry.factory, {});
    const auto withEc = ec::perfmodel::measureRunWrites(entry.factory, workflow.plan);
    const auto crCritical = ec::perfmodel::measureCheckpointWrites(
        entry.factory, CheckpointScope::CriticalObjects, workflow.objects.critical);
    const auto crAll = ec::perfmodel::measureCheckpointWrites(
        entry.factory, CheckpointScope::AllWritableObjects);

    const double base = static_cast<double>(baseline.totalNvmWrites);
    // Signed: flushing with CLFLUSHOPT invalidates lines and can *reduce*
    // natural write-backs, so the EC run may write less than the baseline.
    const double ecExtra = (static_cast<double>(withEc.totalNvmWrites) -
                            static_cast<double>(baseline.totalNvmWrites)) /
                           base;
    const double crCriticalExtra =
        static_cast<double>(crCritical.checkpointInducedWrites) / base;
    const double crAllExtra =
        static_cast<double>(crAll.checkpointInducedWrites) / base;
    const double reduction =
        crAllExtra > 0.0 ? 1.0 - std::max(0.0, ecExtra) / crAllExtra : 0.0;

    table.row()
        .cell(entry.name)
        .cellPercent(ecExtra)
        .cellPercent(crCriticalExtra)
        .cellPercent(crAllExtra)
        .cellPercent(reduction);
    sumEc += ecExtra;
    sumCrCritical += crCriticalExtra;
    sumCrAll += crAllExtra;
    sumReduction += reduction;
    ++count;
  }
  if (count > 0) {
    table.row()
        .cell("average")
        .cellPercent(sumEc / count)
        .cellPercent(sumCrCritical / count)
        .cellPercent(sumCrAll / count)
        .cellPercent(sumReduction / count);
  }
  printResult(cli, table,
              "Figure 9: extra NVM writes, normalized by a plain run's writes");
  return 0;
}

int main(int argc, char** argv) {
  return ec::bench::runMain(argc, argv, benchMain);
}
