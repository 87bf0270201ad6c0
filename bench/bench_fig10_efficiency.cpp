// Figure 10 — system efficiency with and without EasyCrash at MTBF = 12 h
// for checkpoint costs T_chk in {32, 320, 3200} seconds, shown for the
// benchmark with the lowest recomputability (FT), the highest (SP), and the
// all-benchmark average.
//
// By default the R_EasyCrash values come from the command line (pre-set to
// this repository's measured results; see EXPERIMENTS.md). Pass --measure to
// re-derive them live from full EasyCrash workflows.
#include <iostream>

#include "bench_common.hpp"
#include "easycrash/sysmodel/efficiency.hpp"

namespace ec = easycrash;
using ec::bench::addCampaignOptions;
using ec::bench::printResult;
using ec::sysmodel::SystemParams;

static int benchMain(int argc, char** argv) {
  ec::CliParser cli("Figure 10: system efficiency with and without EasyCrash");
  addCampaignOptions(cli, /*defaultTests=*/60);
  cli.addDouble("r-low", 0.03, "R_EasyCrash of the lowest benchmark (FT)");
  cli.addDouble("r-high", 0.93, "R_EasyCrash of the highest benchmark (SP)");
  cli.addDouble("r-avg", 0.58, "average R_EasyCrash over all benchmarks");
  cli.addDouble("overhead", 0.02, "EasyCrash runtime overhead t_s in production");
  cli.addFlag("measure", "re-measure the R values with live workflows (slow)");
  if (!cli.parse(argc, argv)) return 0;

  double rLow = cli.getDouble("r-low");
  double rHigh = cli.getDouble("r-high");
  double rAvg = cli.getDouble("r-avg");
  if (cli.getFlag("measure")) {
    double sum = 0.0;
    int count = 0;
    for (const auto& entry : ec::bench::selectedApps(cli)) {
      if (entry.name == "ep") continue;
      auto config = ec::bench::workflowConfig(cli);
      const auto workflow = ec::core::runEasyCrashWorkflow(entry.factory, config);
      const double r = workflow.finalRecomputability();
      if (entry.name == "ft") rLow = r;
      if (entry.name == "sp") rHigh = r;
      sum += r;
      ++count;
      std::cout << "measured R(" << entry.name << ") = " << r << '\n';
    }
    if (count > 0) rAvg = sum / count;
  }

  const double overhead = cli.getDouble("overhead");
  ec::Table table({"T_chk", "FT w/o EC", "FT w/ EC", "SP w/o EC", "SP w/ EC",
                   "Avg w/o EC", "Avg w/ EC", "Avg improvement"});
  for (double tChk : {32.0, 320.0, 3200.0}) {
    SystemParams params;
    params.tChkSeconds = tChk;
    const double without = ec::sysmodel::efficiencyWithoutEasyCrash(params).efficiency;
    const double ftWith =
        ec::sysmodel::efficiencyWithEasyCrash(params, rLow, overhead).efficiency;
    const double spWith =
        ec::sysmodel::efficiencyWithEasyCrash(params, rHigh, overhead).efficiency;
    const double avgWith =
        ec::sysmodel::efficiencyWithEasyCrash(params, rAvg, overhead).efficiency;
    table.row()
        .cell(ec::formatDouble(tChk, 0) + " s")
        .cellPercent(without)
        .cellPercent(ftWith)
        .cellPercent(without)
        .cellPercent(spWith)
        .cellPercent(without)
        .cellPercent(avgWith)
        .cellPercent(avgWith - without);
  }
  printResult(cli, table, "Figure 10: system efficiency (MTBF = 12 h)");
  return 0;
}

int main(int argc, char** argv) {
  return ec::bench::runMain(argc, argv, benchMain);
}
