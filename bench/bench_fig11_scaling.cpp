// Figure 11 — system efficiency for CG with and without EasyCrash as the
// system scales from 100,000 to 200,000 and 400,000 nodes (MTBF 12 h -> 6 h
// -> 3 h), for T_chk = 32 s and T_chk = 3200 s.
#include <iostream>

#include "bench_common.hpp"
#include "easycrash/sysmodel/efficiency.hpp"

namespace ec = easycrash;
using ec::bench::addCampaignOptions;
using ec::bench::printResult;
using ec::sysmodel::SystemParams;

static int benchMain(int argc, char** argv) {
  ec::CliParser cli("Figure 11: system-efficiency scaling for CG");
  addCampaignOptions(cli, /*defaultTests=*/60);
  cli.addDouble("r-cg", 0.43, "R_EasyCrash of CG (see EXPERIMENTS.md)");
  cli.addDouble("overhead", 0.02, "EasyCrash runtime overhead t_s in production");
  cli.addFlag("measure", "re-measure R(CG) with a live workflow");
  if (!cli.parse(argc, argv)) return 0;

  double rCg = cli.getDouble("r-cg");
  if (cli.getFlag("measure")) {
    auto config = ec::bench::workflowConfig(cli);
    const auto workflow = ec::core::runEasyCrashWorkflow(
        ec::apps::findBenchmark("cg").factory, config);
    rCg = workflow.finalRecomputability();
    std::cout << "measured R(cg) = " << rCg << '\n';
  }

  const double overhead = cli.getDouble("overhead");
  ec::Table table({"Nodes", "MTBF", "T_chk=32s w/o EC", "T_chk=32s w/ EC",
                   "T_chk=3200s w/o EC", "T_chk=3200s w/ EC"});
  for (double scale : {1.0, 2.0, 4.0}) {
    SystemParams base;
    const SystemParams scaled = base.scaledToNodes(scale);
    auto& row = table.row()
                    .cell(ec::formatDouble(scale * 100000, 0))
                    .cell(ec::formatDouble(scaled.mtbfHours, 1) + " h");
    for (double tChk : {32.0, 3200.0}) {
      SystemParams params = scaled;
      params.tChkSeconds = tChk;
      row.cellPercent(ec::sysmodel::efficiencyWithoutEasyCrash(params).efficiency);
      row.cellPercent(
          ec::sysmodel::efficiencyWithEasyCrash(params, rCg, overhead).efficiency);
    }
  }
  printResult(cli, table, "Figure 11: CG system efficiency vs. system scale");
  return 0;
}

int main(int argc, char** argv) {
  return ec::bench::runMain(argc, argv, benchMain);
}
