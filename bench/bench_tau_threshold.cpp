// Section 7 "Determination of recomputability threshold tau": the minimum
// R_EasyCrash for which EasyCrash beats plain checkpoint/restart, across
// system MTBF and checkpoint-cost design points, plus a Monte-Carlo
// cross-check of the closed-form efficiency model.
#include <iostream>

#include "bench_common.hpp"
#include "easycrash/common/cli.hpp"
#include "easycrash/common/table.hpp"
#include "easycrash/sysmodel/efficiency.hpp"

namespace ec = easycrash;
using ec::sysmodel::SystemParams;

static int benchMain(int argc, char** argv) {
  ec::CliParser cli("tau thresholds + Monte-Carlo cross-check of the model");
  cli.addDouble("overhead", 0.02, "EasyCrash runtime overhead t_s");
  cli.addFlag("csv", "emit CSV");
  if (!cli.parse(argc, argv)) return 0;
  const double overhead = cli.getDouble("overhead");

  ec::Table table({"MTBF", "T_chk", "tau", "eff w/o EC", "eff w/ EC (R=0.82)",
                   "MC w/ EC (R=0.82)"});
  for (double mtbf : {3.0, 6.0, 12.0, 24.0}) {
    for (double tChk : {32.0, 320.0, 3200.0}) {
      SystemParams params;
      params.mtbfHours = mtbf;
      params.tChkSeconds = tChk;
      const double tau = ec::sysmodel::recomputabilityThreshold(params, overhead);
      const double without =
          ec::sysmodel::efficiencyWithoutEasyCrash(params).efficiency;
      const double with =
          ec::sysmodel::efficiencyWithEasyCrash(params, 0.82, overhead).efficiency;
      const double mc =
          ec::sysmodel::simulateEfficiency(params, 0.82, overhead, 42, 0.1);
      table.row()
          .cell(ec::formatDouble(mtbf, 0) + " h")
          .cell(ec::formatDouble(tChk, 0) + " s")
          .cellPercent(tau)
          .cellPercent(without)
          .cellPercent(with)
          .cellPercent(mc);
    }
  }
  if (cli.getFlag("csv")) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout, "Recomputability threshold tau and model cross-check");
  }
  return 0;
}

int main(int argc, char** argv) {
  return ec::bench::runMain(argc, argv, benchMain);
}
