// The full EasyCrash workflow on the MG benchmark (the paper's running
// example): baseline crash campaign, Spearman object selection, region
// selection via the Equation 1-5 model + knapsack, and a validated plan.
//
// Build & run:   ./build/examples/mg_workflow [--tests N]
#include <iostream>

#include "easycrash/apps/registry.hpp"
#include "easycrash/common/cli.hpp"
#include "easycrash/common/table.hpp"
#include "easycrash/core/workflow.hpp"
#include "easycrash/crash/report.hpp"

namespace ec = easycrash;

int main(int argc, char** argv) {
  ec::CliParser cli("EasyCrash workflow walk-through on MG");
  cli.addInt("tests", 80, "crash tests per campaign");
  cli.addString("app", "mg", "benchmark to analyse");
  if (!cli.parse(argc, argv)) return 0;

  const auto& entry = ec::apps::findBenchmark(cli.getString("app"));
  ec::core::WorkflowConfig config;
  config.testsPerCampaign = cli.getIntIn<int>("tests", 0);

  std::cout << "=== Step 1: baseline crash-test campaign (" << entry.name
            << ", " << config.testsPerCampaign << " tests) ===\n";
  const auto workflow = ec::core::runEasyCrashWorkflow(entry.factory, config);
  const auto counts = workflow.baseline.responseCounts();
  std::cout << "responses S1/S2/S3/S4: " << counts[0] << '/' << counts[1] << '/'
            << counts[2] << '/' << counts[3] << "  => recomputability "
            << ec::formatDouble(100 * workflow.baselineRecomputability(), 1)
            << "%\n\n";

  std::cout << "=== Step 2: critical data objects (Spearman, p < "
            << ec::formatDouble(config.objectCriteria.pValueThreshold, 2) << ") ===\n";
  ec::Table objects({"object", "rho", "p-value", "mean inconsistency", "critical?"});
  for (const auto& c : workflow.objects.correlations) {
    objects.row()
        .cell(c.name)
        .cell(c.degenerate ? std::string("n/a") : ec::formatDouble(c.rho, 3))
        .cell(c.degenerate ? std::string("n/a") : ec::formatDouble(c.pValue, 6))
        .cellPercent(c.meanInconsistentRate)
        .cell(c.selected ? "yes" : "no");
  }
  objects.print(std::cout);
  std::cout << '\n';

  std::cout << "=== Step 3: code regions (model + knapsack) ===\n";
  ec::Table regions({"persist point", "every N", "cost l_k", "predicted c_k^x",
                     "gain a_k*(c^x - c)"});
  for (const auto& choice : workflow.regions.chosen) {
    regions.row()
        .cell(choice.point == ec::runtime::kMainLoopEnd
                  ? std::string("main-loop end")
                  : ec::crash::regionName(choice.point))
        .cell(static_cast<long long>(choice.everyN))
        .cellPercent(choice.costFraction)
        .cellPercent(choice.predictedCk)
        .cellPercent(choice.gain);
  }
  regions.print(std::cout);
  std::cout << "predicted Y' = "
            << ec::formatDouble(100 * workflow.regions.predictedY, 1)
            << "% (base Y = " << ec::formatDouble(100 * workflow.regions.baseY, 1)
            << "%), meets tau: " << (workflow.regions.meetsTau ? "yes" : "no")
            << "\n\n";

  std::cout << "=== Step 4: production plan validation ===\n";
  if (workflow.validation) {
    std::cout << "measured recomputability under the plan: "
              << ec::formatDouble(100 * workflow.validation->recomputability(), 1)
              << "% (was "
              << ec::formatDouble(100 * workflow.baselineRecomputability(), 1)
              << "% without EasyCrash)\n";
  } else {
    std::cout << "EasyCrash disabled for this app (Equation-4 gate)\n";
  }
  return 0;
}
