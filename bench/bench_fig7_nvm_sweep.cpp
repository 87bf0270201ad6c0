// Figure 7 — normalized execution time with and without EasyCrash under
// Quartz-style NVM emulation: 4x and 8x DRAM latency, 1/6 and 1/8 DRAM
// bandwidth. "Without EasyCrash" persists all candidate objects at every
// main-loop iteration (no selection), as in the paper.
#include <iostream>

#include "bench_common.hpp"
#include "easycrash/perfmodel/time_model.hpp"

namespace ec = easycrash;
using ec::bench::addCampaignOptions;
using ec::bench::printResult;
using ec::bench::workflowConfig;
using ec::perfmodel::NvmProfile;
using ec::perfmodel::TimeModel;

static int benchMain(int argc, char** argv) {
  ec::CliParser cli("Figure 7: normalized time under NVM latency/bandwidth emulation");
  addCampaignOptions(cli, /*defaultTests=*/20);
  if (!cli.parse(argc, argv)) return 0;

  const std::vector<NvmProfile> profiles = {
      NvmProfile::latencyScaled(4.0), NvmProfile::latencyScaled(8.0),
      NvmProfile::bandwidthScaled(6.0), NvmProfile::bandwidthScaled(8.0)};

  std::vector<std::string> header{"Benchmark"};
  for (const auto& p : profiles) {
    header.push_back("EC @ " + p.name);
    header.push_back("no-EC @ " + p.name);
  }
  ec::Table table(header);
  std::vector<double> sums(profiles.size() * 2, 0.0);
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
    const auto ecGolden = goldenWith(workflow.plan);
    const auto allGolden =
        goldenWith(ec::runtime::PersistencePlan::atMainLoopEnd(allCandidates));

    auto& row = table.row().cell(entry.name);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      const TimeModel model(profiles[i]);
      const double base = model.executionTimeNs(baseline.events);
      const double withEc = model.executionTimeNs(ecGolden.events) / base;
      const double withoutEc = model.executionTimeNs(allGolden.events) / base;
      row.cell(withEc, 3).cell(withoutEc, 3);
      sums[2 * i] += withEc;
      sums[2 * i + 1] += withoutEc;
    }
    ++count;
  }
  if (count > 0) {
    auto& row = table.row().cell("average");
    for (double s : sums) row.cell(s / count, 3);
  }
  printResult(cli, table, "Figure 7: normalized execution time under NVM emulation");
  return 0;
}

int main(int argc, char** argv) {
  return ec::bench::runMain(argc, argv, benchMain);
}
