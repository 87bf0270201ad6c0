// Ablation — cache-scale sensitivity: intrinsic recomputability under the
// default scaled hierarchy vs. a half-size and a double-size LLC. The
// paper's Section 4.1 invariant (footprint >> LLC) implies recomputability
// is driven by the *ratio* of dirty cache state to object size; this bench
// quantifies how sensitive the crash-test results are to that ratio.
#include <iostream>

#include "bench_common.hpp"

namespace ec = easycrash;
using ec::bench::addCampaignOptions;
using ec::bench::printResult;

namespace {

ec::memsim::CacheConfig scaledLlc(double factor) {
  auto config = ec::memsim::CacheConfig::scaledDefault();
  auto& llc = config.levels.back();
  llc.sizeBytes = static_cast<std::uint64_t>(llc.sizeBytes * factor);
  config.name = "llc-x" + ec::formatDouble(factor, 2);
  config.validate();
  return config;
}

}  // namespace

static int benchMain(int argc, char** argv) {
  ec::CliParser cli("Ablation: LLC-size sensitivity of intrinsic recomputability");
  addCampaignOptions(cli, /*defaultTests=*/30);
  if (!cli.parse(argc, argv)) return 0;

  ec::Table table(
      {"Benchmark", "LLC x0.5", "LLC x1 (default)", "LLC x2"});
  for (const auto& entry : ec::bench::selectedApps(cli)) {
    auto& row = table.row().cell(entry.name);
    for (double factor : {0.5, 1.0, 2.0}) {
      ec::crash::CampaignConfig config = ec::bench::campaignConfig(cli);
      config.cache = scaledLlc(factor);
      const auto campaign = ec::crash::CampaignRunner(entry.factory, config).run();
      row.cellPercent(campaign.recomputability());
    }
  }
  printResult(cli, table, "Ablation: intrinsic recomputability vs. LLC size");
  return 0;
}

int main(int argc, char** argv) {
  return ec::bench::runMain(argc, argv, benchMain);
}
