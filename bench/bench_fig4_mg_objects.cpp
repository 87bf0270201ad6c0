// Figure 4 — MG's recomputability when (a) persisting different data
// objects at the end of each main-loop iteration, and (b) persisting u at
// the end of different code regions.
//
// The paper's observations 2 and 3: the choice of object matters (u helps,
// r and the loop index barely do), and the choice of region matters (one
// region dominates: the one right after u's last write of the cycle).
#include <iostream>

#include "bench_common.hpp"
#include "easycrash/common/check.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/runtime/runtime.hpp"

namespace ec = easycrash;
using ec::bench::addCampaignOptions;
using ec::bench::campaignConfig;
using ec::bench::printResult;

namespace {

double recomputabilityUnderPlan(const ec::runtime::AppFactory& factory,
                                const ec::crash::CampaignConfig& base,
                                ec::runtime::PersistencePlan plan) {
  ec::crash::CampaignConfig config = base;
  config.plan = std::move(plan);
  return ec::crash::CampaignRunner(factory, config).run().recomputability();
}

}  // namespace

static int benchMain(int argc, char** argv) {
  ec::CliParser cli("Figure 4: MG recomputability by persisted object / region");
  addCampaignOptions(cli, /*defaultTests=*/50);
  if (!cli.parse(argc, argv)) return 0;

  const auto& mg = ec::apps::findBenchmark("mg");
  const auto base = campaignConfig(cli);

  // Discover MG's object ids from a setup-only runtime.
  ec::runtime::Runtime rt(base.cache);
  auto probe = mg.factory();
  probe->setup(rt);
  const auto uId = rt.findObject("u");
  const auto rId = rt.findObject("r");
  EC_CHECK(uId && rId);

  // (a) persist one object at the end of each main-loop iteration.
  ec::Table objectTable({"Persisted object", "Recomputability"});
  objectTable.row().cell("none").cellPercent(
      recomputabilityUnderPlan(mg.factory, base, {}));
  // The loop index is always persisted by the runtime (paper footnote 3), so
  // "index" is the same configuration as "none" plus an explicit row.
  objectTable.row().cell("index (always persisted)").cellPercent(
      recomputabilityUnderPlan(mg.factory, base, {}));
  objectTable.row().cell("u").cellPercent(recomputabilityUnderPlan(
      mg.factory, base, ec::runtime::PersistencePlan::atMainLoopEnd({*uId})));
  objectTable.row().cell("r").cellPercent(recomputabilityUnderPlan(
      mg.factory, base, ec::runtime::PersistencePlan::atMainLoopEnd({*rId})));
  printResult(cli, objectTable,
              "Figure 4(a): MG recomputability persisting different objects");

  // (b) persist u at the end of each code region, one region at a time.
  const auto golden = ec::crash::CampaignRunner(mg.factory, base).goldenRun();
  ec::Table regionTable({"Persist u at", "Recomputability"});
  for (std::uint32_t region = 0; region < golden.regionCount; ++region) {
    const auto plan = ec::bench::atRegionEndPlan(
        golden, static_cast<ec::runtime::PointId>(region), {*uId});
    regionTable.row()
        .cell(ec::crash::regionName(static_cast<ec::runtime::PointId>(region)))
        .cellPercent(recomputabilityUnderPlan(mg.factory, base, plan));
  }
  regionTable.row().cell("main-loop end").cellPercent(recomputabilityUnderPlan(
      mg.factory, base, ec::runtime::PersistencePlan::atMainLoopEnd({*uId})));
  printResult(cli, regionTable,
              "Figure 4(b): MG recomputability persisting u at each region");
  return 0;
}

int main(int argc, char** argv) {
  return ec::bench::runMain(argc, argv, benchMain);
}
