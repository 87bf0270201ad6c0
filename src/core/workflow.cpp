#include "easycrash/core/workflow.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "easycrash/common/check.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/perfmodel/time_model.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "easycrash/telemetry/phase_span.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash::core {

using crash::CampaignConfig;
using crash::CampaignRunner;
using runtime::kMainLoopEnd;
using runtime::PersistDirective;
using runtime::PersistencePlan;
using runtime::PointId;

namespace {

/// One workflow step as a telemetry::PhaseSpan over the workflow.phase_us
/// histogram, so a trace shows where the four-step pipeline (paper §5.3)
/// spends its time.
class PhaseSpan : public telemetry::PhaseSpan {
 public:
  explicit PhaseSpan(const char* name)
      : telemetry::PhaseSpan(
            name, telemetry::MetricsRegistry::instance().histogram(
                      "workflow.phase_us",
                      telemetry::Histogram::exponentialBounds(100.0, 4.0, 14))) {}
};

/// The workflow-level resilience config specialised for one campaign phase:
/// journal/resume base paths get a per-phase suffix, and resume is only
/// attempted when the phase's journal already exists (earlier interruptions
/// never journal later phases).
crash::ResilienceConfig phaseResilience(const crash::ResilienceConfig& base,
                                        const char* phase) {
  crash::ResilienceConfig out = base;
  if (!out.journalPath.empty()) out.journalPath += std::string(".") + phase;
  if (!out.resumePath.empty()) {
    out.resumePath += std::string(".") + phase;
    if (!std::ifstream(out.resumePath).good()) out.resumePath.clear();
  }
  return out;
}

}  // namespace

PersistencePlan buildEverywherePlan(const crash::GoldenStats& golden,
                                    const std::vector<runtime::ObjectId>& objects,
                                    int maxFlushesPerActivation) {
  EC_CHECK(maxFlushesPerActivation >= 1);
  PersistencePlan plan;
  const auto mainIters = static_cast<double>(
      golden.regionIterationEnds.count(kMainLoopEnd)
          ? golden.regionIterationEnds.at(kMainLoopEnd)
          : 1);
  for (const auto& [point, ends] : golden.regionIterationEnds) {
    PersistDirective directive;
    directive.objects = objects;
    if (point == kMainLoopEnd) {
      directive.everyN = 1;
    } else {
      const double perActivation = static_cast<double>(ends) / std::max(1.0, mainIters);
      directive.everyN = static_cast<std::uint32_t>(std::max(
          1.0, std::ceil(perActivation / maxFlushesPerActivation)));
    }
    plan.points[point] = std::move(directive);
  }
  return plan;
}

WorkflowResult runEasyCrashWorkflow(const runtime::AppFactory& factory,
                                    const WorkflowConfig& config) {
  WorkflowResult result;

  // ---- Step 1: baseline campaign (no persistence). ------------------------
  CampaignConfig base;
  base.numTests = config.testsPerCampaign;
  base.seed = config.seed;
  base.cache = config.cache;
  base.resilience = config.resilience;
  base.threads = 0;  // one lane per core
  {
    PhaseSpan phase("baseline_campaign");
    CampaignConfig baseline = base;
    // The Equation-5 time model below consumes golden MemEvents from the
    // baseline and persist-everywhere campaigns, so those two simulate their
    // golden runs' caches; the validation campaign's golden stays direct.
    baseline.goldenEvents = true;
    baseline.resilience = phaseResilience(config.resilience, "baseline");
    result.baseline = CampaignRunner(factory, baseline).run();
  }
  if (result.baseline.interrupted || crash::stopRequested()) {
    result.interrupted = true;
    return result;
  }

  // ---- Step 2: critical data objects. --------------------------------------
  {
    PhaseSpan phase("object_selection");
    result.objects = selectCriticalObjects(result.baseline, config.objectCriteria);
  }
  if (result.objects.critical.empty()) {
    // Nothing worth persisting: production plan stays empty (the paper's
    // "EasyCrash cannot bring benefit" case, e.g. EP).
    return result;
  }

  // ---- Step 3: campaign persisting everywhere, then the knapsack. ----------
  result.everywherePlan = buildEverywherePlan(
      result.baseline.golden, result.objects.critical, config.maxFlushesPerActivation);
  CampaignConfig everywhere = base;
  everywhere.seed = config.seed + 1;
  everywhere.plan = result.everywherePlan;
  everywhere.goldenEvents = true;
  everywhere.resilience = phaseResilience(config.resilience, "everywhere");
  {
    PhaseSpan phase("everywhere_campaign");
    result.everywhere = CampaignRunner(factory, everywhere).run();
  }
  if (result.everywhere.interrupted || crash::stopRequested()) {
    result.interrupted = true;
    return result;
  }

  // Model inputs: a_k and c_k from the baseline, c_k^max extrapolated from
  // the persist-everywhere campaign via Equation 5.
  const auto cBase = result.baseline.regionRecomputability();
  const auto cMeasured = result.everywhere.regionRecomputability();
  std::vector<RegionModelInput> inputs;
  for (const auto& [point, share] : result.baseline.golden.regionTimeShare) {
    RegionModelInput input;
    input.point = point;
    input.timeShare = share;
    input.baseRecomputability = cBase.count(point) ? cBase.at(point) : 0.0;
    const double measured = cMeasured.count(point)
                                ? cMeasured.at(point)
                                : result.everywhere.recomputability();
    const auto planIt = result.everywherePlan.points.find(point);
    const std::uint32_t usedEveryN =
        planIt != result.everywherePlan.points.end() ? planIt->second.everyN : 1;
    input.maxRecomputability = extrapolateMaxRecomputability(
        input.baseRecomputability, measured, usedEveryN);
    input.iterationEnds = result.baseline.golden.regionIterationEnds.count(point)
                              ? result.baseline.golden.regionIterationEnds.at(point)
                              : 0;
    if (input.iterationEnds > 0) inputs.push_back(input);
  }
  // The main-loop end is also a persist point even when all accesses are
  // attributed to inner regions.
  if (result.baseline.golden.regionTimeShare.count(kMainLoopEnd) == 0 &&
      result.baseline.golden.regionIterationEnds.count(kMainLoopEnd)) {
    RegionModelInput input;
    input.point = kMainLoopEnd;
    input.timeShare = 0.0;
    input.baseRecomputability = result.baseline.recomputability();
    const double measured = result.everywhere.recomputability();
    input.maxRecomputability = std::clamp(measured, input.baseRecomputability, 1.0);
    input.iterationEnds = result.baseline.golden.regionIterationEnds.at(kMainLoopEnd);
    inputs.push_back(input);
  }

  // Flush-cost estimate per persistence operation at each point, measured
  // from the persist-everywhere campaign's actual flush mix (dirty vs. clean
  // vs. non-resident) under the DRAM time model.
  const perfmodel::TimeModel model(perfmodel::NvmProfile::dram());
  const double baseExecNs = model.executionTimeNs(result.baseline.golden.events);
  const double persistNs = model.persistenceTimeNs(result.everywhere.golden.events);
  const double opsTotal =
      std::max<std::uint64_t>(1, result.everywhere.golden.persistenceOps);
  const double flushOnce = persistNs / static_cast<double>(opsTotal);
  std::map<PointId, double> flushOnceNs;
  for (const auto& input : inputs) flushOnceNs[input.point] = flushOnce;

  {
    PhaseSpan phase("region_selection");
    result.regions = selectRegions(inputs, flushOnceNs, baseExecNs, config.regionConfig);
  }

  // ---- Production plan. -----------------------------------------------------
  for (const auto& choice : result.regions.chosen) {
    PersistDirective directive;
    directive.objects = result.objects.critical;
    directive.everyN = choice.everyN;
    result.plan.points[choice.point] = std::move(directive);
  }

  // The paper's Equation-4 gate: when the predicted recomputability cannot
  // clear tau, EasyCrash is not enabled for this application.
  if (!result.regions.meetsTau) {
    result.plan = PersistencePlan{};
    return result;
  }

  // ---- Step 4: validation campaign under the production plan. ---------------
  if (config.validateFinal && !result.plan.empty()) {
    PhaseSpan phase("validation_campaign");
    CampaignConfig validation = base;
    validation.seed = config.seed + 2;
    validation.plan = result.plan;
    validation.resilience = phaseResilience(config.resilience, "validation");
    result.validation = CampaignRunner(factory, validation).run();
    result.interrupted = result.validation->interrupted;
  }
  return result;
}

}  // namespace easycrash::core
