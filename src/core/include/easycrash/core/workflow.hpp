// The EasyCrash workflow (paper §5.3):
//
//   Step 1  Run a crash-test campaign without persistence, collecting
//           per-object inconsistency rates and recomputation outcomes.
//   Step 2  Select critical data objects by Spearman correlation.
//   Step 3  Run a second campaign that persists the critical objects at
//           every persist point (bounded frequency, Equation-5 extrapolated
//           to c_k^max), then solve the knapsack for regions/frequencies.
//   Step 4  Production: run with the selected plan (validated here with a
//           third campaign when requested).
#pragma once

#include <cstdint>
#include <optional>

#include "easycrash/core/object_selection.hpp"
#include "easycrash/core/region_selection.hpp"
#include "easycrash/crash/campaign.hpp"

namespace easycrash::core {

struct WorkflowConfig {
  int testsPerCampaign = 150;
  std::uint64_t seed = 1;
  memsim::CacheConfig cache = memsim::CacheConfig::scaledDefault();
  ObjectSelectionCriteria objectCriteria;
  RegionSelectionConfig regionConfig;
  /// Bound on flushes per region activation in the step-3 campaign (keeps
  /// simulation cost sane; Equation 5 extrapolates back to c^max).
  int maxFlushesPerActivation = 2;
  /// Run a final validation campaign under the chosen plan (step 4).
  bool validateFinal = true;
  /// Fault tolerance applied to every campaign the workflow runs. The
  /// journal/resume paths are used as a base: each campaign phase appends
  /// its own suffix (`<path>.baseline`, `.everywhere`, `.validation`), and
  /// resume skips phases whose journal file does not exist yet.
  crash::ResilienceConfig resilience;
};

struct WorkflowResult {
  crash::CampaignResult baseline;          ///< step 1
  ObjectSelectionResult objects;           ///< step 2
  runtime::PersistencePlan everywherePlan;  ///< step 3 campaign's plan
  crash::CampaignResult everywhere;        ///< step 3 measurement campaign
  RegionSelectionResult regions;           ///< step 3 decision
  runtime::PersistencePlan plan;           ///< the production plan
  std::optional<crash::CampaignResult> validation;  ///< step 4
  /// A stop request (SIGINT/SIGTERM) landed mid-pipeline: later phases were
  /// skipped and the populated results may themselves be partial.
  bool interrupted = false;

  [[nodiscard]] double baselineRecomputability() const {
    return baseline.recomputability();
  }
  [[nodiscard]] double finalRecomputability() const {
    return validation ? validation->recomputability() : regions.predictedY;
  }
};

/// Execute the full workflow for one application.
[[nodiscard]] WorkflowResult runEasyCrashWorkflow(const runtime::AppFactory& factory,
                                                  const WorkflowConfig& config = {});

/// Build the step-3 "persist everywhere" plan for an application: the given
/// objects at every region and the main-loop end, with per-region frequency
/// bounded to `maxFlushesPerActivation` flushes per activation.
[[nodiscard]] runtime::PersistencePlan buildEverywherePlan(
    const crash::GoldenStats& golden, const std::vector<runtime::ObjectId>& objects,
    int maxFlushesPerActivation);

}  // namespace easycrash::core
