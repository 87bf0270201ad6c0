#include "easycrash/core/object_selection.hpp"

#include <cmath>

#include "easycrash/common/check.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/stats/spearman.hpp"

namespace easycrash::core {

ObjectSelectionResult selectCriticalObjects(const crash::CampaignResult& campaign,
                                            const ObjectSelectionCriteria& criteria) {
  EC_CHECK_MSG(!campaign.tests.empty(), "object selection needs crash tests");
  ObjectSelectionResult result;
  const crash::TrialTally tally = campaign.tally();
  const double recomputability = static_cast<double>(tally.all.responses[0]) /
                                 static_cast<double>(campaign.tests.size());

  // Outcome vector shared by all objects: 1 = successful recomputation (S1).
  std::vector<double> outcome;
  outcome.reserve(campaign.tests.size());
  for (const auto& test : campaign.tests) {
    outcome.push_back(test.response == crash::Response::S1 ? 1.0 : 0.0);
  }

  for (const auto& object : campaign.golden.objects) {
    if (!object.candidate) continue;
    result.candidateBytes += object.bytes;

    // The rank input counts a trial that recorded no rate for the object
    // as 0.
    std::vector<double> rates;
    rates.reserve(campaign.tests.size());
    for (const auto& test : campaign.tests) {
      const auto it = test.inconsistentRate.find(object.id);
      rates.push_back(it == test.inconsistentRate.end() ? 0.0 : it->second);
    }
    const auto tallied = tally.rates.find(object.id);
    const double meanRate =
        tallied == tally.rates.end() ? 0.0 : tallied->second.mean();

    ObjectCorrelation corr;
    corr.id = object.id;
    corr.name = object.name;
    corr.meanInconsistentRate = meanRate;

    const auto spearman = stats::spearman(rates, outcome);
    corr.rho = spearman.rho;
    corr.pValue = spearman.pValue;
    corr.degenerate = spearman.degenerate;

    const bool outcomeUninformative =
        recomputability <= criteria.lowOutcomeThreshold;
    // A near-constant inconsistency rate carries no rank information even
    // when it is large (e.g. kmeans' centroids are ~fully inconsistent at
    // every crash): when the correlation itself is inconclusive, fall back
    // to the magnitude rule for such objects. A significant negative
    // correlation always wins.
    const bool rateUninformative =
        stats::sampleStddev(rates) < criteria.rateVarianceFloor;
    const bool significantlyCritical =
        !corr.degenerate && corr.rho < 0.0 &&
        corr.pValue < criteria.pValueThreshold;
    const bool fallbackApplies =
        corr.degenerate || outcomeUninformative || rateUninformative;
    if (significantlyCritical) {
      corr.selected = true;
    } else if (fallbackApplies) {
      corr.selected = meanRate >= criteria.fallbackRateThreshold &&
                      recomputability < criteria.reliableRecomputability;
    } else {
      corr.selected = false;
    }
    if (corr.selected) {
      result.critical.push_back(object.id);
      result.criticalBytes += object.bytes;
    }
    result.correlations.push_back(corr);
  }
  return result;
}

}  // namespace easycrash::core
