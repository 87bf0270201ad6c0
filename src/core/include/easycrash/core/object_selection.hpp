// Critical-data-object selection (paper §5.1).
//
// For each candidate data object, correlate its per-crash-test inconsistency
// rate with the recomputation outcome using Spearman's rank correlation. An
// object is critical when the correlation is negative (more inconsistency
// hurts) and statistically significant (p below
// ObjectSelectionCriteria::pValueThreshold: 0.05 by default, the paper's
// 0.01 at its 1000-2000 tests per campaign).
//
// Degenerate cases the paper does not spell out are handled conservatively:
// when every test has the same outcome (e.g., recomputability ~0 apps) or an
// object's inconsistency rate is constant, correlation is undefined — such
// objects are selected whenever their mean inconsistency is substantial and
// the application is not already recomputing reliably.
#pragma once

#include <string>
#include <vector>

#include "easycrash/crash/campaign.hpp"

namespace easycrash::core {

struct ObjectSelectionCriteria {
  /// Significance cut-off. The paper uses 0.01 with 1000-2000-test
  /// campaigns; the default here is loosened to match this repository's
  /// smaller default campaigns (pass 0.01 with --tests >= 1000).
  double pValueThreshold = 0.05;
  /// Fallback for degenerate correlations: select when the object's mean
  /// inconsistency rate is at least this and recomputability is below
  /// `reliableRecomputability`.
  double fallbackRateThreshold = 0.02;
  double reliableRecomputability = 0.95;
  /// Below this recomputability the outcome vector carries almost no
  /// information (e.g. LU/EP-like apps with ~0 successes): fall back to the
  /// mean-inconsistency rule for every candidate.
  double lowOutcomeThreshold = 0.05;
  /// Objects whose inconsistency rate barely varies across crash tests give
  /// Spearman nothing to rank; below this standard deviation the magnitude
  /// fallback applies (kmeans' centroids are the canonical case).
  double rateVarianceFloor = 0.05;
};

struct ObjectCorrelation {
  runtime::ObjectId id = 0;
  std::string name;
  double rho = 0.0;
  double pValue = 1.0;
  bool degenerate = false;
  double meanInconsistentRate = 0.0;
  bool selected = false;
};

struct ObjectSelectionResult {
  std::vector<ObjectCorrelation> correlations;  ///< one per candidate
  std::vector<runtime::ObjectId> critical;      ///< the selected subset
  std::uint64_t criticalBytes = 0;
  std::uint64_t candidateBytes = 0;
};

/// Step 2 of the EasyCrash workflow: analyse a no-persistence campaign.
[[nodiscard]] ObjectSelectionResult selectCriticalObjects(
    const crash::CampaignResult& campaign,
    const ObjectSelectionCriteria& criteria = {});

}  // namespace easycrash::core
