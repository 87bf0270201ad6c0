// Campaign reporting: serialize crash-test campaigns for post-mortem
// analysis outside the process (NVCT's dump-file role). Two formats:
//
// * CSV — one row per crash test (crash point, region path, per-object
//   inconsistency rates, response class), suitable for pandas/R;
// * a human-readable summary — golden stats, the S1-S4 breakdown, and the
//   per-region / per-object aggregates the EasyCrash workflow consumes.
//
// TrialTally is the one place those aggregates are counted: the summary,
// `nvct report`, the workflow's c_k and object selection all read one,
// each with its own arithmetic and format.
#pragma once

#include <array>
#include <iosfwd>
#include <map>
#include <string>

#include "easycrash/crash/campaign.hpp"

namespace easycrash::crash {

/// Outcome statistics of a set of decided trials, built by add() over the
/// records in trial order (so every floating-point sum adds in that order).
/// It holds counts and sums, plus the one definition of an object's mean
/// rate; shares and formatting are each reader's own.
struct TrialTally {
  /// S1-S4 counts of some trials and their S2 extra-iteration sum.
  struct Outcomes {
    std::array<int, 4> responses{};
    long long s2ExtraIterations = 0;  ///< summed over S2 trials only

    void add(const CrashTestRecord& record);
    [[nodiscard]] int trials() const;
  };
  /// One object's inconsistency rates over the trials that recorded it.
  struct Rates {
    double sum = 0.0;
    double max = 0.0;
    int samples = 0;

    /// Mean over the trials that recorded the object.
    [[nodiscard]] double mean() const { return sum / samples; }
  };

  Outcomes all;
  std::map<runtime::PointId, Outcomes> byRegion;
  /// Keyed by formatRegionPath(record.regionPath).
  std::map<std::string, Outcomes> byRegionPath;
  std::map<runtime::ObjectId, Rates> rates;

  void add(const CrashTestRecord& record);
};

/// One CSV row per crash test. Object-rate columns are emitted in candidate
/// order with headers `rate_<objectName>`.
void writeCampaignCsv(const CampaignResult& campaign, std::ostream& os);

/// Human-readable post-mortem summary of a campaign.
void writeCampaignSummary(const CampaignResult& campaign, std::ostream& os);

/// A code region's name: "R<k>" for region k - 1, "main" for kMainLoopEnd.
[[nodiscard]] std::string regionName(runtime::PointId region);

/// Render a region path like "R2>R5" ("main" for the top level).
[[nodiscard]] std::string formatRegionPath(
    const std::vector<runtime::PointId>& path);

/// Parse a campaign CSV produced by writeCampaignCsv back into records
/// (golden stats are not round-tripped; object rates key by column index).
/// Throws std::runtime_error on malformed input.
[[nodiscard]] std::vector<CrashTestRecord> readCampaignCsv(std::istream& is);

}  // namespace easycrash::crash
