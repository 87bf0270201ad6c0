// Campaign reporting: serialize crash-test campaigns for post-mortem
// analysis outside the process (NVCT's dump-file role). Two formats:
//
// * CSV — one row per crash test (crash point, region path, per-object
//   inconsistency rates, response class), suitable for pandas/R;
// * a human-readable summary — golden stats, the S1-S4 breakdown, and the
//   per-region / per-object aggregates the EasyCrash workflow consumes.
#pragma once

#include <iosfwd>
#include <string>

#include "easycrash/crash/campaign.hpp"

namespace easycrash::crash {

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
