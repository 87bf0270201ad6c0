// Post-run campaign analysis (`nvct report`, docs/OBSERVABILITY.md).
//
// Joins a campaign's journal with (optionally) its JSONL trace and metrics
// snapshot into one deterministic markdown report: the Table-1-style
// per-region outcome breakdown, phase-latency percentiles from the
// phase_end spans, the per-object inconsistency summary, and an ASCII
// access/wear heatmap from the flight recorder's profile section.
//
// Determinism is a contract: the output is byte-identical for identical
// inputs — no timestamps, sorted iteration orders, fixed float formatting.
// Finished journals are canonical (compact-on-close), so two campaigns that
// decided the same trials render byte-identical reports regardless of
// --threads or --isolation.
#pragma once

#include <string>

#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/resilience.hpp"

namespace easycrash::crash {

/// Render the markdown report of a read journal, joined with the
/// optional JSONL trace (phase latencies; "" = none) and metrics snapshot
/// (access/wear heatmap; "" = none). Throws std::runtime_error when an
/// optional input is given but cannot be read or is malformed. `nvct
/// report` passes readJournal's replay of its one journal.
[[nodiscard]] std::string renderFlightReport(const JournalReplay& journal,
                                             const std::string& tracePath,
                                             const std::string& metricsPath);

/// The campaign profile as a compact JSON value — the "profile" section
/// nvct splices into --metrics-out (MetricsRegistry::writeJson's
/// extraSection) and renderFlightReport reads back.
[[nodiscard]] std::string campaignProfileJson(const CampaignProfile& profile);

}  // namespace easycrash::crash
