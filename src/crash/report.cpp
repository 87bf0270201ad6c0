#include "easycrash/crash/report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "easycrash/common/check.hpp"

namespace easycrash::crash {

namespace {

std::vector<std::string> splitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(field);
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  fields.push_back(field);
  return fields;
}

}  // namespace

std::string regionName(runtime::PointId region) {
  if (region == runtime::kMainLoopEnd) return "main";
  // Appending, not "R" + std::to_string(...): GCC 12's -Wrestrict misfires
  // on that concatenation in optimized builds.
  std::string out = "R";
  out += std::to_string(region + 1);
  return out;
}

std::string formatRegionPath(const std::vector<runtime::PointId>& path) {
  if (path.empty()) return "main";
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i) out += '>';
    out += regionName(path[i]);
  }
  return out;
}

void TrialTally::Outcomes::add(const CrashTestRecord& record) {
  responses[static_cast<std::size_t>(record.response)] += 1;
  if (record.response == Response::S2) s2ExtraIterations += record.extraIterations;
}

int TrialTally::Outcomes::trials() const {
  return responses[0] + responses[1] + responses[2] + responses[3];
}

void TrialTally::add(const CrashTestRecord& record) {
  all.add(record);
  byRegion[record.region].add(record);
  byRegionPath[formatRegionPath(record.regionPath)].add(record);
  for (const auto& [id, rate] : record.inconsistentRate) {
    Rates& object = rates[id];
    object.sum += rate;
    object.max = std::max(object.max, rate);
    object.samples += 1;
  }
}

void writeCampaignCsv(const CampaignResult& campaign, std::ostream& os) {
  os << "crash_access,iteration,restart_iteration,region,region_path,response,"
        "extra_iterations";
  std::vector<runtime::ObjectId> candidates;
  for (const auto& object : campaign.golden.objects) {
    if (object.candidate) {
      candidates.push_back(object.id);
      os << ",rate_" << object.name;
    }
  }
  os << '\n';
  os << std::setprecision(8);
  for (const auto& test : campaign.tests) {
    os << test.crashAccessIndex << ',' << test.crashIteration << ','
       << test.restartIteration << ',' << test.region << ','
       << formatRegionPath(test.regionPath) << ',' << toString(test.response)
       << ',' << test.extraIterations;
    for (runtime::ObjectId id : candidates) {
      const auto it = test.inconsistentRate.find(id);
      os << ',' << (it == test.inconsistentRate.end() ? 0.0 : it->second);
    }
    os << '\n';
  }
}

void writeCampaignSummary(const CampaignResult& campaign, std::ostream& os) {
  const TrialTally tally = campaign.tally();
  const auto& counts = tally.all.responses;
  const double total = static_cast<double>(campaign.tests.size());
  os << "campaign summary\n"
     << "  tests:            " << campaign.tests.size() << '\n'
     << "  window accesses:  " << campaign.golden.windowAccesses << '\n'
     << "  golden iterations:" << campaign.golden.finalIteration << '\n'
     << "  footprint:        " << campaign.golden.footprintBytes << " bytes\n";
  // Resilience lines appear only when something went wrong, so the summary
  // of a resumed-then-completed campaign stays byte-identical to the same
  // campaign run uninterrupted.
  if (campaign.interrupted) {
    os << "  INTERRUPTED:      " << campaign.tests.size() + campaign.failures.size()
       << '/' << campaign.plannedTests
       << " trials decided; rates below are partial\n";
  }
  if (!campaign.failures.empty()) {
    int timeouts = 0;
    for (const auto& failure : campaign.failures) timeouts += failure.timeout ? 1 : 0;
    os << "  trial failures:   " << campaign.failures.size() << " (" << timeouts
       << " watchdog timeouts) — excluded from the S1-S4 rates\n";
    for (const auto& failure : campaign.failures) {
      os << "    trial " << failure.trial << " @access " << failure.crashAccessIndex
         << (failure.regionPath.empty() ? "" : " in " + failure.regionPath) << ": "
         << failure.reason << " (" << failure.attempts << " attempts)\n";
    }
  }
  if (total > 0) {
    os << std::fixed << std::setprecision(1);
    os << "  S1 " << 100.0 * counts[0] / total << "%  S2 "
       << 100.0 * counts[1] / total << "%  S3 " << 100.0 * counts[2] / total
       << "%  S4 " << 100.0 * counts[3] / total << "%\n"
       << "  recomputability:  " << 100.0 * (counts[0] / total) << "%\n"
       << "  avg extra iters:  " << std::setprecision(2)
       << (counts[1] == 0 ? 0.0
                          : static_cast<double>(tally.all.s2ExtraIterations) / counts[1])
       << '\n';
    os << "  per-region c_k:\n" << std::setprecision(1);
    for (const auto& [region, outcomes] : tally.byRegion) {
      const double ck = static_cast<double>(outcomes.responses[0]) /
                        static_cast<double>(outcomes.trials());
      os << "    " << regionName(region) << ": " << 100.0 * ck << "% ("
         << outcomes.trials() << " crashes)\n";
    }
    os << "  mean inconsistency per candidate:\n" << std::setprecision(2);
    for (const auto& object : campaign.golden.objects) {
      if (!object.candidate) continue;
      const auto it = tally.rates.find(object.id);
      os << "    " << object.name << ": "
         << 100.0 * (it == tally.rates.end() ? 0.0 : it->second.mean()) << "%\n";
    }
  }
}

std::vector<CrashTestRecord> readCampaignCsv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error("campaign CSV: missing header");
  }
  const auto header = splitCsvLine(line);
  constexpr std::size_t kFixedColumns = 7;
  if (header.size() < kFixedColumns || header[0] != "crash_access") {
    throw std::runtime_error("campaign CSV: unrecognised header");
  }

  std::vector<CrashTestRecord> records;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto fields = splitCsvLine(line);
    if (fields.size() != header.size()) {
      throw std::runtime_error("campaign CSV: column-count mismatch");
    }
    CrashTestRecord record;
    record.crashAccessIndex = std::stoull(fields[0]);
    record.crashIteration = std::stoi(fields[1]);
    record.restartIteration = std::stoi(fields[2]);
    record.region = std::stoi(fields[3]);
    const auto response = responseFromString(fields[5]);
    if (!response) throw std::runtime_error("unknown response class: " + fields[5]);
    record.response = *response;
    record.extraIterations = std::stoi(fields[6]);
    for (std::size_t c = kFixedColumns; c < fields.size(); ++c) {
      record.inconsistentRate[static_cast<runtime::ObjectId>(c - kFixedColumns)] =
          std::stod(fields[c]);
    }
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace easycrash::crash
