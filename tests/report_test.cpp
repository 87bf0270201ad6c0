// Tests for campaign reporting: CSV round trip, region-path formatting, the
// human-readable summary, and the one TrialTally behind the summary and
// `nvct report`.
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/apps/registry.hpp"
#include "easycrash/core/object_selection.hpp"
#include "easycrash/crash/flight_report.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/crash/resilience.hpp"
#include "journal_fixtures.hpp"

namespace cr = easycrash::crash;
namespace rt = easycrash::runtime;
namespace fx = easycrash::fixtures;

namespace {

cr::CampaignResult smallCampaign() {
  cr::CampaignConfig config;
  config.numTests = 12;
  const cr::CampaignRunner runner(easycrash::apps::findBenchmark("is").factory,
                                  config);
  return runner.run();
}

// printf-formats one value (the renderers' own formats, restated).
template <typename... Args>
std::string format(const char* spec, Args... args) {
  char buf[160];
  std::snprintf(buf, sizeof buf, spec, args...);
  return buf;
}

}  // namespace

TEST(RegionPath, Formatting) {
  EXPECT_EQ(cr::formatRegionPath({}), "main");
  EXPECT_EQ(cr::formatRegionPath({0}), "R1");
  EXPECT_EQ(cr::formatRegionPath({1, 4}), "R2>R5");
}

TEST(Report, CsvHasHeaderAndOneRowPerTest) {
  const auto campaign = smallCampaign();
  std::ostringstream os;
  cr::writeCampaignCsv(campaign, os);
  const std::string text = os.str();
  int lines = 0;
  for (char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 1 + static_cast<int>(campaign.tests.size()));
  EXPECT_NE(text.find("crash_access"), std::string::npos);
  EXPECT_NE(text.find("rate_bucket_hist"), std::string::npos);
}

TEST(Report, CsvRoundTripsRecords) {
  const auto campaign = smallCampaign();
  std::ostringstream os;
  cr::writeCampaignCsv(campaign, os);
  std::istringstream is(os.str());
  const auto records = cr::readCampaignCsv(is);
  ASSERT_EQ(records.size(), campaign.tests.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].crashAccessIndex, campaign.tests[i].crashAccessIndex);
    EXPECT_EQ(records[i].response, campaign.tests[i].response);
    EXPECT_EQ(records[i].crashIteration, campaign.tests[i].crashIteration);
    EXPECT_EQ(records[i].extraIterations, campaign.tests[i].extraIterations);
    EXPECT_EQ(records[i].inconsistentRate.size(),
              campaign.tests[i].inconsistentRate.size());
  }
}

TEST(Report, CsvRejectsGarbage) {
  std::istringstream empty("");
  EXPECT_THROW((void)cr::readCampaignCsv(empty), std::runtime_error);
  std::istringstream wrongHeader("nope,nope\n");
  EXPECT_THROW((void)cr::readCampaignCsv(wrongHeader), std::runtime_error);
  std::istringstream shortRow(
      "crash_access,iteration,restart_iteration,region,region_path,response,"
      "extra_iterations\n1,2\n");
  EXPECT_THROW((void)cr::readCampaignCsv(shortRow), std::runtime_error);
}

TEST(Report, SummaryMentionsKeyAggregates) {
  const auto campaign = smallCampaign();
  std::ostringstream os;
  cr::writeCampaignSummary(campaign, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("recomputability"), std::string::npos);
  EXPECT_NE(text.find("per-region c_k"), std::string::npos);
  EXPECT_NE(text.find("bucket_hist"), std::string::npos);
}

TEST(Report, CrashRecordsCarryRegionPaths) {
  const auto campaign = smallCampaign();
  for (const auto& test : campaign.tests) {
    ASSERT_FALSE(test.regionPath.empty())
        << "IS crashes always occur inside a first-level region";
    EXPECT_EQ(test.regionPath.back(), test.region);
  }
}

TEST(TrialTally, MatchesARecountAndEveryRendererCarriesIt) {
  // Random decided sets — S2 trials with extra iterations, multi-level region
  // paths, objects some trials recorded no rate for: the tally equals a
  // recount written here, and the summary and `nvct report`'s tables, both
  // rendered from one set, carry the same S1-S4 counts, S2 extra sum and
  // per-object means (each over the trials that recorded the object), and
  // object selection uses those means.
  struct Rate {
    double sum = 0.0;
    double max = 0.0;
    int samples = 0;
  };
  std::mt19937_64 rng(2929);
  const std::string path = testing::TempDir() + "tally_property.jsonl";
  for (int round = 0; round < 16; ++round) {
    const fx::DecidedSet set = fx::randomDecidedSet(rng);
    std::array<int, 4> counts{};
    long long extra = 0;
    std::map<rt::PointId, std::array<int, 4>> byRegion;
    std::map<std::string, std::pair<std::array<int, 4>, long long>> byPath;
    std::map<rt::ObjectId, Rate> rates;
    cr::TrialTally tally;
    cr::CampaignResult campaign;
    for (const auto& [t, record] : set.trials) {
      tally.add(record);
      campaign.tests.push_back(record);
      const auto s = static_cast<std::size_t>(record.response);
      auto& pathStats = byPath[cr::formatRegionPath(record.regionPath)];
      counts[s] += 1;
      byRegion[record.region][s] += 1;
      pathStats.first[s] += 1;
      if (record.response == cr::Response::S2) {
        extra += record.extraIterations;
        pathStats.second += record.extraIterations;
      }
      for (const auto& [id, rate] : record.inconsistentRate) {
        rates[id].sum += rate;
        rates[id].max = rate > rates[id].max ? rate : rates[id].max;
        rates[id].samples += 1;
      }
    }
    const std::string where = "round " + std::to_string(round);
    EXPECT_EQ(tally.all.responses, counts) << where;
    EXPECT_EQ(tally.all.s2ExtraIterations, extra) << where;
    EXPECT_EQ(tally.all.trials(), static_cast<int>(set.trials.size())) << where;
    ASSERT_EQ(tally.byRegion.size(), byRegion.size()) << where;
    for (const auto& [region, regionCounts] : byRegion) {
      EXPECT_EQ(tally.byRegion.at(region).responses, regionCounts) << where;
    }
    ASSERT_EQ(tally.byRegionPath.size(), byPath.size()) << where;
    for (const auto& [name, pathStats] : byPath) {
      EXPECT_EQ(tally.byRegionPath.at(name).responses, pathStats.first) << where;
      EXPECT_EQ(tally.byRegionPath.at(name).s2ExtraIterations, pathStats.second) << where;
    }
    ASSERT_EQ(tally.rates.size(), rates.size()) << where;
    for (const auto& [id, rate] : rates) {
      EXPECT_EQ(tally.rates.at(id).sum, rate.sum) << where;
      EXPECT_EQ(tally.rates.at(id).max, rate.max) << where;
      EXPECT_EQ(tally.rates.at(id).samples, rate.samples) << where;
    }

    cr::JournalHeader plain = set.header;
    plain.candidates.clear();
    fx::journalSet(set, plain, path, rng, [](std::size_t) { return true; }, true);
    const std::string report = cr::renderFlightReport(cr::readJournal(path), "", "");
    for (const auto& candidate : set.header.candidates) {
      rt::DataObjectInfo object;
      object.id = candidate.id;
      object.name = candidate.name;
      object.candidate = true;
      campaign.golden.objects.push_back(object);
    }
    std::ostringstream summaryStream;
    cr::writeCampaignSummary(campaign, summaryStream);
    const std::string summary = summaryStream.str();

    const double decided = static_cast<double>(set.trials.size());
    const double avgExtra = counts[1] > 0 ? static_cast<double>(extra) / counts[1] : 0.0;
    std::vector<std::string> inReport, inSummary;
    for (int s = 0; s < 4; ++s) {
      inReport.push_back(format("| S%d | %d | %.1f%% |", s + 1, counts[s],
                                decided > 0 ? 100.0 * counts[s] / decided : 0.0));
    }
    inReport.push_back(format("- average extra iterations over S2: %.2f\n", avgExtra));
    for (const auto& [name, pathStats] : byPath) {
      const auto& c = pathStats.first;
      inReport.push_back(format("| `%s` | %d | %d | %d | %d | %d |", name.c_str(),
                                c[0] + c[1] + c[2] + c[3], c[0], c[1], c[2], c[3]));
    }
    for (const auto& [id, rate] : rates) {
      inReport.push_back(format("| `obj%d` | %d | %.4f | %.4f |", static_cast<int>(id),
                                rate.samples, rate.sum / rate.samples, rate.max));
    }
    if (!set.trials.empty()) {
      inSummary.push_back(format("  S1 %.1f%%  S2 %.1f%%  S3 %.1f%%  S4 %.1f%%\n",
                                 100.0 * counts[0] / decided, 100.0 * counts[1] / decided,
                                 100.0 * counts[2] / decided, 100.0 * counts[3] / decided));
      inSummary.push_back(format("  avg extra iters:  %.2f\n", avgExtra));
      for (const auto& [region, c] : byRegion) {
        const int n = c[0] + c[1] + c[2] + c[3];
        inSummary.push_back(format("    %s: %.1f%% (%d crashes)\n",
                                   cr::regionName(region).c_str(),
                                   100.0 * (static_cast<double>(c[0]) / n), n));
      }
      for (const auto& candidate : set.header.candidates) {
        const auto it = rates.find(candidate.id);
        inSummary.push_back(format(
            "    %s: %.2f%%\n", candidate.name.c_str(),
            100.0 * (it == rates.end() ? 0.0 : it->second.sum / it->second.samples)));
      }
      // Object selection reads the same mean.
      for (const auto& corr : easycrash::core::selectCriticalObjects(campaign).correlations) {
        const auto it = rates.find(corr.id);
        EXPECT_EQ(corr.meanInconsistentRate,
                  it == rates.end() ? 0.0 : it->second.sum / it->second.samples)
            << where << ": " << corr.name;
      }
    }
    for (const auto& line : inReport) {
      EXPECT_NE(report.find(line), std::string::npos) << where << ": " << line;
    }
    for (const auto& line : inSummary) {
      EXPECT_NE(summary.find(line), std::string::npos) << where << ": " << line;
    }
  }
  std::remove(path.c_str());
}
