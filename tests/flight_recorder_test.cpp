// Campaign flight recorder: per-object access/wear profiles, phase-span
// trace events, live status snapshots and the progress line rendered from
// them (its ETA ignores resumed trials), and the deterministic `nvct report`
// renderer (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/flight_report.hpp"
#include "easycrash/crash/status.hpp"
#include "easycrash/memsim/config.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/runtime/tracked.hpp"
#include "easycrash/telemetry/json.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "easycrash/telemetry/phase_span.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash {
namespace {

namespace tel = telemetry;

std::string tempPath(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

/// Same shape as the telemetry test's TinyApp: one region, one tracked
/// array, enough cells to spill the tiny cache so NVM wear accumulates.
class RecorderApp final : public runtime::IApp {
 public:
  static constexpr int kCells = 256;
  static constexpr int kIterations = 4;

  [[nodiscard]] const runtime::AppInfo& info() const override { return info_; }

  void setup(runtime::Runtime& rt) override {
    rt.declareRegionCount(1);
    data_ = runtime::TrackedArray<std::int64_t>(rt, "data", kCells, true);
  }

  void initialize(runtime::Runtime& rt) override {
    (void)rt;
    for (int i = 0; i < kCells; ++i) data_.set(i, i);
  }

  void iterate(runtime::Runtime& rt, int iteration) override {
    (void)iteration;
    runtime::RegionScope region(rt, 0);
    for (int i = 0; i < kCells; ++i) data_.set(i, data_.get(i) + 1);
    region.iterationEnd();
  }

  [[nodiscard]] int nominalIterations() const override { return kIterations; }

  [[nodiscard]] runtime::VerifyOutcome verify(runtime::Runtime& rt) override {
    (void)rt;
    runtime::VerifyOutcome out;
    out.pass = true;
    for (int i = 0; i < kCells; ++i) {
      out.pass = out.pass && data_.peek(i) >= i;
    }
    out.metric = static_cast<double>(data_.peek(0));
    return out;
  }

 private:
  runtime::AppInfo info_{"recorder", "flight recorder test app"};
  runtime::TrackedArray<std::int64_t> data_;
};

runtime::AppFactory recorderFactory() {
  return [] { return std::make_unique<RecorderApp>(); };
}

std::uint64_t sumOf(const std::vector<std::uint64_t>& bins) {
  return std::accumulate(bins.begin(), bins.end(), std::uint64_t{0});
}

TEST(AccessProfile, ObjectBinsFoldExactlyToTotals) {
  runtime::Runtime rt(memsim::CacheConfig::tiny());
  rt.enableProfile();
  EXPECT_TRUE(rt.profiling());

  RecorderApp app;
  app.setup(rt);
  app.initialize(rt);
  for (int i = 0; i < RecorderApp::kIterations; ++i) app.iterate(rt, i);

  const auto profiles = rt.objectProfiles(4);
  ASSERT_FALSE(profiles.empty());
  bool sawAccesses = false;
  bool sawWear = false;
  for (const auto& profile : profiles) {
    // The spatial bins are a partition of the object's counters: they must
    // sum back to the exported totals exactly.
    EXPECT_EQ(sumOf(profile.accessBins), profile.accesses) << profile.name;
    EXPECT_EQ(sumOf(profile.wearBins), profile.nvmWrites) << profile.name;
    EXPECT_LE(profile.accessBins.size(), 4u);
    sawAccesses = sawAccesses || profile.accesses > 0;
    sawWear = sawWear || profile.nvmWrites > 0;
  }
  EXPECT_TRUE(sawAccesses);
  // 256 int64 cells spill the tiny cache, so evictions wrote NVM blocks.
  EXPECT_TRUE(sawWear);
}

TEST(AccessProfile, CampaignAccumulatesAcrossRuns) {
  crash::CampaignConfig config;
  config.numTests = 2;
  config.cache = memsim::CacheConfig::tiny();
  config.appLabel = "recorder";
  const auto campaign = crash::CampaignRunner(recorderFactory(), config).run();

  ASSERT_FALSE(campaign.profile.empty());
  // The one sweep crashing run: the golden run and the restarts go direct
  // and record no profile.
  EXPECT_EQ(campaign.profile.runs, 1u);
  ASSERT_FALSE(campaign.profile.objects.empty());
  std::uint64_t accesses = 0;
  for (const auto& object : campaign.profile.objects) {
    accesses += object.accesses;
    EXPECT_EQ(sumOf(object.accessBins), object.accesses) << object.name;
    EXPECT_EQ(sumOf(object.wearBins), object.nvmWrites) << object.name;
  }
  EXPECT_GT(accesses, 0u);
  EXPECT_FALSE(campaign.profile.regionAccesses.empty());

  // The JSON encoding is parseable and carries the same totals.
  std::string error;
  const auto doc =
      tel::json::parse(crash::campaignProfileJson(campaign.profile), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const auto* objects = doc->find("objects");
  ASSERT_NE(objects, nullptr);
  EXPECT_EQ(objects->array.size(), campaign.profile.objects.size());
}

void expectSameProfile(const crash::CampaignProfile& a, const crash::CampaignProfile& b,
                       const std::string& what) {
  EXPECT_EQ(a.strideBytes, b.strideBytes) << what;
  EXPECT_EQ(a.runs, b.runs) << what;
  EXPECT_EQ(a.regionAccesses, b.regionAccesses) << what;
  ASSERT_EQ(a.objects.size(), b.objects.size()) << what;
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    const runtime::ObjectProfile& x = a.objects[i];
    const runtime::ObjectProfile& y = b.objects[i];
    EXPECT_EQ(x.id, y.id) << what;
    EXPECT_EQ(x.name, y.name) << what;
    EXPECT_EQ(x.bytes, y.bytes) << what << ' ' << x.name;
    EXPECT_EQ(x.accesses, y.accesses) << what << ' ' << x.name;
    EXPECT_EQ(x.nvmWrites, y.nvmWrites) << what << ' ' << x.name;
    EXPECT_EQ(x.accessBins, y.accessBins) << what << ' ' << x.name;
    EXPECT_EQ(x.wearBins, y.wearBins) << what << ' ' << x.name;
  }
}

// The profile is the sweep crashing run's, whichever process ran it: the
// in-process sweep and a fork worker's sweep yield the same bins. Under
// goldenEvents the tracked golden run is folded in as a second run.
TEST(AccessProfile, SweepProfileIsTheSameInEveryIsolationMode) {
  crash::CampaignConfig config;
  config.numTests = 6;
  config.cache = memsim::CacheConfig::tiny();
  config.appLabel = "recorder";
  const auto runWith = [&](crash::IsolationMode isolation, int threads) {
    crash::CampaignConfig c = config;
    c.resilience.isolation = isolation;
    c.threads = threads;
    return crash::CampaignRunner(recorderFactory(), c).run().profile;
  };
  const crash::CampaignProfile propagate = runWith(crash::IsolationMode::Propagate, 1);
  expectSameProfile(propagate, runWith(crash::IsolationMode::InProcess, 2), "in-process");
  expectSameProfile(propagate, runWith(crash::IsolationMode::Fork, 2), "fork");
  EXPECT_EQ(propagate.runs, 1u);

  // The golden run alone, tracked, as the campaign runs it under
  // goldenEvents: the campaign profile is its bins plus the sweep's.
  crash::CampaignProfile expected;
  {
    runtime::Runtime rt(config.cache);
    rt.setRunKind(runtime::RunKind::Tracked);
    rt.enableProfile();
    RecorderApp app;
    app.setup(rt);
    app.initialize(rt);
    (void)runtime::Driver::run(app, rt, 1, 0);
    expected.accumulate(rt);
  }
  ASSERT_EQ(expected.runs, 1u);
  expected.merge(propagate);

  config.goldenEvents = true;
  for (const auto isolation : {crash::IsolationMode::Propagate, crash::IsolationMode::Fork}) {
    const crash::CampaignProfile withGolden = runWith(isolation, 2);
    EXPECT_EQ(withGolden.runs, 2u);
    expectSameProfile(withGolden, expected, "goldenEvents");
  }
}

TEST(PhaseSpan, EmitsPairedEventsAndObservesDuration) {
  std::ostringstream buffer;
  auto& sink = tel::TraceSink::instance();
  sink.clearCommonFields();
  sink.attachStream(&buffer);
  tel::Histogram hist({1e9});
  {
    tel::PhaseSpan span("unit_phase", hist, /*trial=*/7);
  }
  sink.close();

  EXPECT_EQ(hist.count(), 1u);
  std::istringstream is(buffer.str());
  std::string line;
  std::vector<tel::json::Value> events;
  while (std::getline(is, line)) {
    std::string error;
    auto value = tel::json::parse(line, &error);
    ASSERT_TRUE(value.has_value()) << error << " in: " << line;
    events.push_back(std::move(*value));
  }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].find("type")->string, "phase_begin");
  EXPECT_EQ(events[0].find("phase")->string, "unit_phase");
  EXPECT_DOUBLE_EQ(events[0].find("trial")->number, 7.0);
  EXPECT_EQ(events[1].find("type")->string, "phase_end");
  EXPECT_EQ(events[1].find("phase")->string, "unit_phase");
  EXPECT_GE(events[1].find("duration_ns")->number, 0.0);
}

TEST(Status, SerializeStatusRoundTrips) {
  crash::CampaignStatus status;
  status.app = "mg \"quoted\"";
  status.plannedTests = 100;
  status.decided = 42;
  status.resumed = 10;
  status.responses = {20, 5, 3, 12};
  status.failures = 2;
  status.retries = 4;
  status.timeouts = 1;
  status.queueDepth = 3;
  status.elapsedS = 12.5;
  status.trialsPerS = 2.56;
  status.etaS = 22.656;
  status.interrupted = true;
  status.seq = 9;

  std::string error;
  const auto doc = tel::json::parse(crash::serializeStatus(status), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("type")->string, "campaign_status");
  EXPECT_EQ(doc->find("app")->string, "mg \"quoted\"");
  EXPECT_DOUBLE_EQ(doc->find("tests")->number, 100.0);
  EXPECT_DOUBLE_EQ(doc->find("decided")->number, 42.0);
  EXPECT_DOUBLE_EQ(doc->find("resumed")->number, 10.0);
  EXPECT_DOUBLE_EQ(doc->find("s1")->number, 20.0);
  EXPECT_DOUBLE_EQ(doc->find("s4")->number, 12.0);
  EXPECT_DOUBLE_EQ(doc->find("failures")->number, 2.0);
  EXPECT_DOUBLE_EQ(doc->find("queue_depth")->number, 3.0);
  EXPECT_DOUBLE_EQ(doc->find("eta_s")->number, 22.656);
  EXPECT_TRUE(doc->find("interrupted")->boolean);
  EXPECT_FALSE(doc->find("done")->boolean);
  EXPECT_DOUBLE_EQ(doc->find("seq")->number, 9.0);
}

TEST(Status, WriterProducesFinalSnapshot) {
  const std::string path = tempPath("flight_status.json");
  crash::CampaignStatus sample;
  sample.app = "unit";
  sample.plannedTests = 5;
  sample.decided = 5;
  sample.responses = {5, 0, 0, 0};
  {
    crash::StatusWriter writer(path, nullptr, std::chrono::milliseconds(10),
                               [&sample] { return sample; });
    writer.writeFinal(/*interrupted=*/false);
  }
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream buffer;
  buffer << is.rdbuf();
  std::string error;
  const auto doc = tel::json::parse(buffer.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_TRUE(doc->find("done")->boolean);
  EXPECT_FALSE(doc->find("interrupted")->boolean);
  EXPECT_GE(doc->find("seq")->number, 1.0);
  std::remove(path.c_str());
}

TEST(Progress, EtaIgnoresResumedBaseline) {
  crash::CampaignStatus status;
  status.app = "resume";
  status.plannedTests = 100;
  status.decided = 50;
  status.resumed = 50;
  status.elapsedS = 2.0;
  status.estimateRate();  // all resumed — no rate basis yet, so no ETA
  EXPECT_LT(status.etaS, 0.0);
  EXPECT_EQ(crash::progressLine(status), "resume trials  50/100  S1:0 S2:0 S3:0 S4:0");

  crash::CampaignStatus fresh = status;
  fresh.resumed = 0;
  fresh.estimateRate();  // same count, no baseline: 25 trials/s
  EXPECT_DOUBLE_EQ(fresh.trialsPerS, 25.0);
  EXPECT_NE(crash::progressLine(fresh).find("  eta 2.0s"), std::string::npos);

  crash::CampaignStatus mixed = status;
  mixed.decided = 60;  // 10 fresh trials in 2 s: 40 left at 5 trials/s
  mixed.estimateRate();
  EXPECT_DOUBLE_EQ(mixed.trialsPerS, 5.0);
  EXPECT_NE(crash::progressLine(mixed).find("  eta 8.0s"), std::string::npos);
}

/// The first-column labels (between backticks) of the markdown table under
/// `heading`.
std::set<std::string> tableLabels(const std::string& md, const std::string& heading) {
  std::set<std::string> labels;
  std::size_t pos = md.find(heading);
  if (pos == std::string::npos) return labels;
  pos = md.find("\n|", pos);
  while (pos != std::string::npos && md.compare(pos, 2, "\n|") == 0) {
    const std::size_t end = md.find('\n', pos + 1);
    const std::string row = md.substr(pos + 1, end - pos - 1);
    if (row.rfind("| `", 0) == 0) labels.insert(row.substr(3, row.find('`', 3) - 3));
    pos = end;
  }
  return labels;
}

TEST(FlightReport, RendersDeterministicallyFromJournal) {
  const std::string journal = tempPath("flight_report_journal.jsonl");
  const std::string metrics = tempPath("flight_report_metrics.json");

  tel::MetricsRegistry::instance().reset();
  crash::CampaignConfig config;
  config.numTests = 3;
  config.cache = memsim::CacheConfig::tiny();
  config.appLabel = "recorder";
  config.resilience.journalPath = journal;
  const auto campaign = crash::CampaignRunner(recorderFactory(), config).run();
  {
    std::ostringstream os;
    std::string profileSection;
    if (!campaign.profile.empty()) {
      profileSection =
          "\"profile\": " + crash::campaignProfileJson(campaign.profile);
    }
    tel::MetricsRegistry::instance().writeJson(os, profileSection);
    std::ofstream out(metrics);
    out << os.str();
  }

  const auto replay = crash::readJournal(journal);
  const std::string once = crash::renderFlightReport(replay, "", metrics);
  const std::string twice =
      crash::renderFlightReport(crash::readJournal(journal), "", metrics);
  EXPECT_EQ(once, twice);
  EXPECT_NE(once.find("# nvct campaign report"), std::string::npos);
  EXPECT_NE(once.find("## Outcomes"), std::string::npos);
  EXPECT_NE(once.find("decided trials: 3"), std::string::npos);
  // The metrics profile section feeds the heatmap.
  EXPECT_NE(once.find("## Access/wear profile"), std::string::npos);
  EXPECT_NE(once.find("`data`"), std::string::npos);
  // Both tables name a region the same way: every region a crash landed in
  // has a row in the access shares.
  const auto outcomes = tableLabels(once, "## Per-region outcomes");
  const auto shares = tableLabels(once, "### Region access shares");
  EXPECT_TRUE(outcomes.count("R1")) << once;
  for (const std::string& region : outcomes) {
    EXPECT_TRUE(shares.count(region)) << region << " missing from the access shares\n" << once;
  }

  // The journal alone renders too (no optional inputs).
  const std::string minimal = crash::renderFlightReport(replay, "", "");
  EXPECT_NE(minimal.find("## Outcomes"), std::string::npos);
  EXPECT_EQ(minimal.find("## Phase latencies"), std::string::npos);

  std::remove(journal.c_str());
  std::remove(metrics.c_str());
}

TEST(FlightReport, MissingJournalThrows) {
  EXPECT_THROW((void)crash::renderFlightReport(
                   crash::readJournal(tempPath("flight_report_nonexistent.jsonl")), "", ""),
               std::runtime_error);
}

}  // namespace
}  // namespace easycrash
