// Telemetry subsystem: registry semantics under concurrency, JSONL sink
// escaping/well-formedness, scoped-timer nesting, log-level filtering, and
// the MemEvents::delta monotonicity debug assertion.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "easycrash/apps/registry.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/status.hpp"
#include "easycrash/memsim/events.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/runtime/tracked.hpp"
#include "easycrash/telemetry/json.hpp"
#include "easycrash/telemetry/log.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "easycrash/telemetry/timer.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash {
namespace {

namespace tel = telemetry;

/// Minimal deterministic app for campaign-level telemetry tests: one region,
/// one tracked array, exact-sum verification.
class TinyApp final : public runtime::IApp {
 public:
  static constexpr int kCells = 64;
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
  runtime::AppInfo info_{"tiny", "telemetry test app"};
  runtime::TrackedArray<std::int64_t> data_;
};

runtime::AppFactory tinyFactory() {
  return [] { return std::make_unique<TinyApp>(); };
}

TEST(Metrics, CounterConcurrentIncrementsAreExact) {
  tel::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 100000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.add();
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(Metrics, HistogramBucketSemantics) {
  tel::Histogram hist({1.0, 10.0, 100.0});
  hist.observe(0.5);    // <= 1        -> bucket 0
  hist.observe(1.0);    // boundary is inclusive -> bucket 0
  hist.observe(5.0);    // (1, 10]     -> bucket 1
  hist.observe(100.0);  // (10, 100]   -> bucket 2
  hist.observe(1e6);    // overflow    -> +Inf bucket
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
  EXPECT_EQ(hist.bucketCount(0), 2u);
  EXPECT_EQ(hist.bucketCount(1), 1u);
  EXPECT_EQ(hist.bucketCount(2), 1u);
  EXPECT_EQ(hist.bucketCount(3), 1u);
}

TEST(Metrics, HistogramMergeAddsBucketsCountAndSum) {
  tel::Histogram hist({1.0, 10.0});
  hist.observe(5.0);
  hist.merge({2, 0, 1}, 42.0);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.sum(), 47.0);
  EXPECT_EQ(hist.bucketCount(0), 2u);
  EXPECT_EQ(hist.bucketCount(1), 1u);
  EXPECT_EQ(hist.bucketCount(2), 1u);
  // A shipped histogram of another shape is rejected, not folded in.
  EXPECT_THROW(hist.merge({1, 1}, 1.0), std::logic_error);
  EXPECT_EQ(hist.count(), 4u);
}

TEST(Metrics, HistogramConcurrentObservationsAreExact) {
  tel::Histogram hist(tel::Histogram::exponentialBounds(1.0, 2.0, 8));
  constexpr int kThreads = 4;
  constexpr int kObsPerThread = 50000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&hist, t] {
      for (int i = 0; i < kObsPerThread; ++i) {
        hist.observe(static_cast<double>((t + i) % 300));
      }
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kObsPerThread);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= hist.bounds().size(); ++i) {
    total += hist.bucketCount(i);
  }
  EXPECT_EQ(total, hist.count());
}

TEST(Metrics, HistogramConcurrentSumStaysExactForIntegerValues) {
  // fetch_add on the sum is exact as long as every observation is an
  // integer-valued double and the running total stays within 2^53 — the
  // regime the phase-timing histograms live in (whole microseconds).
  tel::Histogram hist(tel::Histogram::exponentialBounds(1.0, 4.0, 6));
  constexpr int kThreads = 8;
  constexpr int kObsPerThread = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&hist] {
      for (int i = 0; i < kObsPerThread; ++i) {
        hist.observe(static_cast<double>(i % 1000));
      }
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kObsPerThread);
  // Each thread contributes 20 full cycles of sum(0..999) = 499500.
  const double expected = static_cast<double>(kThreads) * 20 * 499500.0;
  EXPECT_DOUBLE_EQ(hist.sum(), expected);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= hist.bounds().size(); ++i) {
    total += hist.bucketCount(i);
  }
  EXPECT_EQ(total, hist.count());
}

TEST(Metrics, WriteJsonKeyOrderIsRegistrationOrderIndependent) {
  // Two registries, same instruments registered in opposite orders, must
  // export byte-identical JSON — the determinism `nvct report` and the CI
  // byte-diff depend on.
  tel::MetricsRegistry forward;
  forward.counter("a.first").add(1);
  forward.counter("b.second").add(2);
  forward.gauge("g.low").set(0.5);
  forward.gauge("g.high").set(1.5);
  forward.histogram("h.x", {1.0, 2.0}).observe(1.5);

  tel::MetricsRegistry reverse;
  reverse.histogram("h.x", {1.0, 2.0}).observe(1.5);
  reverse.gauge("g.high").set(1.5);
  reverse.gauge("g.low").set(0.5);
  reverse.counter("b.second").add(2);
  reverse.counter("a.first").add(1);

  std::ostringstream a;
  std::ostringstream b;
  forward.writeJson(a);
  reverse.writeJson(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Metrics, WriteJsonSplicesExtraSection) {
  tel::MetricsRegistry registry;
  registry.counter("c").add(7);
  std::ostringstream os;
  registry.writeJson(os, "\"profile\": {\"runs\": 2}");
  std::string error;
  const auto doc = tel::json::parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error << " in: " << os.str();
  const auto* profile = doc->find("profile");
  ASSERT_NE(profile, nullptr);
  ASSERT_TRUE(profile->isObject());
  EXPECT_DOUBLE_EQ(profile->find("runs")->number, 2.0);
  EXPECT_DOUBLE_EQ(doc->find("counters")->find("c")->number, 7.0);
}

TEST(Metrics, SnapshotMergeRoundTripsAndRejectsAMismatchedHistogram) {
  // The fork protocol's accounting: a worker's snapshot folded into a parent
  // that has never seen its instruments reproduces them exactly; zeros and
  // gauges are not part of a snapshot.
  tel::MetricsRegistry worker;
  worker.counter("c.live").add(3);
  worker.counter("c.zero");
  worker.gauge("g").set(2.0);
  worker.histogram("h", {1.0, 10.0}).observe(5.0);
  worker.histogram("h.empty", {1.0});
  const tel::MetricsSnapshot delta = worker.snapshot();
  EXPECT_EQ(delta.counters.size(), 1u);
  EXPECT_EQ(delta.histograms.size(), 1u);

  tel::MetricsRegistry parent;
  parent.merge(delta);
  parent.merge(delta);
  const tel::MetricsSnapshot folded = parent.snapshot();
  EXPECT_EQ(folded.counters.at("c.live"), 6u);
  const auto& h = folded.histograms.at("h");
  EXPECT_EQ(h.bounds, (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(h.buckets, (std::vector<std::uint64_t>{0, 2, 0}));
  EXPECT_DOUBLE_EQ(h.sum, 10.0);

  // Bounds that disagree with the registered histogram's, or a bucket count
  // that does not fit the bounds, reject the whole delta: the counter that
  // rides along is not applied either.
  tel::MetricsSnapshot reshaped = delta;
  reshaped.histograms.at("h").bounds = {2.0, 10.0};
  EXPECT_THROW(parent.merge(reshaped), std::invalid_argument);
  tel::MetricsSnapshot torn = delta;
  torn.histograms.at("h").buckets.pop_back();
  EXPECT_THROW(parent.merge(torn), std::invalid_argument);
  const tel::MetricsSnapshot after = parent.snapshot();
  EXPECT_EQ(after.counters, folded.counters);
  EXPECT_EQ(after.histograms.at("h").buckets, h.buckets);
}

TEST(Metrics, RegistryReturnsStableInstrumentsAndExportsJson) {
  auto& registry = tel::MetricsRegistry::instance();
  tel::Counter& a = registry.counter("test.registry.counter");
  tel::Counter& b = registry.counter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(42);
  registry.gauge("test.registry.gauge").set(2.5);
  auto& hist = registry.histogram("test.registry.hist", {1.0, 2.0});
  hist.reset();
  hist.observe(1.5);

  std::ostringstream os;
  registry.writeJson(os);
  std::string error;
  const auto doc = tel::json::parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const auto* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* counter = counters->find("test.registry.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->number, 42.0);
  const auto* gauges = doc->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("test.registry.gauge")->number, 2.5);
  const auto* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  const auto* h = hists->find("test.registry.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->number, 1.0);
  const auto* buckets = h->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->array.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(buckets->array.back().find("le")->string, "+Inf");
}

class TraceSinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tel::TraceSink::instance().clearCommonFields();
    tel::TraceSink::instance().attachStream(&buffer_);
  }
  void TearDown() override { tel::TraceSink::instance().close(); }

  /// Parse every JSONL line written so far; fails the test on a bad line.
  std::vector<tel::json::Value> lines() {
    std::vector<tel::json::Value> out;
    std::istringstream is(buffer_.str());
    std::string line;
    while (std::getline(is, line)) {
      std::string error;
      auto value = tel::json::parse(line, &error);
      EXPECT_TRUE(value.has_value()) << error << " in line: " << line;
      if (value) out.push_back(std::move(*value));
    }
    return out;
  }

  std::ostringstream buffer_;
};

TEST_F(TraceSinkTest, EnablesAndDisablesTracing) {
  EXPECT_TRUE(tel::tracing());
  tel::TraceSink::instance().close();
  EXPECT_FALSE(tel::tracing());
}

TEST_F(TraceSinkTest, EventsAreWellFormedJsonl) {
  tel::TraceEvent("alpha").field("k", std::uint64_t{7}).emit();
  tel::TraceEvent("beta").field("pi", 3.25).field("flag", true).emit();
  const auto parsed = lines();
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].find("type")->string, "alpha");
  EXPECT_DOUBLE_EQ(parsed[0].find("k")->number, 7.0);
  EXPECT_GE(parsed[0].find("ts_ns")->number, 0.0);
  EXPECT_DOUBLE_EQ(parsed[1].find("pi")->number, 3.25);
  EXPECT_TRUE(parsed[1].find("flag")->boolean);
  // Timestamps are monotonic across events.
  EXPECT_LE(parsed[0].find("ts_ns")->number, parsed[1].find("ts_ns")->number);
}

TEST_F(TraceSinkTest, EscapesHostileStrings) {
  const std::string hostile = "quote\" back\\slash \n\r\t ctrl\x01 unicode\xc3\xa9";
  tel::TraceEvent("nasty").field("payload", hostile).field("\"key\n\"", "v").emit();
  const auto parsed = lines();
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].find("payload")->string, hostile);  // exact round-trip
  EXPECT_EQ(parsed[0].find("\"key\n\"")->string, "v");
}

TEST_F(TraceSinkTest, CommonFieldsAppearOnEveryEvent) {
  tel::TraceSink::instance().setCommonField("app", "cg");
  tel::TraceEvent("one").emit();
  tel::TraceEvent("two").field("x", 1).emit();
  const auto parsed = lines();
  ASSERT_EQ(parsed.size(), 2u);
  for (const auto& event : parsed) {
    ASSERT_NE(event.find("app"), nullptr);
    EXPECT_EQ(event.find("app")->string, "cg");
  }
}

TEST_F(TraceSinkTest, ConcurrentEmitsStayLineAtomic) {
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 500;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        tel::TraceEvent("spam").field("thread", t).field("i", i).emit();
      }
    });
  }
  for (auto& thread : pool) thread.join();
  const auto parsed = lines();  // every line must still parse
  EXPECT_EQ(parsed.size(), static_cast<std::size_t>(kThreads) * kEventsPerThread);
}

TEST(ScopedTimer, NestedTimersObserveContainedSpans) {
  tel::Histogram outer({1e9});
  tel::Histogram inner({1e9});
  {
    tel::ScopedTimer outerTimer(outer);
    {
      tel::ScopedTimer innerTimer(inner);
      // Make the inner span measurable.
      volatile double sink = 0.0;
      for (int i = 0; i < 10000; ++i) sink = sink + i;
    }
    EXPECT_EQ(inner.count(), 1u);  // inner observed before outer closes
    EXPECT_EQ(outer.count(), 0u);
  }
  EXPECT_EQ(outer.count(), 1u);
  // The outer span contains the inner one.
  EXPECT_GE(outer.sum(), inner.sum());
}

TEST(Log, LevelFilteringAndParsing) {
  const auto saved = tel::logLevel();
  tel::setLogLevel(tel::LogLevel::Warn);
  EXPECT_TRUE(tel::logEnabled(tel::LogLevel::Error));
  EXPECT_TRUE(tel::logEnabled(tel::LogLevel::Warn));
  EXPECT_FALSE(tel::logEnabled(tel::LogLevel::Info));
  EXPECT_FALSE(tel::logEnabled(tel::LogLevel::Debug));
  EXPECT_EQ(tel::parseLogLevel("DEBUG"), tel::LogLevel::Debug);
  EXPECT_EQ(tel::parseLogLevel("warning"), tel::LogLevel::Warn);
  EXPECT_FALSE(tel::parseLogLevel("shout").has_value());
  tel::setLogLevel(saved);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(tel::json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(tel::json::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(tel::json::parse("{} trailing").has_value());
  EXPECT_FALSE(tel::json::parse("\"unterminated").has_value());
  EXPECT_FALSE(tel::json::parse("01").has_value());
  EXPECT_TRUE(tel::json::parse("{\"u\":\"\\u00e9\",\"n\":-1.5e3}").has_value());
}

TEST(MemEventsDelta, DebugAssertsMonotonicity) {
  memsim::MemEvents later;
  later.nvmBlockWrites = 5;
  memsim::MemEvents earlier;
  earlier.nvmBlockWrites = 9;  // "earlier" snapshot ahead of "later": a reset
#ifndef NDEBUG
  EXPECT_THROW((void)later.delta(earlier), std::logic_error);
#else
  // Release builds compile the check out; the subtraction still wraps, which
  // is exactly why the debug assertion exists.
  (void)later.delta(earlier);
#endif
  // The well-ordered direction always works.
  const auto d = earlier.delta(later);
  EXPECT_EQ(d.nvmBlockWrites, 4u);
}

TEST(Progress, RendersTallyAndFinishes) {
  crash::CampaignStatus sample;
  sample.app = "unit";
  sample.plannedTests = 3;
  sample.decided = 3;
  sample.responses = {2, 0, 1, 0};
  sample.elapsedS = 2.5;
  const auto sampler = [&sample] { return sample; };
  std::ostringstream os;
  {
    // The interval outlasts the test: only the final line is drawn.
    crash::StatusWriter writer("", &os, std::chrono::hours(1), sampler);
    writer.writeFinal(/*interrupted=*/false);
  }
  EXPECT_EQ(os.str(), "\runit trials  3/3  S1:2 S2:0 S3:1 S4:0  2.5s\n");

  // Without a stream or a path the sampler writes nothing anywhere.
  crash::StatusWriter off("", nullptr, std::chrono::milliseconds(1), sampler);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  off.writeFinal(/*interrupted=*/false);
}

TEST(Progress, LogLineBetweenRedrawsStartsOnAFreshLine) {
  // stderr has one owner: a log line written while the progress line is
  // open ends that line first, and the next redraw starts a new one.
  std::ostringstream captured;
  struct Restore {
    std::streambuf* cerr;
    tel::LogLevel level;
    ~Restore() {
      std::cerr.rdbuf(cerr);
      tel::setLogLevel(level);
    }
  } restore{std::cerr.rdbuf(captured.rdbuf()), tel::logLevel()};
  tel::setLogLevel(tel::LogLevel::Warn);

  tel::drawProgressLine(std::cerr, "mg trials  130/200  eta 0.1s");
  EC_LOG_WARN("campaign interrupted");
  tel::drawProgressLine(std::cerr, "mg trials  151/200");
  tel::drawProgressLine(std::cerr, "mg trials  15/200");  // padded over the last
  EC_LOG_WARN("once more");
  tel::endProgressLine(std::cerr);  // already ended by the log line
  EC_LOG_WARN("no line open");

  // A fork worker buffers its log lines instead of writing stderr; the
  // parent absorbing the reply writes them while its line is open.
  std::string workerLines;
  tel::redirectLogLines(&workerLines);
  EC_LOG_WARN("from a worker");
  tel::redirectLogLines(nullptr);
  EXPECT_EQ(workerLines, "[easycrash warn] from a worker\n");
  tel::drawProgressLine(std::cerr, "sp trials  59/60  eta 0.3s");
  tel::writeLogLines(workerLines);
  tel::drawProgressLine(std::cerr, "sp trials  60/60");
  tel::endProgressLine(std::cerr);
  EXPECT_EQ(captured.str(),
            "\rmg trials  130/200  eta 0.1s\n"
            "[easycrash warn] campaign interrupted\n"
            "\rmg trials  151/200\rmg trials  15/200 \n"
            "[easycrash warn] once more\n"
            "[easycrash warn] no line open\n"
            "\rsp trials  59/60  eta 0.3s\n"
            "[easycrash warn] from a worker\n"
            "\rsp trials  60/60\n");
}

// The acceptance-level contract: the memsim.* registry counters are an exact
// mirror of the MemEvents totals accumulated by the campaign's simulated runs.
TEST(CampaignTelemetry, GoldenRunCountersEqualMemEventsExactly) {
  auto& reg = tel::MetricsRegistry::instance();
  reg.reset();

  crash::CampaignConfig config;
  config.numTests = 1;
  config.cache = memsim::CacheConfig::tiny();
  config.appLabel = "tiny";
  config.goldenEvents = true;  // a direct golden's events are near-empty
  const crash::CampaignRunner runner(tinyFactory(), config);
  const auto golden = runner.goldenRun();
  ASSERT_GT(golden.events.loads, 0u);

  EXPECT_EQ(reg.counter("memsim.loads").value(), golden.events.loads);
  EXPECT_EQ(reg.counter("memsim.stores").value(), golden.events.stores);
  EXPECT_EQ(reg.counter("memsim.nvmBlockReads").value(),
            golden.events.nvmBlockReads);
  EXPECT_EQ(reg.counter("memsim.nvmBlockWrites").value(),
            golden.events.nvmBlockWrites);
  EXPECT_EQ(reg.counter("memsim.flushDirty").value(), golden.events.flushDirty);
  EXPECT_EQ(reg.counter("memsim.flushClean").value(), golden.events.flushClean);
  EXPECT_EQ(reg.counter("memsim.flushNonResident").value(),
            golden.events.flushNonResident);
  EXPECT_EQ(reg.counter("memsim.flushInducedNvmWrites").value(),
            golden.events.flushInducedNvmWrites);
}

// memsim.* counts the golden run and the sweep crashing runs only. Restarts
// run direct, and how far each runs depends on memo trial hits, which lane
// timing decides, so counting them would make the counters differ between
// runs, thread counts and isolation modes.
TEST(CampaignTelemetry, MemsimCountersDoNotDependOnRestartLengths) {
  const auto run = [](const crash::CampaignConfig& config, const crash::MemoSeams& seams) {
    const crash::MemoSeams saved = crash::memoSeams();
    crash::setMemoSeams(seams);
    auto& reg = tel::MetricsRegistry::instance();
    reg.reset();
    (void)crash::CampaignRunner(apps::findBenchmark("mg").factory, config).run();
    crash::setMemoSeams(saved);
    return reg.snapshot().counters;
  };
  const auto memsimOnly = [](const std::map<std::string, std::uint64_t>& counters) {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, value] : counters) {
      if (name.rfind("memsim.", 0) == 0) out.emplace(name, value);
    }
    return out;
  };
  crash::CampaignConfig config;
  config.numTests = 100;
  config.threads = 1;
  config.appLabel = "mg";
  config.resilience.isolation = crash::IsolationMode::InProcess;
  const auto trialHits = run(config, {.trialMatches = true});
  const auto goldenHitsOnly = run(config, {.trialMatches = false});
  config.threads = 2;
  config.resilience.isolation = crash::IsolationMode::Fork;
  const auto forked = run(config, {});
  ASSERT_GT(trialHits.at("campaign.memo_trial_hits"), 0u) << "no restart was shortened";
  ASSERT_GT(trialHits.at("memsim.loads"), 0u);
  EXPECT_EQ(memsimOnly(trialHits), memsimOnly(goldenHitsOnly));
  EXPECT_EQ(memsimOnly(trialHits), memsimOnly(forked));
}

// Restarts that reach one memo key at once share its outcome instead of
// each computing it (a claimed key is pending until its owner decides), so
// every key is computed once and the memo counters are the same at any
// lane count, in either isolation mode.
TEST(CampaignTelemetry, MemoCountersDoNotDependOnLanes) {
  for (const char* app : {"ft", "mg", "kmeans"}) {
    crash::CampaignConfig config;
    config.numTests = 200;
    config.appLabel = app;
    std::map<std::string, std::uint64_t> first;
    for (const auto isolation : {crash::IsolationMode::InProcess, crash::IsolationMode::Fork}) {
      for (const int threads : {1, 2, 4}) {
        config.threads = threads;
        config.resilience.isolation = isolation;
        auto& reg = tel::MetricsRegistry::instance();
        reg.reset();
        (void)crash::CampaignRunner(apps::findBenchmark(app).factory, config).run();
        std::map<std::string, std::uint64_t> counters;
        for (const char* name : {"campaign.memo_checks", "campaign.memo_golden_hits",
                                 "campaign.memo_trial_hits", "campaign.memo_iterations_skipped",
                                 "campaign.restart_iterations"}) {
          counters[name] = reg.counter(name).value();
        }
        SCOPED_TRACE(std::string(app) + " threads=" + std::to_string(threads) +
                     (isolation == crash::IsolationMode::Fork ? " fork" : " none"));
        if (first.empty()) {
          ASSERT_GT(counters.at("campaign.memo_checks"), 0u) << "no memo check";
          first = counters;
        }
        EXPECT_EQ(counters, first);
      }
    }
  }
}

TEST(CampaignTelemetry, FullCampaignRecordsTrialsAndTraceEvents) {
  auto& reg = tel::MetricsRegistry::instance();
  reg.reset();

  std::ostringstream trace;
  auto& sink = tel::TraceSink::instance();
  sink.clearCommonFields();
  sink.setCommonField("app", "tiny");
  sink.attachStream(&trace);

  crash::CampaignConfig config;
  config.numTests = 3;
  config.cache = memsim::CacheConfig::tiny();
  config.appLabel = "tiny";
  const auto campaign = crash::CampaignRunner(tinyFactory(), config).run();
  sink.close();

  EXPECT_EQ(reg.counter("campaign.trials").value(), 3u);
  // Every trial runs at least a crashing run; counters strictly exceed the
  // golden totals alone.
  EXPECT_GT(reg.counter("memsim.loads").value(), campaign.golden.events.loads);
  EXPECT_GE(reg.counter("memsim.nvmBlockWrites").value(),
            campaign.golden.events.nvmBlockWrites);
  const std::uint64_t responses = reg.counter("campaign.responses.s1").value() +
                                  reg.counter("campaign.responses.s2").value() +
                                  reg.counter("campaign.responses.s3").value() +
                                  reg.counter("campaign.responses.s4").value();
  EXPECT_EQ(responses, 3u);

  // The trace carries the campaign lifecycle with the app tag on every line.
  std::istringstream lines(trace.str());
  std::string line;
  std::size_t total = 0;
  std::size_t trialEnds = 0;
  bool sawBegin = false;
  bool sawEnd = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::string error;
    const auto value = tel::json::parse(line, &error);
    ASSERT_TRUE(value) << error << " in: " << line;
    ASSERT_TRUE(value->isObject());
    const auto* app = value->find("app");
    ASSERT_NE(app, nullptr) << line;
    EXPECT_EQ(app->string, "tiny");
    const auto* type = value->find("type");
    ASSERT_NE(type, nullptr);
    if (type->string == "trial_end") ++trialEnds;
    if (type->string == "campaign_begin") sawBegin = true;
    if (type->string == "campaign_end") sawEnd = true;
    ++total;
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(trialEnds, 3u);
  EXPECT_TRUE(sawBegin);
  EXPECT_TRUE(sawEnd);
}

}  // namespace
}  // namespace easycrash
