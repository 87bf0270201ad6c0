// Cross-module integration tests, parameterized over every benchmark:
//
// * boundary-restart determinism: snapshotting all candidates at an
//   iteration boundary (after a full write-back) and restarting from it must
//   reproduce the golden outcome — the foundation the whole EasyCrash
//   recomputation argument rests on;
// * campaign-over-plan smoke: a campaign under a critical-object plan never
//   breaks the golden run and classifies every test;
// * direct golden oracle: a campaign's default direct-to-NVM golden run
//   reports every output the campaign reads exactly as the cache-simulated
//   golden run (CampaignConfig::goldenEvents) does, with and without a
//   persistence plan, and a tracked run's state key equals a direct run's
//   (and a restart-kind run's) at every main-loop iteration end;
// * reference caches: an app that verifies against a reference computed
//   once per process gives a golden run the same outcome whether or not a
//   corrupted restart verified first.
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/apps/registry.hpp"
#include "easycrash/core/workflow.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/runtime/app.hpp"
#include "easycrash/runtime/runtime.hpp"

namespace ec = easycrash;
namespace rt = easycrash::runtime;

namespace {

class IntegrationSuite : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> appNames() {
  std::vector<std::string> names;
  for (const auto& e : ec::apps::allBenchmarks()) names.push_back(e.name);
  return names;
}

}  // namespace

TEST_P(IntegrationSuite, BoundaryRestartReproducesGoldenOutcome) {
  const auto& entry = ec::apps::findBenchmark(GetParam());

  // Golden run, remembering its verification metric and final iteration.
  rt::Runtime golden;
  auto goldenApp = entry.factory();
  const auto goldenResult = rt::Driver::freshRun(*goldenApp, golden);
  ASSERT_TRUE(goldenResult.verification.pass);

  // Partial run up to an iteration boundary in the middle, then force a full
  // write-back (every candidate is then consistent in NVM) and "crash".
  const int boundary = std::max(1, goldenResult.finalIteration / 2);
  rt::Runtime partial;
  auto partialApp = entry.factory();
  partialApp->setup(partial);
  partialApp->initialize(partial);
  (void)rt::Driver::run(*partialApp, partial, 1, boundary);
  partial.hierarchy().drainAll();  // everything persistent at the boundary

  std::map<rt::ObjectId, std::vector<std::uint8_t>> snapshots;
  for (const auto& object : partial.objects()) {
    if (object.candidate) snapshots[object.id] = partial.dumpObjectNvm(object.id);
  }
  partial.powerLoss();

  // Restart: fresh machine, re-initialise, restore, resume.
  rt::Runtime restart;
  auto restartApp = entry.factory();
  restartApp->setup(restart);
  restartApp->initialize(restart);
  for (const auto& [id, bytes] : snapshots) restart.restoreObject(id, bytes);
  const auto resumed = rt::Driver::run(*restartApp, restart, boundary + 1,
                                       2 * goldenResult.finalIteration);

  EXPECT_FALSE(resumed.interrupted) << resumed.interruptReason;
  EXPECT_TRUE(resumed.verification.pass)
      << GetParam() << ": " << resumed.verification.detail;
  EXPECT_EQ(resumed.finalIteration, goldenResult.finalIteration)
      << "a consistent boundary restart must not need extra iterations";
}

TEST_P(IntegrationSuite, CampaignUnderCandidatePlanClassifiesEverything) {
  const auto& entry = ec::apps::findBenchmark(GetParam());
  ec::crash::CampaignConfig config;
  config.numTests = 8;

  // Persist every candidate at the main-loop end.
  rt::Runtime probe;
  auto app = entry.factory();
  app->setup(probe);
  config.plan = rt::PersistencePlan::atMainLoopEnd(probe.candidateObjects());

  const auto campaign = ec::crash::CampaignRunner(entry.factory, config).run();
  EXPECT_EQ(campaign.tests.size(), 8u);
  for (const auto& test : campaign.tests) {
    EXPECT_GE(test.crashIteration, 1);
    EXPECT_LE(test.restartIteration, test.crashIteration);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, IntegrationSuite,
                         ::testing::ValuesIn(appNames()),
                         [](const auto& info) { return info.param; });

namespace {

class GoldenRunSuite : public ::testing::TestWithParam<std::string> {};

/// Every golden output a campaign reads, compared exactly (the verify metric
/// bitwise). MemEvents are the one output that is allowed to differ.
void expectSameGoldenOutputs(const ec::crash::GoldenStats& direct,
                             const ec::crash::GoldenStats& tracked) {
  EXPECT_EQ(direct.windowAccesses, tracked.windowAccesses);
  EXPECT_EQ(direct.finalIteration, tracked.finalIteration);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(direct.verifyMetric),
            std::bit_cast<std::uint64_t>(tracked.verifyMetric));
  EXPECT_EQ(direct.regionTimeShare, tracked.regionTimeShare);
  EXPECT_EQ(direct.regionIterationEnds, tracked.regionIterationEnds);
  EXPECT_EQ(direct.persistenceOps, tracked.persistenceOps);
  EXPECT_EQ(direct.footprintBytes, tracked.footprintBytes);
  EXPECT_EQ(direct.candidateBytes, tracked.candidateBytes);
  EXPECT_EQ(direct.regionCount, tracked.regionCount);
  ASSERT_EQ(direct.objects.size(), tracked.objects.size());
  for (std::size_t i = 0; i < direct.objects.size(); ++i) {
    const auto& a = direct.objects[i];
    const auto& b = tracked.objects[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.candidate, b.candidate);
    EXPECT_EQ(a.readOnly, b.readOnly);
  }
  EXPECT_EQ(direct.memoStride, tracked.memoStride);
  EXPECT_EQ(direct.memoKeys, tracked.memoKeys);
}

/// Driver::stateKey at every main-loop iteration end of a fresh run.
std::vector<ec::memsim::Digest128> iterationKeys(const rt::AppFactory& factory,
                                                 const rt::PersistencePlan& plan,
                                                 rt::RunKind kind) {
  rt::Runtime runtime;
  runtime.setRunKind(kind);
  runtime.setPlan(plan);
  auto app = factory();
  app->setup(runtime);
  app->initialize(runtime);
  std::vector<ec::memsim::Digest128> keys;
  rt::Driver::run(*app, runtime, 1, 0, [&](int) {
    keys.push_back(rt::Driver::stateKey(*app, runtime));
    return false;
  });
  return keys;
}

/// The restart contract's first third: a tracked run names its state (its
/// value image and host state) exactly as a direct run does, and so does a
/// clock-free restart-kind run.
void expectSameIterationKeys(const rt::AppFactory& factory,
                             const rt::PersistencePlan& plan) {
  const auto direct = iterationKeys(factory, plan, rt::RunKind::Direct);
  const auto tracked = iterationKeys(factory, plan, rt::RunKind::Tracked);
  const auto restart = iterationKeys(factory, plan, rt::RunKind::Restart);
  EXPECT_FALSE(direct.empty());
  EXPECT_TRUE(direct == tracked);
  EXPECT_TRUE(restart == direct);
}

}  // namespace

TEST_P(GoldenRunSuite, DirectGoldenMatchesTracked) {
  const auto& entry = ec::apps::findBenchmark(GetParam());
  ec::crash::CampaignConfig direct;
  direct.numTests = 0;
  ec::crash::CampaignConfig tracked = direct;
  tracked.goldenEvents = true;

  const auto directGolden = ec::crash::CampaignRunner(entry.factory, direct).goldenRun();
  const auto trackedGolden = ec::crash::CampaignRunner(entry.factory, tracked).goldenRun();
  // A default golden never enters the cache simulator; a regression back to
  // a tracked golden shows here first.
  EXPECT_EQ(directGolden.events.loads, 0u);
  EXPECT_GT(trackedGolden.events.loads, 0u);
  expectSameGoldenOutputs(directGolden, trackedGolden);
  expectSameIterationKeys(entry.factory, {});

  // Under the workflow's persist-everywhere plan, whose persistenceOps feed
  // the Equation-5 flush-cost estimate.
  std::vector<rt::ObjectId> candidates;
  for (const auto& object : trackedGolden.objects) {
    if (object.candidate) candidates.push_back(object.id);
  }
  direct.plan = tracked.plan = ec::core::buildEverywherePlan(
      trackedGolden, candidates, ec::core::WorkflowConfig{}.maxFlushesPerActivation);
  const auto directPlanned = ec::crash::CampaignRunner(entry.factory, direct).goldenRun();
  const auto trackedPlanned = ec::crash::CampaignRunner(entry.factory, tracked).goldenRun();
  EXPECT_GT(trackedPlanned.persistenceOps, 0u);
  expectSameGoldenOutputs(directPlanned, trackedPlanned);
  expectSameIterationKeys(entry.factory, direct.plan);
}

INSTANTIATE_TEST_SUITE_P(AllApps, GoldenRunSuite, ::testing::ValuesIn(appNames()),
                         [](const auto& info) { return info.param; });

namespace {

class ReferenceCache : public ::testing::TestWithParam<std::string> {};

/// The golden verify outcome, as bytes: pass, the metric's bits, detail.
std::string goldenOutcome(const rt::AppFactory& factory) {
  rt::Runtime runtime;
  runtime.setRunKind(rt::RunKind::Direct);
  auto app = factory();
  const auto run = rt::Driver::freshRun(*app, runtime);
  const auto metric = std::bit_cast<std::uint64_t>(run.verification.metric);
  std::string out(1, run.verification.pass ? '1' : '0');
  out.append(reinterpret_cast<const char*>(&metric), sizeof metric);
  return out + run.verification.detail;
}

/// A restart whose every object, read-only ones included, holds garbage,
/// verified at its end: the first verify of this process.
void corruptedRestart(const rt::AppFactory& factory) {
  rt::Runtime runtime;
  runtime.setRunKind(rt::RunKind::Restart);
  auto app = factory();
  app->setup(runtime);
  app->initialize(runtime);
  for (const auto& object : runtime.objects()) {
    std::vector<std::uint8_t> garbage(object.bytes);
    for (std::size_t i = 0; i < garbage.size(); ++i) {
      garbage[i] = static_cast<std::uint8_t>(0x3f + 13 * i);
    }
    runtime.restoreObject(object.id, garbage);
  }
  const int last = app->nominalIterations();
  try {
    const auto run = rt::Driver::run(*app, runtime, last, last);
    if (!run.interrupted) return;
  } catch (const std::exception&) {
  }
  (void)app->verify(runtime);
}

/// Runs `body` in a child process and returns what it printed to a pipe, so
/// each side starts from this process's reference caches as they are.
template <typename Body>
std::string inChild(Body body) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    std::string out;
    try {
      out = body();
    } catch (...) {
      ::_exit(3);
    }
    std::size_t done = 0;
    while (done < out.size()) {
      const ssize_t n = ::write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) ::_exit(2);
      done += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string out;
  char buf[512];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  return out;
}

}  // namespace

TEST_P(ReferenceCache, CorruptedRestartFirstLeavesGoldenVerifyUnchanged) {
  const auto& factory = ec::apps::findBenchmark(GetParam()).factory;
  const std::string fresh = inChild([&] { return goldenOutcome(factory); });
  const std::string afterCorruption = inChild([&] {
    corruptedRestart(factory);
    return goldenOutcome(factory);
  });
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(fresh[0], '1') << "the golden run must pass";
  EXPECT_EQ(afterCorruption, fresh);
}

INSTANTIATE_TEST_SUITE_P(CachedReferences, ReferenceCache,
                         ::testing::Values("ft", "ep", "lu", "kmeans"),
                         [](const auto& info) { return info.param; });
