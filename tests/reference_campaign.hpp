// Per-trial reference model of a crash-test campaign: the oracle the sweep
// evaluator is held to (docs/INTERNALS.md "The single-sweep trial
// evaluator"). Each test runs the paper's NVCT procedure on its own —
// re-draw the crash point from Rng(seed), arm a real crash, catch the
// CrashEvent, take the post-mortem, restart in direct mode and classify
// S1-S4 — using nothing but the runtime's public API. Its restarts keep the
// crash clock (RunKind::Direct), so comparing against the campaign's
// clock-free RunKind::Restart restarts also checks that dropping the clock
// changes no outcome. A crashing run or
// restart that throws becomes the failure the campaign must record for that
// trial after 1 + maxRetries attempts, named by the runtime's throw site.
//
// Deliberately naive: no capture sharing, no restart grouping, no
// convergence memo (every restart runs to its end), no threads, no
// isolation, and every run on the runtime's scalar reference paths —
// element-wise range accesses (setBulk(false)) and the probe-every-level
// post-mortem scan (setScan(false)) — so every comparison against the
// campaign also checks both fast paths end to end. Only the unsharded
// campaign is modelled.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "easycrash/common/rng.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/runtime/runtime.hpp"

namespace easycrash::reference {

namespace detail {

/// Route a runtime through the scalar reference paths the fast paths must
/// match byte for byte.
inline void scalarPaths(runtime::Runtime& rt) {
  rt.setBulk(false);
  rt.setScan(false);
}

/// One attempt of one trial: the decided record, or the exception that
/// killed the crashing run or the restart.
struct Attempt {
  crash::CrashTestRecord record;
  std::optional<std::string> error;
  std::string errorPath;  ///< formatted region path of the failure
};

inline Attempt runTrial(const runtime::AppFactory& factory,
                        const crash::CampaignConfig& config,
                        const crash::GoldenStats& golden, std::uint64_t crashIndex) {
  Attempt out;
  crash::CrashTestRecord& record = out.record;
  record.crashAccessIndex = crashIndex;
  std::map<runtime::ObjectId, std::vector<std::uint8_t>> snapshots;
  {
    runtime::Runtime rt(config.cache);
    scalarPaths(rt);
    rt.setPlan(config.plan);
    auto app = factory();
    app->setup(rt);
    app->initialize(rt);
    rt.armCrash(crashIndex);
    try {
      (void)runtime::Driver::run(*app, rt, 1, golden.finalIteration);
      throw std::logic_error("armed crash did not fire");
    } catch (const runtime::CrashEvent& crash) {
      record.region = crash.activeRegion;
      record.regionPath = crash.regionPath;
      record.crashIteration = crash.iteration;
      for (const auto& object : rt.objects()) {
        if (!object.candidate) continue;
        record.inconsistentRate[object.id] = rt.inconsistentRate(object.id);
        snapshots[object.id] = config.mode == crash::SnapshotMode::NvmImage
                                   ? rt.dumpObjectNvm(object.id)
                                   : rt.dumpObjectCurrent(object.id);
      }
      record.restartIteration = config.mode == crash::SnapshotMode::NvmImage
                                    ? rt.bookmarkedIterationNvm()
                                    : crash.iteration;
    } catch (const std::exception& e) {
      out.error = e.what();
      out.errorPath = crash::formatRegionPath(rt.throwRegionPath());
      return out;
    }
  }

  runtime::Runtime rt(config.cache);
  rt.setRunKind(runtime::RunKind::Direct);
  scalarPaths(rt);
  rt.setPlan(config.plan);
  auto app = factory();
  app->setup(rt);
  app->initialize(rt);
  for (const auto& [id, bytes] : snapshots) rt.restoreObject(id, bytes);
  try {
    const auto rerun = runtime::Driver::run(*app, rt, record.restartIteration,
                                            golden.finalIteration * config.maxIterationFactor);
    if (rerun.interrupted) {
      record.response = crash::Response::S3;
      record.note = rerun.interruptReason;
    } else if (!rerun.verification.pass) {
      record.response = crash::Response::S4;
      record.note = rerun.verification.detail;
    } else {
      record.extraIterations = std::max(0, rerun.finalIteration - golden.finalIteration);
      record.response = record.extraIterations == 0 ? crash::Response::S1
                                                     : crash::Response::S2;
      record.note = rerun.verification.detail;
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    out.errorPath = crash::formatRegionPath(record.regionPath);
  }
  return out;
}

}  // namespace detail

/// The campaign `config` describes, one crashing run per test. Fills the
/// golden fields the CSV and journal need (window, iterations, objects),
/// the decided records and the failures, both in test-index order.
inline crash::CampaignResult referenceCampaign(const runtime::AppFactory& factory,
                                               const crash::CampaignConfig& config) {
  crash::CampaignResult result;
  result.plannedTests = config.numTests;
  {
    runtime::Runtime rt(config.cache);
    detail::scalarPaths(rt);
    rt.setPlan(config.plan);
    auto app = factory();
    const auto run = runtime::Driver::freshRun(*app, rt);
    result.golden.app = app->info().name;
    result.golden.windowAccesses = rt.windowAccesses();
    result.golden.finalIteration = run.finalIteration;
    result.golden.objects = rt.objects();
  }

  Rng rng(config.seed);
  const int maxAttempts = 1 + std::max(0, config.resilience.maxRetries);
  for (int t = 0; t < config.numTests; ++t) {
    const std::uint64_t index = rng.between(1, result.golden.windowAccesses);
    for (int attempt = 1;; ++attempt) {
      detail::Attempt outcome = detail::runTrial(factory, config, result.golden, index);
      if (!outcome.error) {
        result.tests.push_back(std::move(outcome.record));
        break;
      }
      if (attempt == maxAttempts) {
        crash::TrialFailure failure;
        failure.trial = static_cast<std::size_t>(t);
        failure.crashAccessIndex = index;
        failure.attempts = attempt;
        failure.reason = *outcome.error;
        failure.regionPath = outcome.errorPath;
        result.failures.push_back(std::move(failure));
        break;
      }
    }
  }
  return result;
}

/// Journal `campaign` to `path` through TrialJournal under the header the
/// campaign writes for `config` (unsharded).
inline void writeReferenceJournal(const crash::CampaignResult& campaign,
                                  const crash::CampaignConfig& config,
                                  const std::string& path) {
  crash::JournalHeader header;
  header.app = config.appLabel.empty() ? campaign.golden.app : config.appLabel;
  header.seed = config.seed;
  header.tests = config.numTests;
  header.mode = config.mode == crash::SnapshotMode::NvmImage ? "nvm" : "coherent";
  header.planFingerprint = crash::planFingerprint(config.plan);
  header.windowAccesses = campaign.golden.windowAccesses;
  crash::TrialJournal journal(path, header, config.resilience.journalFlushEvery);
  // Every trial is decided: it is the next failure or else the next record.
  std::size_t nextTest = 0;
  std::size_t nextFailure = 0;
  for (std::size_t t = 0; t < static_cast<std::size_t>(config.numTests); ++t) {
    if (nextFailure < campaign.failures.size() &&
        campaign.failures[nextFailure].trial == t) {
      journal.recordFailure(campaign.failures[nextFailure++]);
    } else {
      journal.recordTrial(t, campaign.tests.at(nextTest++));
    }
  }
  journal.close();
}

}  // namespace easycrash::reference
