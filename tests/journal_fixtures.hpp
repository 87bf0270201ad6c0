// Journal fixtures shared by the journal, fold and report tests: random
// decided sets journaled through TrialJournal, and shard journals split from
// one unsharded campaign's journal. Campaigns no longer shard, so the shard
// journals the fold (src/crash/shard.cpp) reads are built here the way
// nvbench's probe builds them: one unsharded campaign's decided records,
// dealt out by trial index under a shard header.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/resilience.hpp"

namespace easycrash::fixtures {

inline std::string readFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// A synthetic decided set: each index is a trial, a failure or undecided.
struct DecidedSet {
  crash::JournalHeader header;
  std::map<std::size_t, crash::CrashTestRecord> trials;
  std::map<std::size_t, crash::TrialFailure> failures;
};

inline DecidedSet randomDecidedSet(std::mt19937_64& rng) {
  const auto below = [&rng](std::uint64_t n) { return rng() % n; };
  DecidedSet set;
  set.header.app = "synthetic";
  set.header.seed = rng();  // full 64-bit: no double holds most of these
  set.header.tests = 1 + static_cast<int>(below(40));
  set.header.mode = below(2) ? "nvm" : "coherent";
  set.header.planFingerprint = rng();
  set.header.windowAccesses = rng();
  set.header.candidates = {{1, "u"}, {4, "r\"hs"}, {9, "p"}};
  const char* kinds[] = {"exception", "crashed", "killed", "oom", "protocol"};
  for (std::size_t t = 0; t < static_cast<std::size_t>(set.header.tests); ++t) {
    const auto roll = below(10);
    if (roll < 7) {
      crash::CrashTestRecord r;
      r.crashAccessIndex = rng();
      r.region = static_cast<runtime::PointId>(below(5)) - 1;
      for (std::uint64_t d = below(3); d > 0; --d) {
        r.regionPath.push_back(static_cast<runtime::PointId>(below(4)));
      }
      r.crashIteration = static_cast<int>(below(100));
      r.restartIteration = r.crashIteration + static_cast<int>(below(3));
      r.response = static_cast<crash::Response>(below(4));
      r.extraIterations = static_cast<int>(below(4));
      for (const auto& candidate : set.header.candidates) {
        if (below(2)) {
          r.inconsistentRate[candidate.id] =
              static_cast<double>(rng() >> 11) / static_cast<double>(1ull << 53);
        }
      }
      r.note = "note " + std::to_string(below(1000)) + (below(2) ? " \"q\"\n" : "");
      set.trials[t] = std::move(r);
    } else if (roll < 9) {
      crash::TrialFailure f;
      f.trial = t;
      f.crashAccessIndex = rng();
      f.timeout = below(2) != 0;
      f.kind = kinds[below(5)];
      f.attempts = 1 + static_cast<int>(below(3));
      f.reason = "reason " + std::to_string(below(1000));
      f.regionPath = below(2) ? "R1>R2" : "";
      set.failures[t] = std::move(f);
    }
  }
  return set;
}

/// Journal the decided indices `keep` accepts through TrialJournal, in a
/// shuffled decision order and at a random flush cadence (so finished and
/// segment-appended journals both occur; `close` picks which).
inline void journalSet(const DecidedSet& set, const crash::JournalHeader& header,
                       const std::string& path, std::mt19937_64& rng,
                       const std::function<bool(std::size_t)>& keep, bool close) {
  std::remove(path.c_str());
  std::vector<std::size_t> order;
  for (const auto& [t, record] : set.trials) if (keep(t)) order.push_back(t);
  for (const auto& [t, failure] : set.failures) if (keep(t)) order.push_back(t);
  std::shuffle(order.begin(), order.end(), rng);
  std::string segments;
  {
    crash::TrialJournal journal(path, header, 1 + static_cast<int>(rng() % 4));
    journal.flush();
    for (const std::size_t t : order) {
      if (set.trials.count(t)) {
        journal.recordTrial(t, set.trials.at(t));
      } else {
        journal.recordFailure(set.failures.at(t));
      }
    }
    journal.flush();
    segments = readFile(path);
  }
  // Unclosed: the appended segments as a killed campaign leaves them, before
  // the close-time compaction.
  if (!close) crash::atomicWriteFile(path, segments);
}

/// The k shard journals `<journalPath>.shard<i>` of the unsharded campaign
/// journal at `journalPath`: its header stamped with the shard coordinates,
/// the campaign hash and `golden`'s candidate objects, shard i holding the
/// decided trials and failures t with t % k == i. Returns their paths.
inline std::vector<std::string> splitIntoShardJournals(const std::string& journalPath,
                                                       const crash::GoldenStats& golden,
                                                       int k) {
  const crash::JournalReplay campaign = crash::readJournal(journalPath);
  std::vector<std::string> paths;
  for (int i = 0; i < k; ++i) {
    crash::JournalHeader header = campaign.header;
    header.shardIndex = i;
    header.shardCount = k;
    header.campaignHash = crash::campaignHash(header);
    for (const auto& object : golden.objects) {
      if (object.candidate) header.candidates.push_back({object.id, object.name});
    }
    paths.push_back(journalPath + ".shard" + std::to_string(i));
    std::remove(paths.back().c_str());
    const auto owned = [&](std::size_t t) {
      return t % static_cast<std::size_t>(k) == static_cast<std::size_t>(i);
    };
    crash::TrialJournal journal(paths.back(), header, 1 << 30);
    for (const auto& [t, record] : campaign.trials) {
      if (owned(t)) journal.recordTrial(t, record);
    }
    for (const auto& [t, failure] : campaign.failures) {
      if (owned(t)) journal.recordFailure(failure);
    }
    journal.close();
  }
  return paths;
}

}  // namespace easycrash::fixtures
