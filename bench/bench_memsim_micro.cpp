// Microbenchmarks of the memory-system simulator itself (google-benchmark):
// hit/miss paths, the three flush-instruction classes (§2.1: flushing clean
// or non-resident blocks is much cheaper than flushing dirty ones), the
// post-crash inconsistency scan, and end-to-end app-iteration throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "easycrash/apps/registry.hpp"
#include "easycrash/common/rng.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/shard.hpp"
#include "easycrash/memsim/hierarchy.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/runtime/tracked.hpp"

namespace ms = easycrash::memsim;

namespace {

struct Sim {
  Sim() : nvm(64), cache(ms::CacheConfig::scaledDefault(), nvm) {}
  ms::NvmStore nvm;
  ms::CacheHierarchy cache;
};

/// Interquartile range of repetition times (linear interpolation between
/// order statistics), reported next to the median.
double interquartileRange(const std::vector<double>& v) {
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
  };
  return sorted.empty() ? 0.0 : quantile(0.75) - quantile(0.25);
}

void BM_L1HitLoad(benchmark::State& state) {
  Sim s;
  std::uint64_t v = 0;
  s.cache.store(0, {reinterpret_cast<const std::uint8_t*>(&v), 8});
  for (auto _ : state) {
    s.cache.load(0, {reinterpret_cast<std::uint8_t*>(&v), 8});
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_L1HitLoad)->ComputeStatistics("iqr", interquartileRange);

void BM_StreamingStoreMiss(benchmark::State& state) {
  Sim s;
  std::uint64_t addr = 0;
  const std::uint64_t v = 42;
  for (auto _ : state) {
    s.cache.store(addr, {reinterpret_cast<const std::uint8_t*>(&v), 8});
    addr += 64;  // always a fresh block: miss + fill + eventual eviction
  }
}
BENCHMARK(BM_StreamingStoreMiss);

// Steady-state miss path: 8-byte sequential accesses over a ring of Arg0
// bytes, loads (Arg1 = 0) or stores (Arg1 = 1). 7 of 8 accesses hit L1's
// MRU line; the eighth takes a block through the fill/evict path, from the
// LLC when the ring (32 KB) fits the 64 KB LLC and from NVM when it (2 MB)
// does not. Unlike BM_StreamingStoreMiss no access grows the value image:
// the ring is written, drained and then swept once before timing starts.
// One pass spreads 10-30% on a shared VM, so compare two builds by their
// medians and IQRs (the "_iqr" aggregate) over alternating runs of
//   bench_memsim_micro --benchmark_filter='BM_Ring|BM_L1HitLoad'
//       --benchmark_repetitions=11 --benchmark_report_aggregates_only=true
// One block's trip through the miss path costs 8 x (ns/access) less 7
// L1-MRU hits (BM_L1HitLoad).
void BM_Ring(benchmark::State& state) {
  Sim s;
  const auto ringBytes = static_cast<std::uint64_t>(state.range(0));
  const bool store = state.range(1) != 0;
  std::uint64_t v = 42;
  const auto access = [&](std::uint64_t addr) {
    if (store) {
      s.cache.store(addr, {reinterpret_cast<const std::uint8_t*>(&v), 8});
    } else {
      s.cache.load(addr, {reinterpret_cast<std::uint8_t*>(&v), 8});
    }
  };
  for (std::uint64_t a = 0; a < ringBytes; a += 8) {
    s.cache.store(a, {reinterpret_cast<const std::uint8_t*>(&v), 8});
  }
  s.cache.drainAll();
  for (std::uint64_t a = 0; a < ringBytes; a += 8) access(a);  // warm-up pass
  std::uint64_t addr = 0;
  for (auto _ : state) {
    access(addr);
    benchmark::DoNotOptimize(v);
    addr = (addr + 8) & (ringBytes - 1);
  }
  state.SetLabel(std::string(store ? "store" : "load") + "/" +
                 (ringBytes <= s.cache.config().levels.back().sizeBytes ? "llc-hit"
                                                                        : "llc-miss"));
}
BENCHMARK(BM_Ring)
    ->Args({32 << 10, 0})
    ->Args({32 << 10, 1})
    ->Args({2 << 20, 0})
    ->Args({2 << 20, 1})
    ->ComputeStatistics("iqr", interquartileRange);

void BM_FlushDirtyBlock(benchmark::State& state) {
  Sim s;
  const std::uint64_t v = 7;
  for (auto _ : state) {
    s.cache.store(0, {reinterpret_cast<const std::uint8_t*>(&v), 8});
    s.cache.flushBlock(0, ms::FlushKind::Clwb);
  }
}
BENCHMARK(BM_FlushDirtyBlock);

void BM_FlushCleanBlock(benchmark::State& state) {
  Sim s;
  const std::uint64_t v = 7;
  s.cache.store(0, {reinterpret_cast<const std::uint8_t*>(&v), 8});
  s.cache.flushBlock(0, ms::FlushKind::Clwb);
  for (auto _ : state) {
    s.cache.flushBlock(0, ms::FlushKind::Clwb);
  }
}
BENCHMARK(BM_FlushCleanBlock);

void BM_FlushNonResident(benchmark::State& state) {
  Sim s;
  for (auto _ : state) {
    s.cache.flushBlock(1 << 20, ms::FlushKind::Clflushopt);
  }
}
BENCHMARK(BM_FlushNonResident);

void BM_InconsistencyScan64KB(benchmark::State& state) {
  Sim s;
  easycrash::Rng rng(1);
  for (int i = 0; i < 8192; ++i) {
    const std::uint64_t v = rng();
    s.cache.store(i * 8ULL, {reinterpret_cast<const std::uint8_t*>(&v), 8});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.cache.inconsistentBytes(0, 64 * 1024));
  }
}
BENCHMARK(BM_InconsistencyScan64KB);

// The post-mortem scan fast path (LLC dirty list + vectorized compare)
// against the probe-every-level scalar walk it replaces. Arg0 is the percent
// of the 64 KiB footprint re-dirtied after a full drain (0 = clean: the scan
// is pure skip work; 5 = sparse: a handful of compares; 60 = dense: the
// compare kernel dominates); Arg1 flips setScanFastPath. Both settings
// return the same count — the ratio between the two legs at fixed density
// is the mechanical overhead the dirty list + kernel remove.
void BM_Postmortem(benchmark::State& state) {
  Sim s;
  easycrash::Rng rng(3);
  constexpr std::uint64_t kBytes = 64 * 1024;
  constexpr std::uint64_t kBlocks = kBytes / 64;
  // Materialise the footprint, then drain so every block starts clean and
  // NVM-identical; re-dirty the requested fraction of blocks.
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    const std::uint64_t v = rng();
    s.cache.store(b * 64, {reinterpret_cast<const std::uint8_t*>(&v), 8});
  }
  s.cache.drainAll();
  const auto densityPct = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    if (rng.below(100) < densityPct) {
      const std::uint64_t v = rng();
      s.cache.store(b * 64, {reinterpret_cast<const std::uint8_t*>(&v), 8});
    }
  }
  s.cache.setScanFastPath(state.range(1) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.cache.inconsistentBytes(0, kBytes));
  }
  state.SetLabel(std::string(state.range(1) ? "indexed" : "scalar") + "/" +
                 (densityPct == 0 ? "clean" : densityPct <= 5 ? "sparse" : "dense"));
  state.counters["dirty_blocks"] = static_cast<double>(s.cache.dirtyBlockCount());
}
BENCHMARK(BM_Postmortem)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({5, 0})
    ->Args({5, 1})
    ->Args({60, 0})
    ->Args({60, 1});

// The block-granular range fast path against the element-wise scalar loop
// it replaces (Runtime::setBulk(false) lowers the same TrackedArray calls to
// per-element accesses — byte-identical observables, so the ratio between
// the two arg-0 values is pure mechanical overhead removed). Arg1 is the
// element count: 128 doubles (1 KB) sweep an L1-resident array, where the
// per-element tag/MRU/dirty work the fast path collapses is the whole cost;
// 64 Ki doubles (512 KiB) stream 8× the LLC, where both paths pay the same
// per-block miss+evict machinery and converge on the fill bandwidth.
void BM_RangeAccess(benchmark::State& state) {
  easycrash::runtime::Runtime rt;
  rt.setBulk(state.range(0) != 0);
  const auto kElems = static_cast<std::uint64_t>(state.range(1));
  easycrash::runtime::TrackedArray<double> a(rt, "a", kElems, true);
  std::vector<double> buf(kElems, 1.5);
  for (auto _ : state) {
    a.writeRange(0, kElems, buf.data());
    a.readRange(0, kElems, buf.data());
    benchmark::DoNotOptimize(buf[0]);
  }
  state.SetLabel(std::string(state.range(0) ? "bulk" : "elementwise") +
                 (kElems * sizeof(double) <= 2048 ? "/resident" : "/streaming"));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * kElems);
}
BENCHMARK(BM_RangeAccess)
    ->Args({0, 128})
    ->Args({1, 128})
    ->Args({0, 1 << 16})
    ->Args({1, 1 << 16})
    ->Unit(benchmark::kMicrosecond);

// The direct accessor (docs/INTERNALS.md "Direct access path"): an app
// kernel's element loop, a[i] = a[i] + 0.25*b[i] with b[i] += 1e-6 and a
// running sum (five accesses per element), over two 64 Ki-double arrays in a
// direct run. Arg0 is the run kind: 0 the golden kind (RunKind::Direct, its
// crash window open, so every access ticks the clock and the region
// counter), 1 the clock-free restart kind. Arg1 arms the state digest, with
// one stateDigest() per pass as at a memo-checked iteration end, so stores
// also test and, once per block per pass, mark its dirty byte. Items are
// accesses.
void BM_DirectAccess(benchmark::State& state) {
  const bool restart = state.range(0) != 0;
  const bool digest = state.range(1) != 0;
  constexpr std::uint64_t kElems = 64 * 1024;
  easycrash::runtime::Runtime rt;
  rt.setRunKind(restart ? easycrash::runtime::RunKind::Restart
                        : easycrash::runtime::RunKind::Direct);
  if (digest) rt.armStateDigest();
  easycrash::runtime::TrackedArray<double> a(rt, "a", kElems, true);
  easycrash::runtime::TrackedArray<double> b(rt, "b", kElems, true);
  for (std::uint64_t i = 0; i < kElems; ++i) {
    a.set(i, 0.5 * static_cast<double>(i));
    b.set(i, 1.0);
  }
  rt.setCrashWindow(true);
  double sum = 0.0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < kElems; ++i) {
      const double v = a.get(i) + 0.25 * b.get(i);
      a.set(i, v);
      b[i] += 1.0e-6;
      sum += v;
    }
    if (digest) benchmark::DoNotOptimize(rt.stateDigest());
    benchmark::DoNotOptimize(sum);
    benchmark::ClobberMemory();
  }
  rt.setCrashWindow(false);
  state.SetLabel(std::string(restart ? "restart-kind" : "golden-kind") +
                 (digest ? "/digest" : "/no-digest"));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 5 *
                          static_cast<std::int64_t>(kElems));
}
BENCHMARK(BM_DirectAccess)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_AppIteration(benchmark::State& state) {
  const auto& entry = easycrash::apps::allBenchmarks()[static_cast<std::size_t>(
      state.range(0))];
  easycrash::runtime::Runtime rt;
  auto app = entry.factory();
  app->setup(rt);
  app->initialize(rt);
  int iteration = 1;
  for (auto _ : state) {
    try {
      app->iterate(rt, iteration);
    } catch (const easycrash::runtime::AppInterrupt&) {
      // Physics apps eventually leave their stable regime when iterated far
      // beyond the nominal schedule; reset and keep measuring.
      app->initialize(rt);
      iteration = 0;
    }
    iteration = iteration % app->nominalIterations() + 1;
  }
  state.SetLabel(entry.name);
}
BENCHMARK(BM_AppIteration)->DenseRange(0, 10)->Unit(benchmark::kMillisecond);

// End-to-end campaign-trial throughput: one full fixed-seed campaign (golden
// run + 4 crash tests, single-threaded) against the SP benchmark. This is
// the number that bounds real campaign wall-clock, so it is the headline
// entry in the checked-in perf baseline (scripts/bench_baseline.py).
// Deterministic simulation counts from a campaign result, exported as user
// counters. The perf gate (scripts/bench_baseline.py) byte-compares these
// against the baseline's: the simulator's work must not silently change
// shape under a perf PR, and the profile sampler must keep seeing every
// block touch. The campaign's golden run is direct-to-NVM, so the
// golden_* counters hold only its iteration bookmark's events; a jump means
// the golden run went back through the cache simulator.
void setCampaignCounters(benchmark::State& state,
                         const easycrash::crash::CampaignResult& result) {
  state.counters["golden_accesses"] = static_cast<double>(
      result.golden.events.loads + result.golden.events.stores);
  state.counters["golden_nvm_writes"] =
      static_cast<double>(result.golden.events.nvmBlockWrites);
  std::uint64_t samples = 0;
  for (const auto& object : result.profile.objects) {
    samples += object.accesses;
  }
  state.counters["profile_samples"] = static_cast<double>(samples);
}

void BM_CampaignTrialThroughput(benchmark::State& state) {
  const auto& entry = easycrash::apps::findBenchmark("sp");
  easycrash::crash::CampaignConfig config;
  config.seed = 1;
  config.numTests = 4;
  config.threads = 1;
  config.appLabel = entry.name;
  easycrash::crash::CampaignResult last;
  for (auto _ : state) {
    last = easycrash::crash::CampaignRunner(entry.factory, config).run();
    benchmark::DoNotOptimize(last.tests.size());
  }
  state.SetItemsProcessed(state.iterations() * config.numTests);
  setCampaignCounters(state, last);
}
BENCHMARK(BM_CampaignTrialThroughput)->Unit(benchmark::kMillisecond);

// Trial-count scaling of the sweep evaluator: it captures every pending
// crash point in ONE crashing run (O(W) tracked accesses, where replaying
// the crashing run per trial cost O(N·W/2)) and pipelines the restarts
// behind it. Run at N=25 and N=100: the growth from 25 to 100 shows the
// crashing phase no longer dominating. Arg0 = trial count.
void BM_CampaignNScaling(benchmark::State& state) {
  const auto& entry = easycrash::apps::findBenchmark("sp");
  easycrash::crash::CampaignConfig config;
  config.seed = 7;
  config.numTests = static_cast<int>(state.range(0));
  config.threads = 1;
  config.appLabel = entry.name;
  easycrash::crash::CampaignResult last;
  for (auto _ : state) {
    last = easycrash::crash::CampaignRunner(entry.factory, config).run();
    benchmark::DoNotOptimize(last.tests.size());
  }
  state.SetItemsProcessed(state.iterations() * config.numTests);
  setCampaignCounters(state, last);
}
BENCHMARK(BM_CampaignNScaling)->Arg(25)->Arg(100)->Unit(benchmark::kMillisecond);

// Sharded campaign execution (docs/INTERNALS.md "Sharded campaigns"). One
// shard's end-to-end critical path at k=1/2/4: shard 0's campaign — the
// golden run every shard repeats plus its N/k owned trials — then the
// `nvct merge` fold of all k shard journals into the canonical compact
// journal. With k machines running their shards concurrently, this per-
// shard time IS the campaign wall-clock, so the k=1/k ratio is the fan-out
// speedup (bounded below 1/k by the replicated golden run and the merge).
// The k shard journals are produced once outside the timed loop; merge
// time is also broken out as merge_ms — it grows with decided trials, not
// with the simulation, so it stays a rounding error next to the campaign.
void BM_ShardedCampaign(benchmark::State& state) {
  namespace cr = easycrash::crash;
  const int shards = static_cast<int>(state.range(0));
  const auto& entry = easycrash::apps::findBenchmark("is");
  const int tests = 1536;
  const auto configFor = [&](int index) {
    cr::CampaignConfig config;
    config.seed = 1;
    config.numTests = tests;
    config.threads = 1;
    config.appLabel = entry.name;
    config.shard.index = index;
    config.shard.count = shards;
    return config;
  };
  const std::string dir = std::filesystem::temp_directory_path().string();
  std::vector<std::string> paths;
  for (int i = 0; i < shards; ++i) {
    std::string path = dir + "/bench_shard_" + std::to_string(shards) + "_" +
                       std::to_string(i) + ".jsonl";
    std::remove(path.c_str());
    auto config = configFor(i);
    config.resilience.journalPath = path;
    (void)cr::CampaignRunner(entry.factory, config).run();
    paths.push_back(std::move(path));
  }
  cr::CampaignResult last;
  double mergeMs = 0.0;
  for (auto _ : state) {
    last = cr::CampaignRunner(entry.factory, configFor(0)).run();
    const auto mergeStart = std::chrono::steady_clock::now();
    const auto merge = cr::mergeShardJournals(paths);
    const std::string journal = cr::renderMergedJournal(merge);
    benchmark::DoNotOptimize(journal.size());
    mergeMs += std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - mergeStart)
                   .count();
  }
  for (const auto& path : paths) std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() * tests);
  state.counters["merge_ms"] =
      mergeMs / static_cast<double>(state.iterations());
  setCampaignCounters(state, last);
}
BENCHMARK(BM_ShardedCampaign)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The golden layer's cost at a large footprint (CG at 16x its bundled
// problem size). Arg 0: a fully-tracked golden run — what a campaign pays
// only when it asks for golden MemEvents (CampaignConfig::goldenEvents, set
// by the workflow's Equation-5 campaigns). Arg 1: the golden run as every
// other campaign executes it — direct-mode. Same windowAccesses,
// finalIteration and verify metric either way; only the cache simulation is
// skipped, so the recorded arg0/arg1 gap is what the direct golden saves
// every campaign.
void BM_LargeFootprintGolden(benchmark::State& state) {
  const bool direct = state.range(0) != 0;
  easycrash::crash::CampaignConfig config;
  config.seed = 7;
  config.appLabel = "cg@s16";
  const auto factory = easycrash::apps::scaledBenchmarkFactory("cg", 16);
  std::uint64_t window = 0;
  for (auto _ : state) {
    easycrash::runtime::Runtime rt(config.cache);
    rt.setRunKind(direct ? easycrash::runtime::RunKind::Direct
                         : easycrash::runtime::RunKind::Tracked);
    auto app = factory();
    const auto result = easycrash::runtime::Driver::freshRun(*app, rt);
    benchmark::DoNotOptimize(result.finalIteration);
    window = rt.windowAccesses();
  }
  state.SetLabel(direct ? "direct-golden" : "tracked-golden");
  state.counters["window_accesses"] = static_cast<double>(window);
}
BENCHMARK(BM_LargeFootprintGolden)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// A complete campaign at the same 16x footprint: the direct golden run, the
// tracked sweep and 2 crash tests. This is the configuration the
// nvct_scale_cg fixture runs under a ctest timeout.
void BM_LargeFootprintCampaign(benchmark::State& state) {
  easycrash::crash::CampaignConfig config;
  config.seed = 7;
  config.numTests = 2;
  config.threads = 1;
  config.appLabel = "cg@s16";
  const auto factory = easycrash::apps::scaledBenchmarkFactory("cg", 16);
  easycrash::crash::CampaignResult last;
  for (auto _ : state) {
    last = easycrash::crash::CampaignRunner(factory, config).run();
    benchmark::DoNotOptimize(last.tests.size());
  }
  state.SetItemsProcessed(state.iterations() * config.numTests);
  state.counters["golden_accesses"] = static_cast<double>(
      last.golden.events.loads + last.golden.events.stores);
}
BENCHMARK(BM_LargeFootprintCampaign)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
