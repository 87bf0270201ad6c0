// kmeans — Lloyd's clustering (Rodinia kmeans analogue).
//
// One code region (Table 1): the assign-and-update loop over all points. The
// only state that matters across iterations is the tiny centroid array (the
// paper's 20-byte critical data object): it is so hot that its NVM copy
// after a bare crash is essentially the initial guess, and the restarted run
// must redo the whole convergence — about half the nominal iteration count
// extra on average (Table 1: 18.2 extra of 36), which the paper's strict
// "no extra iterations" recomputability definition counts as failure.
// Persisting the centroids is almost free and repairs exactly this.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "easycrash/apps/app_base.hpp"
#include "easycrash/apps/registry.hpp"

namespace easycrash::apps {
namespace {

using runtime::RegionScope;
using runtime::Runtime;
using runtime::TrackedArray;
using runtime::TrackedScalar;
using runtime::VerifyOutcome;

class KmeansApp final : public AppBase {
 public:
  static constexpr int kBasePoints = 3584;  // at --scale 1
  static constexpr int kDim = 2;
  static constexpr int kClusters = 3;
  static constexpr int kNominalIterations = 36;  // matches the paper's count
  static constexpr double kShiftEps = 2.0e-5;    // convergence on centroid move
  static constexpr double kSseSlack = 1.02;      // verify: SSE within 2% of ref

  /// `scale` multiplies the point count; the cluster geometry (and with it
  /// the centroid dynamics and iteration schedule) is scale-invariant.
  explicit KmeansApp(int scale = 1)
      : AppBase("kmeans", "Data mining"), numPoints_(kBasePoints * scale) {}

  void setup(Runtime& rt) override {
    rt.declareRegionCount(1);
    points_ = TrackedArray<double>(rt, "points", numPoints_ * kDim,
                                   /*candidate=*/false, /*readOnly=*/true);
    centroids_ = TrackedArray<double>(rt, "centroids", kClusters * kDim,
                                      /*candidate=*/true);
    membership_ = TrackedArray<std::int32_t>(rt, "membership", numPoints_,
                                             /*candidate=*/true);
    accum_ = TrackedArray<double>(rt, "accum", kClusters * (kDim + 1),
                                  /*candidate=*/false);
    shift_ = TrackedScalar<double>(rt, "shift", /*candidate=*/true);
  }

  void initialize(Runtime& rt) override {
    (void)rt;
    AppLcg lcg(1234);
    // Three elongated, overlapping clusters: Lloyd's converges slowly, which
    // reproduces the paper's ~36-iteration schedule.
    const double cx[kClusters] = {0.33, 0.5, 0.67};
    const double cy[kClusters] = {0.5, 0.5, 0.5};
    std::vector<double> pts(static_cast<std::size_t>(numPoints_) * kDim);
    for (int i = 0; i < numPoints_; ++i) {
      const int c = i % kClusters;
      const double gx = gaussianish(lcg), gy = gaussianish(lcg);
      pts[i * kDim + 0] = cx[c] + 0.14 * gx;
      pts[i * kDim + 1] = cy[c] + 0.45 * gy;
    }
    points_.writeRange(0, pts.size(), pts.data());
    membership_.fill(0);
    // Deliberately poor initial centroids (all in one corner): the march to
    // the solution takes the nominal schedule.
    double cen[kClusters * kDim];
    for (int c = 0; c < kClusters; ++c) {
      cen[c * kDim + 0] = 0.05 + 0.015 * c;
      cen[c * kDim + 1] = 0.05 + 0.010 * c;
    }
    centroids_.writeRange(0, kClusters * kDim, cen);
    accum_.fill(0.0);
    shift_.set(1.0);
  }

  void iterate(Runtime& rt, int iteration) override {
    (void)iteration;
    RegionScope region(rt, 0);
    for (int i = 0; i < kClusters * (kDim + 1); ++i) accum_.set(i, 0.0);
    double sse = 0.0;
    // Bulk granularity is per POINT, not per chunk: the Table-1 landscape
    // depends on the centroid block staying so hot it is never evicted
    // (leaving its NVM copy at the initial guess, so restarts redo the whole
    // convergence, ~nominal/2 extra iterations). Chunked multi-KB point
    // bursts change the recency interleaving enough that the dirty centroid
    // block gets written back every sweep, and the landscape collapses to
    // ~1 extra iteration — so each point re-reads the centroids and its own
    // coordinates as two small ranges, preserving the per-point block-touch
    // order of the scalar loop it replaces.
    double pt[kDim];
    double cen[kClusters * kDim];
    for (int i = 0; i < numPoints_; ++i) {
      points_.readRange(static_cast<std::uint64_t>(i) * kDim, kDim, pt);
      centroids_.readRange(0, kClusters * kDim, cen);
      double best = 1.0e300;
      int bestC = 0;
      for (int c = 0; c < kClusters; ++c) {
        double d2 = 0.0;
        for (int d = 0; d < kDim; ++d) {
          const double diff = pt[d] - cen[c * kDim + d];
          d2 += diff * diff;
        }
        if (d2 < best) {
          best = d2;
          bestC = c;
        }
      }
      membership_.set(i, bestC);
      for (int d = 0; d < kDim; ++d) {
        accum_[bestC * (kDim + 1) + d] += pt[d];
      }
      accum_[bestC * (kDim + 1) + kDim] += 1.0;
      sse += best;
      region.iterationEnd();
    }
    // Centroid update + movement measurement.
    double shift = 0.0;
    for (int c = 0; c < kClusters; ++c) {
      const double count = accum_.get(c * (kDim + 1) + kDim);
      if (count <= 0.0) continue;
      for (int d = 0; d < kDim; ++d) {
        const double updated = accum_.get(c * (kDim + 1) + d) / count;
        const double diff = updated - centroids_.get(c * kDim + d);
        shift += diff * diff;
        centroids_.set(c * kDim + d, updated);
      }
    }
    shift_.set(std::sqrt(shift));
    lastSse_ = sse;
  }

  [[nodiscard]] int nominalIterations() const override { return kNominalIterations; }

  [[nodiscard]] bool converged(Runtime& rt, int iteration) override {
    (void)rt;
    (void)iteration;
    const double s = shift_.peek();
    return std::isfinite(s) && s <= kShiftEps;
  }

  [[nodiscard]] VerifyOutcome verify(Runtime& rt) override {
    (void)rt;
    // Reference SSE: run Lloyd's to convergence on the host from the same
    // deterministic initialisation (the known-good clustering quality).
    const double ref = referenceSse(numPoints_);
    VerifyOutcome out;
    out.metric = lastSse_ / ref;
    out.pass = std::isfinite(lastSse_) && lastSse_ <= ref * kSseSlack &&
               shift_.peek() <= kShiftEps * 10.0;
    out.detail = "SSE ratio vs reference = " + std::to_string(out.metric);
    return out;
  }

  /// iterate() leaves the sweep's SSE on the host for verify() to read.
  void hostState(runtime::HostState& state) const override { state.add(lastSse_); }

 private:
  static double gaussianish(AppLcg& lcg) {
    // Sum of uniforms (Irwin-Hall) as a light-weight normal approximation.
    double s = 0.0;
    for (int t = 0; t < 4; ++t) s += lcg.nextDouble();
    return (s - 2.0) * std::sqrt(3.0);
  }

  /// Reference SSE at `numPoints` points, computed once per process and
  /// point count: it depends on no run state, and restarts of one campaign
  /// may verify concurrently (`--isolation none --threads N`).
  [[nodiscard]] static double referenceSse(int numPoints) {
    static std::mutex mutex;
    static std::map<int, double> cache;  // keyed by point count (--scale)
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = cache.find(numPoints);
    if (it != cache.end()) return it->second;
    const double value = hostReferenceSse(numPoints);
    cache.emplace(numPoints, value);
    return value;
  }

  /// Host-side replication of the data generation + Lloyd's to convergence.
  [[nodiscard]] static double hostReferenceSse(int numPoints) {
    AppLcg lcg(1234);
    const double cx[kClusters] = {0.33, 0.5, 0.67};
    const double cy[kClusters] = {0.5, 0.5, 0.5};
    std::vector<double> pts(static_cast<std::size_t>(numPoints) * kDim);
    for (int i = 0; i < numPoints; ++i) {
      const int c = i % kClusters;
      AppLcg& l = lcg;
      const double gx = gaussianish(l), gy = gaussianish(l);
      pts[i * kDim + 0] = cx[c] + 0.14 * gx;
      pts[i * kDim + 1] = cy[c] + 0.45 * gy;
    }
    std::vector<double> cen{0.05, 0.05, 0.065, 0.06, 0.08, 0.07};
    double sse = 0.0;
    for (int it = 0; it < 4 * kNominalIterations; ++it) {
      std::vector<double> acc(kClusters * (kDim + 1), 0.0);
      sse = 0.0;
      for (int i = 0; i < numPoints; ++i) {
        double best = 1.0e300;
        int bestC = 0;
        for (int c = 0; c < kClusters; ++c) {
          double d2 = 0.0;
          for (int d = 0; d < kDim; ++d) {
            const double diff = pts[i * kDim + d] - cen[c * kDim + d];
            d2 += diff * diff;
          }
          if (d2 < best) {
            best = d2;
            bestC = c;
          }
        }
        for (int d = 0; d < kDim; ++d) acc[bestC * (kDim + 1) + d] += pts[i * kDim + d];
        acc[bestC * (kDim + 1) + kDim] += 1.0;
        sse += best;
      }
      double shift = 0.0;
      for (int c = 0; c < kClusters; ++c) {
        const double count = acc[c * (kDim + 1) + kDim];
        if (count <= 0.0) continue;
        for (int d = 0; d < kDim; ++d) {
          const double updated = acc[c * (kDim + 1) + d] / count;
          shift += (updated - cen[c * kDim + d]) * (updated - cen[c * kDim + d]);
          cen[c * kDim + d] = updated;
        }
      }
      if (std::sqrt(shift) <= kShiftEps) break;
    }
    return sse;
  }

  const int numPoints_;  ///< point count (kBasePoints * scale)
  TrackedArray<double> points_, centroids_, accum_;
  TrackedArray<std::int32_t> membership_;
  TrackedScalar<double> shift_;
  double lastSse_ = 0.0;
};

}  // namespace

runtime::AppFactory makeKmeans() {
  return [] { return std::make_unique<KmeansApp>(); };
}

runtime::AppFactory makeKmeansScaled(int scale) {
  return [scale] { return std::make_unique<KmeansApp>(scale); };
}

}  // namespace easycrash::apps
