// EP — embarrassingly parallel Monte Carlo (NPB EP analogue).
//
// Generates Gaussian deviates by the Marsaglia polar method and accumulates
// annulus counts q[0..9] plus the running sums sx, sy. Verification compares
// all accumulators exactly against a deterministic host-side replay (the
// analogue of NPB's hard-coded reference values): any lost batch makes the
// outcome wrong forever, so EP's intrinsic recomputability is ~0 and — as the
// paper observes — even EasyCrash cannot help, because the accumulators are
// updated every one of thousands of tiny iterations and flushing them often
// enough would blow the t_s runtime budget (Equation 5 territory).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "easycrash/apps/app_base.hpp"
#include "easycrash/apps/registry.hpp"

namespace easycrash::apps {
namespace {

using runtime::RegionScope;
using runtime::Runtime;
using runtime::TrackedArray;
using runtime::VerifyOutcome;

class EpApp final : public AppBase {
 public:
  static constexpr int kIterations = 4096;  // batches (paper: 65535)
  static constexpr int kPairsPerBatch = 12;
  static constexpr int kBins = 10;
  static constexpr int kScratch = 4096;  // pair scratch buffer (32KB)

  EpApp() : AppBase("ep", "Monte Carlo") {}

  void setup(Runtime& rt) override {
    rt.declareRegionCount(2);
    scratch_ = TrackedArray<double>(rt, "pair_scratch", kScratch, /*candidate=*/true);
    q_ = TrackedArray<double>(rt, "q_bins", kBins, /*candidate=*/true);
    sums_ = TrackedArray<double>(rt, "gauss_sums", 2, /*candidate=*/true);
  }

  void initialize(Runtime& rt) override {
    (void)rt;
    scratch_.fill(0.0);
    q_.fill(0.0);
    sums_.fill(0.0);
  }

  void iterate(Runtime& rt, int iteration) override {
    const int base = (iteration * kPairsPerBatch * 2) % kScratch;
    constexpr int kBatch = 2 * kPairsPerBatch;
    {  // R1: generate this batch's uniform pairs into the scratch ring. The
       //     batch lands as one range store (two when it wraps the ring).
      RegionScope region(rt, 0);
      AppLcg lcg(100000 + iteration);  // stateless: seed derived from iteration
      double buf[kBatch];
      for (int p = 0; p < kPairsPerBatch; ++p) {
        buf[2 * p] = 2.0 * lcg.nextDouble() - 1.0;
        buf[2 * p + 1] = 2.0 * lcg.nextDouble() - 1.0;
      }
      const int first = std::min(kBatch, kScratch - base);
      scratch_.writeRange(base, first, buf);
      if (first < kBatch) scratch_.writeRange(0, kBatch - first, buf + first);
      for (int p = 0; p < kPairsPerBatch; ++p) region.iterationEnd();
    }
    {  // R2: polar transform and accumulation.
      RegionScope region(rt, 1);
      double buf[kBatch];
      const int first = std::min(kBatch, kScratch - base);
      scratch_.readRange(base, first, buf);
      if (first < kBatch) scratch_.readRange(0, kBatch - first, buf + first);
      for (int p = 0; p < kPairsPerBatch; ++p) {
        const double x = buf[2 * p];
        const double y = buf[2 * p + 1];
        const double t = x * x + y * y;
        if (t >= 1.0 || t == 0.0) continue;  // rejection step
        const double f = std::sqrt(-2.0 * std::log(t) / t);
        const double gx = x * f, gy = y * f;
        const double m = std::max(std::abs(gx), std::abs(gy));
        const int bin = std::min(kBins - 1, static_cast<int>(m));
        q_[bin] += 1.0;
        sums_[0] += gx;
        sums_[1] += gy;
        region.iterationEnd();
      }
    }
  }

  [[nodiscard]] int nominalIterations() const override { return kIterations; }

  [[nodiscard]] VerifyOutcome verify(Runtime& rt) override {
    (void)rt;
    const Reference& ref = reference();
    VerifyOutcome out;
    double worst = std::max(std::abs(sums_.peek(0) - ref.sx),
                            std::abs(sums_.peek(1) - ref.sy));
    for (int b = 0; b < kBins; ++b) {
      worst = std::max(worst, std::abs(q_.peek(b) - ref.q[b]));
    }
    out.metric = worst;
    // NPB EP verifies sums to 1e-8 relative; counts must match exactly.
    out.pass = worst <= 1.0e-8 * std::max(1.0, std::abs(ref.sx));
    out.detail = "max accumulator error = " + std::to_string(worst);
    return out;
  }

 private:
  /// The accumulators a correct run ends with: a host-side deterministic
  /// replay (the analogue of NPB's hard-coded reference values). It depends
  /// on no run state, so one process computes it once.
  struct Reference {
    double q[kBins];
    double sx;
    double sy;
  };

  [[nodiscard]] static const Reference& reference() {
    static const Reference ref = [] {
      Reference r{};
      for (int iteration = 1; iteration <= kIterations; ++iteration) {
        AppLcg lcg(100000 + iteration);
        for (int p = 0; p < kPairsPerBatch; ++p) {
          const double x = 2.0 * lcg.nextDouble() - 1.0;
          const double y = 2.0 * lcg.nextDouble() - 1.0;
          const double t = x * x + y * y;
          if (t >= 1.0 || t == 0.0) continue;
          const double f = std::sqrt(-2.0 * std::log(t) / t);
          const double gx = x * f, gy = y * f;
          const double m = std::max(std::abs(gx), std::abs(gy));
          r.q[std::min(kBins - 1, static_cast<int>(m))] += 1.0;
          r.sx += gx;
          r.sy += gy;
        }
      }
      return r;
    }();
    return ref;
  }

  TrackedArray<double> scratch_, q_, sums_;
};

}  // namespace

runtime::AppFactory makeEp() {
  return [] { return std::make_unique<EpApp>(); };
}

}  // namespace easycrash::apps
