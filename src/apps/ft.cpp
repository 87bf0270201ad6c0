// FT — spectral-method kernel (NPB FT analogue).
//
// Time-evolves the heat equation in Fourier space: the spectrum Xf decays
// cumulatively, one multiplicative step per main-loop iteration (R1), is
// transformed to physical space by an in-place unitary inverse FFT (R2, R3),
// and sampled into a per-iteration checksum array plus a running total (R4)
// — NPB's per-iteration checksum verification. Acceptance verification
// checks every checksum entry against a direct DFT evaluation of the
// analytically-known decayed spectrum, and additionally checks Parseval
// energy.
//
// Recomputability mechanics: Xf is genuine cross-iteration state rewritten
// wholesale every iteration. After a crash, its NVM image mixes modes from
// different generations — modes that then re-evolve with the wrong exponent,
// failing the checksum band. Because the very first region of each iteration
// rewrites Xf, even an end-of-iteration flush leaves a wide tear-exposure
// window, which is why FT remains the weakest benchmark even with EasyCrash
// (the paper picks FT as the lowest-recomputability case in Figure 10).
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
using runtime::TrackedScalar;
using runtime::VerifyOutcome;

class FtApp final : public AppBase {
 public:
  static constexpr int kN = 4096;  // modes; each array is kN doubles = 32KB
  static constexpr int kLogN = 12;
  static constexpr int kIterations = 10;    // paper: 20
  static constexpr int kSamples = 4;        // checksum positions per iteration
  static constexpr double kChecksumTol = 1.0e-8;
  static constexpr double kEnergyTol = 1.0e-6;

  FtApp() : AppBase("ft", "Spectral method") {}

  void setup(Runtime& rt) override {
    rt.declareRegionCount(4);
    x0Re_ = TrackedArray<double>(rt, "x0_re", kN, /*candidate=*/false, true);
    x0Im_ = TrackedArray<double>(rt, "x0_im", kN, /*candidate=*/false, true);
    xfRe_ = TrackedArray<double>(rt, "xf_re", kN, /*candidate=*/true);
    xfIm_ = TrackedArray<double>(rt, "xf_im", kN, /*candidate=*/true);
    xsRe_ = TrackedArray<double>(rt, "xs_re", kN, /*candidate=*/true);
    xsIm_ = TrackedArray<double>(rt, "xs_im", kN, /*candidate=*/true);
    csum_ = TrackedArray<double>(rt, "chksums", kIterations * kSamples,
                                 /*candidate=*/true);
    csumTotal_ = TrackedScalar<double>(rt, "chksum_total", /*candidate=*/true);
  }

  void initialize(Runtime& rt) override {
    (void)rt;
    AppLcg lcg(4242);
    for (int i = 0; i < kN; ++i) {
      x0Re_.set(i, lcg.nextDouble() - 0.5);
      x0Im_.set(i, lcg.nextDouble() - 0.5);
    }
    xfRe_.copyFrom(x0Re_);
    xfIm_.copyFrom(x0Im_);
    xsRe_.fill(0.0);
    xsIm_.fill(0.0);
    csum_.fill(0.0);
    csumTotal_.set(0.0);
  }

  void iterate(Runtime& rt, int iteration) override {
    (void)iteration;
    constexpr std::uint64_t kChunk = TrackedArray<double>::kChunkElems;
    {  // R1: evolve the spectrum one time step: Xf *= decay (cumulative).
      RegionScope region(rt, 0);
      double re[kChunk], im[kChunk];
      for (std::uint64_t i0 = 0; i0 < kN; i0 += kChunk) {
        const std::uint64_t n = std::min<std::uint64_t>(kChunk, kN - i0);
        xfRe_.readRange(i0, n, re);
        xfIm_.readRange(i0, n, im);
        for (std::uint64_t t = 0; t < n; ++t) {
          const double d = stepDecay(static_cast<int>(i0 + t));
          re[t] *= d;
          im[t] *= d;
        }
        xfRe_.writeRange(i0, n, re);
        xfIm_.writeRange(i0, n, im);
      }
      region.iterationEnd();
    }
    {  // R2: copy the spectrum into the transform buffer, bit-reversed. The
       //     sequential spectrum reads are bulk ranges; the scatter stays
       //     element-wise (its targets are bit-reversed).
      RegionScope region(rt, 1);
      double re[kChunk], im[kChunk];
      for (std::uint64_t i0 = 0; i0 < kN; i0 += kChunk) {
        const std::uint64_t n = std::min<std::uint64_t>(kChunk, kN - i0);
        xfRe_.readRange(i0, n, re);
        xfIm_.readRange(i0, n, im);
        for (std::uint64_t t = 0; t < n; ++t) {
          const int j = bitReverse(static_cast<int>(i0 + t));
          xsRe_.set(j, re[t]);
          xsIm_.set(j, im[t]);
        }
      }
      region.iterationEnd();
    }
    {  // R3: in-place iterative inverse FFT (unitary scaling).
      RegionScope region(rt, 2);
      for (int stage = 1; stage <= kLogN; ++stage) {
        const int m = 1 << stage;
        const double ang = 2.0 * M_PI / m;  // +i sign: inverse transform
        for (int k = 0; k < kN; k += m) {
          for (int j = 0; j < m / 2; ++j) {
            const double wr = std::cos(ang * j), wi = std::sin(ang * j);
            const int a = k + j, b = k + j + m / 2;
            const double bre = xsRe_.get(b), bim = xsIm_.get(b);
            const double tre = wr * bre - wi * bim;
            const double tim = wr * bim + wi * bre;
            const double are = xsRe_.get(a), aim = xsIm_.get(a);
            xsRe_.set(a, are + tre);
            xsIm_.set(a, aim + tim);
            xsRe_.set(b, are - tre);
            xsIm_.set(b, aim - tim);
          }
        }
        region.iterationEnd();
      }
      const double scale = 1.0 / std::sqrt(static_cast<double>(kN));
      double re[kChunk], im[kChunk];
      for (std::uint64_t i0 = 0; i0 < kN; i0 += kChunk) {
        const std::uint64_t n = std::min<std::uint64_t>(kChunk, kN - i0);
        xsRe_.readRange(i0, n, re);
        xsIm_.readRange(i0, n, im);
        for (std::uint64_t t = 0; t < n; ++t) {
          re[t] *= scale;
          im[t] *= scale;
        }
        xsRe_.writeRange(i0, n, re);
        xsIm_.writeRange(i0, n, im);
      }
      region.iterationEnd();
    }
    {  // R4: record this iteration's checksums (NPB per-iteration sums) and
       //     fold them into the running total — a hot scalar whose history
       //     cannot be recomputed after a crash.
      RegionScope region(rt, 3);
      double total = csumTotal_.get();
      for (int s = 0; s < kSamples; ++s) {
        const int q = samplePosition(s);
        const double value = xsRe_.get(q) + xsIm_.get(q);
        csum_.set((iteration - 1) * kSamples + s, value);
        total += value;
      }
      csumTotal_.set(total);
      region.iterationEnd();
    }
  }

  [[nodiscard]] int nominalIterations() const override { return kIterations; }

  [[nodiscard]] VerifyOutcome verify(Runtime& rt) override {
    (void)rt;
    VerifyOutcome out;
    const Reference& ref = reference();
    double worst = 0.0;
    for (int it = 1; it <= kIterations; ++it) {
      for (int s = 0; s < kSamples; ++s) {
        const double got = csum_.peek((it - 1) * kSamples + s);
        worst = std::max(worst, std::abs(got - ref.checksums[it - 1][s]));
      }
    }
    worst = std::max(worst, std::abs(csumTotal_.peek() - ref.total));
    // Parseval: final physical-space energy equals the evolved spectrum's.
    double energy = 0.0;
    for (int i = 0; i < kN; ++i) {
      const double re = xsRe_.peek(i), im = xsIm_.peek(i);
      energy += re * re + im * im;
    }
    const double energyError = std::abs(energy - ref.energy) / ref.energy;
    out.metric = worst;
    out.pass = std::isfinite(worst) && worst <= kChecksumTol &&
               std::isfinite(energyError) && energyError <= kEnergyTol;
    out.detail = "max checksum error = " + std::to_string(worst) +
                 ", energy error = " + std::to_string(energyError);
    return out;
  }

 private:
  [[nodiscard]] static double stepDecay(int i) {
    const int k = i < kN / 2 ? i : i - kN;  // signed wavenumber
    const double kk = static_cast<double>(k) / (kN / 2);
    return std::exp(-0.15 * kk * kk);
  }

  /// Cumulative decay after `iteration` steps (analytic reference). The
  /// multiplicative accumulation in R1 agrees with this closed form to a few
  /// ulps per step, far below the checksum tolerance.
  [[nodiscard]] static double decayPow(int i, int iteration) {
    const int k = i < kN / 2 ? i : i - kN;
    const double kk = static_cast<double>(k) / (kN / 2);
    return std::exp(-0.15 * kk * kk * iteration);
  }

  [[nodiscard]] static int samplePosition(int s) { return (s * 131 + 17) % kN; }

  [[nodiscard]] static int bitReverse(int x) {
    int r = 0;
    for (int bit = 0; bit < kLogN; ++bit) {
      r = (r << 1) | ((x >> bit) & 1);
    }
    return r;
  }

  /// What verify() compares against: every checksum by direct DFT
  /// evaluation against the analytically decayed spectrum (the analogue of
  /// NPB's precomputed verification values), their total and the Parseval
  /// energy. It depends on no run state — X0 is regenerated from the
  /// AppLcg(4242) stream initialize() draws — so one process computes it
  /// once (the factory determinism contract makes every instance agree).
  struct Reference {
    double checksums[kIterations][kSamples];
    double total;
    double energy;
  };

  [[nodiscard]] static const Reference& reference() {
    static const Reference ref = [] {
      std::vector<double> x0Re(kN), x0Im(kN);
      AppLcg lcg(4242);
      for (int i = 0; i < kN; ++i) {
        x0Re[i] = lcg.nextDouble() - 0.5;
        x0Im[i] = lcg.nextDouble() - 0.5;
      }
      Reference r{};
      for (int it = 1; it <= kIterations; ++it) {
        for (int s = 0; s < kSamples; ++s) {
          r.checksums[it - 1][s] = referenceChecksum(x0Re, x0Im, it, samplePosition(s));
          r.total += r.checksums[it - 1][s];
        }
      }
      for (int i = 0; i < kN; ++i) {
        const double d = decayPow(i, kIterations);
        r.energy += (x0Re[i] * x0Re[i] + x0Im[i] * x0Im[i]) * d * d;
      }
      return r;
    }();
    return ref;
  }

  /// Direct DFT: Xs[q] = (1/sqrt(N)) sum_k X0[k] decay_k^it e^{+2 pi i kq/N}.
  [[nodiscard]] static double referenceChecksum(const std::vector<double>& x0Re,
                                                const std::vector<double>& x0Im,
                                                int iteration, int q) {
    double re = 0.0, im = 0.0;
    for (int k = 0; k < kN; ++k) {
      const double d = decayPow(k, iteration);
      const double ang = 2.0 * M_PI * static_cast<double>(k) * q / kN;
      const double wr = std::cos(ang), wi = std::sin(ang);
      const double r0 = x0Re[k] * d, i0 = x0Im[k] * d;
      re += r0 * wr - i0 * wi;
      im += r0 * wi + i0 * wr;
    }
    const double scale = 1.0 / std::sqrt(static_cast<double>(kN));
    return (re + im) * scale;
  }

  TrackedArray<double> x0Re_, x0Im_, xfRe_, xfIm_, xsRe_, xsIm_, csum_;
  TrackedScalar<double> csumTotal_;
};

}  // namespace

runtime::AppFactory makeFt() {
  return [] { return std::make_unique<FtApp>(); };
}

}  // namespace easycrash::apps
