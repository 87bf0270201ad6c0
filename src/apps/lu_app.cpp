// LU — SSOR-style directional sweep solver (NPB LU analogue).
//
// Advances two fields of a linear advection system with directional sweeps
// (the data-dependence pattern of LU's lower/upper SSOR triangular sweeps).
// The transport is advection-dominated (CFL ~ 1 upwind), so a crash tear is
// carried around the periodic domain essentially undamped — and verification
// compares the final fields against a bit-exact host-side replay of the
// deterministic trajectory, the analogue of NPB LU's tight reference-value
// epsilon. Consequently LU practically never recomputes after a bare crash
// (paper Table 1: "N/A (the verification fails)"); it needs EasyCrash to
// persist its state at iteration boundaries.
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

class LuApp final : public AppBase {
 public:
  static constexpr int kN = 64;           // kN x kN grid, 32KB per array
  static constexpr int kIterations = 30;  // paper: 250
  static constexpr double kCfl = 0.95;    // upwind advection number
  static constexpr double kVerifyTol = 1.0e-10;  // vs. the replayed trajectory

  LuApp() : AppBase("lu", "Dense linear algebra") {}

  void setup(Runtime& rt) override {
    rt.declareRegionCount(4);
    u_ = TrackedArray<double>(rt, "u", kN * kN, /*candidate=*/true);
    v_ = TrackedArray<double>(rt, "v", kN * kN, /*candidate=*/true);
    src_ = TrackedArray<double>(rt, "forcing", kN * kN, /*candidate=*/false, true);
    diag_ = TrackedScalar<double>(rt, "rsdnm", /*candidate=*/true);
  }

  void initialize(Runtime& rt) override {
    (void)rt;
    hostInit(hostU_, hostV_, hostSrc_);
    u_.writeRange(0, hostU_.size(), hostU_.data());
    v_.writeRange(0, hostV_.size(), hostV_.data());
    src_.writeRange(0, hostSrc_.size(), hostSrc_.data());
    diag_.set(0.0);
  }

  void iterate(Runtime& rt, int iteration) override {
    (void)iteration;
    constexpr std::uint64_t kChunk = TrackedArray<double>::kChunkElems;
    {  // R1: residual-norm diagnostics (reads only; streams over u and v).
      RegionScope region(rt, 0);
      double ss = 0.0;
      double ub[kChunk], vb[kChunk];
      for (std::uint64_t k0 = 0; k0 < kN * kN; k0 += kChunk) {
        const std::uint64_t n = std::min<std::uint64_t>(kChunk, kN * kN - k0);
        u_.readRange(k0, n, ub);
        v_.readRange(k0, n, vb);
        for (std::uint64_t t = 0; t < n; ++t) {
          const double d = ub[t] - vb[t];
          ss += d * d;
        }
      }
      diag_.set(std::sqrt(ss / (kN * kN)));
      region.iterationEnd();
    }
    {  // R2: lower sweep — upwind advection of u in +x (rows left to right).
       //     Each row loads/stores as one bulk range; the carry recurrence
       //     runs in the stack buffer in the identical order.
      RegionScope region(rt, 1);
      double ub[kN], sb[kN];
      for (int j = 0; j < kN; ++j) {
        u_.readRange(j * kN, kN, ub);
        src_.readRange(j * kN, kN, sb);
        double carry = ub[kN - 1];  // periodic wrap value
        for (int i = 0; i < kN; ++i) {
          const double here = ub[i];
          ub[i] = here + kCfl * (carry - here) + 0.001 * sb[i];
          carry = here;
        }
        u_.writeRange(j * kN, kN, ub);
        region.iterationEnd();
      }
    }
    {  // R3: upper sweep — upwind advection of v in +y (columns bottom-up).
      RegionScope region(rt, 2);
      for (int i = 0; i < kN; ++i) {
        double carry = v_.get((kN - 1) * kN + i);
        for (int j = 0; j < kN; ++j) {
          const int k = j * kN + i;
          const double here = v_.get(k);
          v_.set(k, here + kCfl * (carry - here) + 0.001 * src_.get(k));
          carry = here;
        }
        region.iterationEnd();
      }
    }
    {  // R4: weak field coupling.
      RegionScope region(rt, 3);
      double ub[kChunk], vb[kChunk];
      for (std::uint64_t k0 = 0; k0 < kN * kN; k0 += kChunk) {
        const std::uint64_t n = std::min<std::uint64_t>(kChunk, kN * kN - k0);
        u_.readRange(k0, n, ub);
        v_.readRange(k0, n, vb);
        for (std::uint64_t t = 0; t < n; ++t) {
          const double uu = ub[t], vv = vb[t];
          ub[t] = uu + 0.01 * (vv - uu);
          vb[t] = vv + 0.01 * (uu - vv);
        }
        u_.writeRange(k0, n, ub);
        v_.writeRange(k0, n, vb);
      }
      region.iterationEnd();
    }
  }

  [[nodiscard]] int nominalIterations() const override { return kIterations; }

  [[nodiscard]] VerifyOutcome verify(Runtime& rt) override {
    (void)rt;
    const Reference& ref = reference();
    double worst = 0.0;
    for (int k = 0; k < kN * kN; ++k) {
      worst = std::max(worst, std::abs(u_.peek(k) - ref.u[k]));
      worst = std::max(worst, std::abs(v_.peek(k) - ref.v[k]));
    }
    VerifyOutcome out;
    out.metric = worst;
    out.pass = std::isfinite(worst) && worst <= kVerifyTol;
    out.detail = "max |u - reference| = " + std::to_string(worst);
    return out;
  }

 private:
  /// Reference trajectory: a bit-exact host replay of all iterations (the
  /// analogue of NPB LU's hard-coded verification values at epsilon 1e-8).
  /// It depends on no run state, so one process computes it once.
  struct Reference {
    std::vector<double> u, v;
  };

  [[nodiscard]] static const Reference& reference() {
    static const Reference ref = [] {
      Reference r;
      std::vector<double> s;
      hostInit(r.u, r.v, s);
      for (int it = 1; it <= kIterations; ++it) hostIterate(r.u, r.v, s);
      return r;
    }();
    return ref;
  }

  static void hostInit(std::vector<double>& u, std::vector<double>& v,
                       std::vector<double>& s) {
    u.assign(kN * kN, 0.0);
    v.assign(kN * kN, 0.0);
    s.assign(kN * kN, 0.0);
    AppLcg lcg(7337);
    for (int k = 0; k < kN * kN; ++k) {
      u[k] = lcg.nextDouble() - 0.5;
      v[k] = lcg.nextDouble() - 0.5;
      s[k] = std::sin(2.0 * M_PI * (k % kN) / kN);
    }
  }

  /// Host replica of iterate() — must apply the identical arithmetic in the
  /// identical order so the reference trajectory matches bit-for-bit.
  static void hostIterate(std::vector<double>& u, std::vector<double>& v,
                          const std::vector<double>& s) {
    for (int j = 0; j < kN; ++j) {
      double carry = u[j * kN + kN - 1];
      for (int i = 0; i < kN; ++i) {
        const int k = j * kN + i;
        const double here = u[k];
        u[k] = here + kCfl * (carry - here) + 0.001 * s[k];
        carry = here;
      }
    }
    for (int i = 0; i < kN; ++i) {
      double carry = v[(kN - 1) * kN + i];
      for (int j = 0; j < kN; ++j) {
        const int k = j * kN + i;
        const double here = v[k];
        v[k] = here + kCfl * (carry - here) + 0.001 * s[k];
        carry = here;
      }
    }
    for (int k = 0; k < kN * kN; ++k) {
      const double uu = u[k], vv = v[k];
      u[k] = uu + 0.01 * (vv - uu);
      v[k] = vv + 0.01 * (uu - vv);
    }
  }

  TrackedArray<double> u_, v_, src_;
  TrackedScalar<double> diag_;
  std::vector<double> hostU_, hostV_, hostSrc_;
};

}  // namespace

runtime::AppFactory makeLu() {
  return [] { return std::make_unique<LuApp>(); };
}

}  // namespace easycrash::apps
