// Bring-your-own-application example: implement the IApp interface for a
// custom kernel (here: Jacobi heat diffusion with a physics acceptance
// check), then point the standard crash-campaign machinery at it.
//
// Build & run:   ./build/examples/custom_app [--tests N]
#include <cmath>
#include <iostream>
#include <memory>

#include "easycrash/common/cli.hpp"
#include "easycrash/common/table.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/runtime/app.hpp"
#include "easycrash/runtime/tracked.hpp"

namespace ec = easycrash;
using ec::runtime::RegionScope;
using ec::runtime::Runtime;
using ec::runtime::TrackedArray;
using ec::runtime::VerifyOutcome;

namespace {

/// 1-D Jacobi diffusion toward a fixed boundary profile. Acceptance
/// verification: monotone profile between the boundary values (a physics
/// invariant of the heat equation) plus near-steadiness.
class HeatApp final : public ec::runtime::IApp {
 public:
  static constexpr int kCells = 16384;  // footprint >> LLC (paper §4.1)
  static constexpr int kIterations = 20;

  [[nodiscard]] const ec::runtime::AppInfo& info() const override { return info_; }

  void setup(Runtime& rt) override {
    rt.declareRegionCount(2);
    t_ = TrackedArray<double>(rt, "temperature", kCells, /*candidate=*/true);
    tNew_ = TrackedArray<double>(rt, "temperature_next", kCells, /*candidate=*/true);
  }

  void initialize(Runtime& rt) override {
    (void)rt;
    for (int i = 0; i < kCells; ++i) {
      t_.set(i, i < kCells / 2 ? 1.0 : 0.0);  // hot left half, cold right half
      tNew_.set(i, 0.0);
    }
    t_.set(0, 1.0);
    t_.set(kCells - 1, 0.0);
  }

  void iterate(Runtime& rt, int iteration) override {
    (void)iteration;
    {  // R1: apply boundary conditions, then the Jacobi sweep.
      RegionScope region(rt, 0);
      t_.set(0, 1.0);
      t_.set(kCells - 1, 0.0);
      for (int i = 1; i < kCells - 1; ++i) {
        tNew_.set(i, t_.get(i) + 0.4 * (t_.get(i - 1) - 2.0 * t_.get(i) +
                                        t_.get(i + 1)));
      }
      region.iterationEnd();
    }
    {  // R2: commit.
      RegionScope region(rt, 1);
      for (int i = 1; i < kCells - 1; ++i) t_.set(i, tNew_.get(i));
      region.iterationEnd();
    }
  }

  [[nodiscard]] int nominalIterations() const override { return kIterations; }

  [[nodiscard]] VerifyOutcome verify(Runtime& rt) override {
    (void)rt;
    // Physics invariants: values inside [0,1] and a monotone profile away
    // from the initial step position.
    VerifyOutcome out;
    double worst = 0.0;
    bool bounded = true;
    for (int i = 0; i < kCells - 1; ++i) {
      const double a = t_.peek(i);
      bounded = bounded && a >= -1e-9 && a <= 1.0 + 1e-9;
      const double rise = t_.peek(i + 1) - a;
      worst = std::max(worst, rise);  // temperature must not increase rightward
    }
    out.metric = worst;
    out.pass = bounded && worst <= 2e-5;
    out.detail = "max uphill step = " + std::to_string(worst);
    return out;
  }

 private:
  ec::runtime::AppInfo info_{"heat", "custom Jacobi diffusion example"};
  TrackedArray<double> t_, tNew_;
};

}  // namespace

int main(int argc, char** argv) {
  ec::CliParser cli("Crash-test campaign for a custom application");
  cli.addInt("tests", 60, "number of crash tests");
  if (!cli.parse(argc, argv)) return 0;

  ec::crash::CampaignConfig config;
  config.numTests = cli.getIntIn<int>("tests", 0);
  const ec::crash::CampaignRunner runner(
      [] { return std::make_unique<HeatApp>(); }, config);
  const auto campaign = runner.run();

  const auto counts = campaign.responseCounts();
  ec::Table table({"metric", "value"});
  table.row().cell("S1 (clean recomputation)").cell(
      static_cast<long long>(counts[0]));
  table.row().cell("S2 (extra iterations)").cell(static_cast<long long>(counts[1]));
  table.row().cell("S3 (interruption)").cell(static_cast<long long>(counts[2]));
  table.row().cell("S4 (verification fails)").cell(static_cast<long long>(counts[3]));
  table.row().cell("recomputability").cell(
      ec::formatDouble(100 * campaign.recomputability(), 1) + "%");
  table.print(std::cout, "Custom heat app under crash testing");
  return 0;
}
