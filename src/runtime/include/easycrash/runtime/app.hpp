// Application interface for instrumented HPC kernels.
//
// Each benchmark (src/apps) implements IApp: it allocates tracked data
// objects in setup(), fills them in initialize(), performs one main-loop
// iteration per iterate() call (marking code regions on the way), and
// provides the application-specific acceptance verification the paper relies
// on (§2.2). The Driver below owns the main-loop protocol shared by every
// app: iterator bookmarking, persist points, convergence, iteration caps.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <type_traits>

#include "easycrash/runtime/runtime.hpp"

namespace easycrash::runtime {

struct AppInfo {
  std::string name;
  std::string description;  ///< Table 1 "Description" column
};

/// Result of the application-specific acceptance verification.
struct VerifyOutcome {
  bool pass = false;
  double metric = 0.0;  ///< app-specific figure (residual, error norm, ...)
  std::string detail;
};

/// The host-side state an app declares through IApp::hostState(): raw
/// bytes of trivially copyable values, mixed into the convergence memo's
/// state key next to the tracked state's digest.
class HostState {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  HostState& add(const T& value) {
    bytes_.append(reinterpret_cast<const char*>(&value), sizeof value);
    return *this;
  }
  [[nodiscard]] const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

class IApp {
 public:
  virtual ~IApp() = default;

  [[nodiscard]] virtual const AppInfo& info() const = 0;

  /// Allocate tracked data objects and declare the region count.
  virtual void setup(Runtime& rt) = 0;
  /// Fill initial values (deterministic; also runs on restart).
  virtual void initialize(Runtime& rt) = 0;
  /// One main-computation-loop iteration (1-based). May throw AppInterrupt.
  virtual void iterate(Runtime& rt, int iteration) = 0;
  /// Nominal iteration count of the original execution (Table 1 last column).
  [[nodiscard]] virtual int nominalIterations() const = 0;
  /// Stop condition checked after each iteration. The default runs exactly
  /// nominalIterations(); convergence-driven apps override it (and may need
  /// extra iterations after a restart — the paper's S2 response).
  [[nodiscard]] virtual bool converged(Runtime& rt, int iteration) {
    (void)rt;
    return iteration >= nominalIterations();
  }
  /// Application-specific acceptance verification (paper §2.2).
  [[nodiscard]] virtual VerifyOutcome verify(Runtime& rt) = 0;
  /// The host-state contract of the convergence memo (docs/INTERNALS.md):
  /// add every host-side member (outside tracked memory) that one
  /// iteration leaves behind for a later iterate(), converged() or
  /// verify() to read, and anything that makes this instance behave
  /// differently from another instance of the same factory. Two runs of
  /// an app with equal iteration, tracked bytes and host state must
  /// continue identically. The default declares none: all loop-carried
  /// state is tracked, and members set in setup()/initialize() alone are
  /// constants.
  virtual void hostState(HostState& state) const { (void)state; }
};

using AppFactory = std::function<std::unique_ptr<IApp>()>;

/// Outcome of driving an app (a full run, a crashed run, or a restart run).
struct RunResult {
  int finalIteration = 0;      ///< last completed main-loop iteration
  int iterationsExecuted = 0;  ///< iterations executed in this run
  bool reachedCap = false;     ///< hit maxIterations without converging
  bool interrupted = false;    ///< AppInterrupt (paper S3)
  bool stopped = false;        ///< the iteration hook ended the run; no verify
  std::string interruptReason;
  VerifyOutcome verification;
};

/// Drives the shared main-loop protocol. CrashEvent propagates to the caller
/// (the crash-test campaign); AppInterrupt is converted into the result.
class Driver {
 public:
  /// Called at each main-loop iteration end, after mainLoopIterationEnd()
  /// and before converged(); returning true stops the run there
  /// (RunResult::stopped) without verification.
  using IterationHook = std::function<bool(int iteration)>;

  /// Run iterations [fromIteration .. converged], capped at maxIterations.
  /// Set maxIterations <= 0 to cap at nominalIterations().
  static RunResult run(IApp& app, Runtime& rt, int fromIteration = 1,
                       int maxIterations = 0, const IterationHook& atIterationEnd = {});

  /// The convergence memo's state key of a direct-mode run whose runtime
  /// armed its state digest: the tracked state's digest plus the app's
  /// declared host state.
  [[nodiscard]] static memsim::Digest128 stateKey(const IApp& app, Runtime& rt);

  /// Full fresh execution: setup + initialize + run + verify.
  static RunResult freshRun(IApp& app, Runtime& rt, int maxIterations = 0);
};

}  // namespace easycrash::runtime
