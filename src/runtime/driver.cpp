#include "easycrash/runtime/app.hpp"

#include "easycrash/common/check.hpp"

namespace easycrash::runtime {

RunResult Driver::run(IApp& app, Runtime& rt, int fromIteration, int maxIterations,
                      const IterationHook& atIterationEnd) {
  if (maxIterations <= 0) maxIterations = app.nominalIterations();
  RunResult result;
  rt.setCrashWindow(true);
  try {
    for (int it = fromIteration; it <= maxIterations; ++it) {
      // Bookmark first: a crash inside this iteration restarts from it.
      rt.bookmarkIteration(it);
      app.iterate(rt, it);
      rt.mainLoopIterationEnd(it);
      result.finalIteration = it;
      ++result.iterationsExecuted;
      if (atIterationEnd && atIterationEnd(it)) {
        result.stopped = true;
        break;
      }
      if (app.converged(rt, it)) break;
      if (it == maxIterations) result.reachedCap = true;
    }
  } catch (const AppInterrupt& interrupt) {
    rt.setCrashWindow(false);
    result.interrupted = true;
    result.interruptReason = interrupt.reason;
    return result;
  }
  rt.setCrashWindow(false);
  if (!result.stopped) result.verification = app.verify(rt);
  return result;
}

memsim::Digest128 Driver::stateKey(const IApp& app, Runtime& rt) {
  memsim::Digest128 key = rt.stateDigest();
  HostState host;
  app.hostState(host);
  if (!host.bytes().empty()) {
    // Host bytes hash as blocks past any address a store can reach.
    std::string padded = host.bytes();
    padded.resize((padded.size() + 15) / 16 * 16, '\0');
    key += memsim::blockDigest(~std::uint64_t{0},
                               reinterpret_cast<const std::uint8_t*>(padded.data()),
                               padded.size());
  }
  return key;
}

RunResult Driver::freshRun(IApp& app, Runtime& rt, int maxIterations) {
  app.setup(rt);
  app.initialize(rt);
  return run(app, rt, 1, maxIterations);
}

}  // namespace easycrash::runtime
