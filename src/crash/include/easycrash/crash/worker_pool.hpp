// Pre-forked worker pool for process-isolated trial execution.
//
// The campaign's fork evaluator (`--isolation fork`) runs every crashing
// run / restart inside a child process so that a misbehaving mini-app — a
// real SIGSEGV, a wild write, allocator exhaustion, an infinite loop — kills
// one worker, not the campaign. Parent and child speak a minimal
// length-prefixed frame protocol over a pair of pipes; bulk payloads
// (object snapshots) cross through a per-slot shared-memory arena mapped
// before the first fork. Any child death is classified from waitpid()
// status into a WorkerDeath the campaign maps onto TrialFailure kinds:
//
//   signal (not SIGKILL)  -> Crashed   (SIGSEGV, SIGABRT, SIGBUS, ...)
//   SIGKILL               -> Killed    (trial deadline, kernel OOM killer)
//   _exit(kWorkerOomExit) -> Oom       (worker caught std::bad_alloc)
//   any other exit        -> Protocol  (torn frame, garbage length, early EOF)
//
// Deadlines are enforced by the PARENT: recv() polls in short slices and
// SIGKILLs the child when the deadline passes, so even a hung busy-loop that
// never returns to the simulator is reclaimed. Workers set
// PR_SET_PDEATHSIG so a SIGKILLed parent leaves no orphans, and ignore
// SIGINT/SIGTERM so an interactive ^C drains through the parent's graceful
// stop path instead of racing it.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace easycrash::crash {

enum class WorkerDeath { None, Crashed, Killed, Oom, Protocol };

[[nodiscard]] const char* toString(WorkerDeath death);

/// Exit status a worker uses to report allocator exhaustion (a caught
/// std::bad_alloc) — the modelled analogue of the kernel OOM killer, which
/// would show up as SIGKILL instead.
inline constexpr int kWorkerOomExit = 77;

class WorkerPool {
 public:
  /// Outcome of one recv(): either a complete frame (`ok`) or a classified
  /// worker death. `timedOut` marks deaths the parent itself inflicted
  /// because the deadline passed.
  struct Reply {
    bool ok = false;
    bool timedOut = false;
    WorkerDeath death = WorkerDeath::None;
    int signal = 0;
    int exitStatus = 0;
    std::string frame;
  };

  /// The child's side of the protocol, handed to the request handler.
  class ChildChannel {
   public:
    /// Send one response frame to the parent.
    void send(const std::string& frame) const;
    /// Block for one frame from the parent (mid-request acknowledgements,
    /// e.g. the sweep capture handshake). False on EOF.
    [[nodiscard]] bool recv(std::string& frame) const;
    [[nodiscard]] std::uint8_t* arena() const { return arena_; }
    [[nodiscard]] std::size_t arenaBytes() const { return arenaBytes_; }
    /// Raw response fd — exists so deliberate fault injection can tear a
    /// frame mid-write (`--inject wild-write`). Normal handlers use send().
    [[nodiscard]] int responseFd() const { return respFd_; }

   private:
    friend class WorkerPool;
    int reqFd_ = -1;
    int respFd_ = -1;
    std::uint8_t* arena_ = nullptr;
    std::size_t arenaBytes_ = 0;
  };

  /// Runs in the CHILD for every request frame. Must communicate results
  /// exclusively through `ch` and must not let exceptions escape: an escaped
  /// std::bad_alloc exits with kWorkerOomExit, anything else with a protocol
  /// error status.
  using Handler = std::function<void(int slot, const std::string& request,
                                     const ChildChannel& ch)>;

  /// Hooks bracketing every fork so the multi-threaded parent never forks
  /// while a thread holds a lock the child would need (trace sink, metrics
  /// registry). `prepare` runs before fork() in the parent; `parent` runs
  /// after fork() in the parent; `child` runs first thing in the child.
  struct ForkHooks {
    std::function<void()> prepare;
    std::function<void()> parent;
    std::function<void(int slot)> child;
  };

  /// Creates the per-slot arenas and pre-forks one worker per slot.
  /// `arenaBytes` is rounded up to whole pages. Throws std::runtime_error if
  /// resources cannot be created; a failed initial fork leaves the slot dead
  /// (ensureWorker() retries later).
  WorkerPool(int workers, std::size_t arenaBytes, Handler handler,
             ForkHooks hooks = {});
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Send one request frame. False when the worker is dead (the caller then
  /// recv()s to pick up the classified death).
  bool send(int slot, const std::string& frame);

  /// Receive one response frame, SIGKILLing the worker if `deadline` (zero =
  /// none) passes first. Exactly one Reply per death: after a death Reply
  /// the slot is dead until ensureWorker().
  Reply recv(int slot, std::chrono::milliseconds deadline);

  /// Fork a replacement if the slot's worker is dead. `respawned` (optional)
  /// reports whether a fork actually happened. False if fork() failed.
  bool ensureWorker(int slot, bool* respawned = nullptr);

  [[nodiscard]] bool alive(int slot) const;
  [[nodiscard]] pid_t pid(int slot) const;
  [[nodiscard]] int workers() const { return static_cast<int>(slots_.size()); }
  [[nodiscard]] int aliveCount() const {
    return aliveCount_.load(std::memory_order_relaxed);
  }
  /// Total forks performed (initial spawns + respawns).
  [[nodiscard]] std::uint64_t spawnCount() const {
    return spawnCount_.load(std::memory_order_relaxed);
  }

  /// SIGKILL and reap one worker.
  void kill(int slot);

  [[nodiscard]] std::uint8_t* arena(int slot);
  [[nodiscard]] std::size_t arenaBytes() const { return arenaBytes_; }

 private:
  struct Slot {
    pid_t pid = -1;         // -1 = dead
    int reqWrite = -1;      // parent -> child requests
    int respRead = -1;      // child -> parent responses
    std::uint8_t* arena = nullptr;
  };

  bool spawnLocked(int slot);
  void killLocked(int slot);
  /// Reap a dead/just-killed worker, classify its death into `reply`, and
  /// release the slot's fds.
  void reapLocked(int slot, Reply& reply);
  [[noreturn]] void childMain(int slot, int reqRead, int respWrite);

  Handler handler_;
  ForkHooks hooks_;
  std::size_t arenaBytes_ = 0;
  std::size_t frameLimit_ = 0;
  std::vector<Slot> slots_;
  std::atomic<int> aliveCount_{0};
  std::atomic<std::uint64_t> spawnCount_{0};
  mutable std::mutex mutex_;  // guards slot pid/fd mutation (spawn/reap/kill)
};

}  // namespace easycrash::crash
