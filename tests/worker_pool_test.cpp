// Tests for the pre-forked worker pool behind `--isolation fork`
// (docs/ROBUSTNESS.md): the frame protocol round-trip, the shared-memory
// arena, and — the reason the pool exists — classification of every way a
// child can die (signal, SIGKILL, allocator exhaustion, torn protocol
// stream, parent-enforced deadline) followed by a clean respawn. All child
// behaviour is driven through request frames: gtest assertions cannot run
// in the child, so each scenario replies (or dies) and the parent asserts
// on the Reply.
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/crash/worker_pool.hpp"

namespace cr = easycrash::crash;

namespace {

using namespace std::chrono_literals;

/// Command interpreter the child runs per request. Deaths are deliberate:
/// "abort" dies by signal (SIGABRT, not a raw segfault, so sanitizer builds
/// classify identically), "oom" escapes a std::bad_alloc to the worker main
/// loop, "torn" hand-writes a garbage length prefix and exits, "torn-hang"
/// writes the same prefix and never exits, "hang" never replies.
void scenarioHandler(int slot, const std::string& request,
                     const cr::WorkerPool::ChildChannel& ch) {
  (void)slot;
  if (request.rfind("echo:", 0) == 0) {
    ch.send("ok:" + request.substr(5));
  } else if (request == "pid") {
    ch.send(std::to_string(::getpid()));
  } else if (request == "arena") {
    std::memcpy(ch.arena(), "shared-arena-payload", 20);
    ch.send("written");
  } else if (request == "abort") {
    std::abort();
  } else if (request == "oom") {
    throw std::bad_alloc();
  } else if (request == "torn" || request == "torn-hang") {
    const unsigned char junk[] = {0xff, 0xff, 0xff, 0x7f, 0x00};
    (void)!::write(ch.responseFd(), junk, sizeof junk);
    if (request == "torn") ::_exit(2);
    for (;;) std::this_thread::sleep_for(1s);
  } else if (request == "hang") {
    for (;;) std::this_thread::sleep_for(1s);
  } else {
    ch.send("unknown");
  }
}

cr::WorkerPool::Reply roundTrip(cr::WorkerPool& pool, int slot,
                                const std::string& request,
                                std::chrono::milliseconds deadline = 10s) {
  EXPECT_TRUE(pool.ensureWorker(slot));
  pool.send(slot, request);
  return pool.recv(slot, deadline);
}

/// Block until `pid` has exited and waits, unreaped, as a zombie (state Z in
/// /proc/<pid>/stat), so the parent's next recv races nothing.
void waitUntilExited(pid_t pid) {
  const auto giveUp = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < giveUp) {
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    const std::string line((std::istreambuf_iterator<char>(stat)),
                           std::istreambuf_iterator<char>());
    const auto comm = line.rfind(')');
    if (comm != std::string::npos && comm + 2 < line.size() &&
        line[comm + 2] == 'Z') {
      return;
    }
    std::this_thread::sleep_for(5ms);
  }
  ADD_FAILURE() << "worker " << pid << " never exited";
}

}  // namespace

TEST(WorkerPoolTest, EchoRoundTripAcrossSlots) {
  cr::WorkerPool pool(3, 4096, scenarioHandler);
  EXPECT_EQ(pool.workers(), 3);
  EXPECT_EQ(pool.aliveCount(), 3);
  EXPECT_EQ(pool.spawnCount(), 3);
  for (int slot = 0; slot < 3; ++slot) {
    for (int i = 0; i < 5; ++i) {
      const auto reply = roundTrip(pool, slot, "echo:m" + std::to_string(i));
      ASSERT_TRUE(reply.ok);
      EXPECT_EQ(reply.frame, "ok:m" + std::to_string(i));
    }
  }
}

TEST(WorkerPoolTest, ChildrenRunInSeparateProcesses) {
  cr::WorkerPool pool(2, 4096, scenarioHandler);
  const auto a = roundTrip(pool, 0, "pid");
  const auto b = roundTrip(pool, 1, "pid");
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_NE(a.frame, b.frame);
  EXPECT_NE(a.frame, std::to_string(::getpid()));
}

TEST(WorkerPoolTest, ArenaIsSharedWithTheChild) {
  cr::WorkerPool pool(1, 4096, scenarioHandler);
  std::memset(pool.arena(0), 0, 32);
  const auto reply = roundTrip(pool, 0, "arena");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.frame, "written");
  EXPECT_EQ(std::memcmp(pool.arena(0), "shared-arena-payload", 20), 0);
}

TEST(WorkerPoolTest, SignalDeathClassifiesAsCrashedAndRespawns) {
  cr::WorkerPool pool(1, 4096, scenarioHandler);
  const pid_t firstPid = pool.pid(0);
  const auto death = roundTrip(pool, 0, "abort");
  EXPECT_FALSE(death.ok);
  EXPECT_FALSE(death.timedOut);
  EXPECT_EQ(death.death, cr::WorkerDeath::Crashed);
  EXPECT_EQ(death.signal, SIGABRT);
  EXPECT_FALSE(pool.alive(0));

  bool respawned = false;
  ASSERT_TRUE(pool.ensureWorker(0, &respawned));
  EXPECT_TRUE(respawned);
  EXPECT_NE(pool.pid(0), firstPid);
  EXPECT_EQ(pool.spawnCount(), 2);
  const auto reply = roundTrip(pool, 0, "echo:alive");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.frame, "ok:alive");
}

TEST(WorkerPoolTest, EscapedBadAllocClassifiesAsOom) {
  cr::WorkerPool pool(1, 4096, scenarioHandler);
  const auto death = roundTrip(pool, 0, "oom");
  EXPECT_FALSE(death.ok);
  EXPECT_EQ(death.death, cr::WorkerDeath::Oom);
  EXPECT_EQ(death.exitStatus, cr::kWorkerOomExit);
}

TEST(WorkerPoolTest, TornStreamClassifiesAsProtocol) {
  cr::WorkerPool pool(1, 4096, scenarioHandler);
  const auto death = roundTrip(pool, 0, "torn");
  EXPECT_FALSE(death.ok);
  EXPECT_FALSE(death.timedOut);
  EXPECT_EQ(death.death, cr::WorkerDeath::Protocol);
  // The stream is unrecoverable: the slot is dead until ensureWorker().
  EXPECT_FALSE(pool.alive(0));
}

// A garbage length prefix decides the death from the frame alone, so the
// Reply must not depend on whether the worker's own exit or the parent's
// SIGKILL reaches waitpid first.
TEST(WorkerPoolTest, TornFrameReplyIgnoresTheReapRace) {
  cr::WorkerPool pool(1, 4096, scenarioHandler);
  // The worker has certainly exited before recv reads its frame...
  ASSERT_TRUE(pool.ensureWorker(0));
  const pid_t pid = pool.pid(0);
  ASSERT_TRUE(pool.send(0, "torn"));
  waitUntilExited(pid);
  const auto exited = pool.recv(0, 10s);
  // ...or is still alive when the parent kills it.
  const auto alive = roundTrip(pool, 0, "torn-hang");
  for (const auto* reply : {&exited, &alive}) {
    EXPECT_FALSE(reply->ok);
    EXPECT_FALSE(reply->timedOut);
    EXPECT_EQ(reply->death, cr::WorkerDeath::Protocol);
  }
  EXPECT_EQ(alive.exitStatus, exited.exitStatus);
  EXPECT_EQ(alive.signal, exited.signal);
  EXPECT_FALSE(pool.alive(0));
}

TEST(WorkerPoolTest, DeadlineKillsHungWorker) {
  cr::WorkerPool pool(1, 4096, scenarioHandler);
  const auto start = std::chrono::steady_clock::now();
  const auto death = roundTrip(pool, 0, "hang", 300ms);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(death.ok);
  EXPECT_TRUE(death.timedOut);
  EXPECT_EQ(death.death, cr::WorkerDeath::Killed);
  EXPECT_EQ(death.signal, SIGKILL);
  EXPECT_LT(elapsed, 10s) << "deadline must not degenerate into a hang";
}

TEST(WorkerPoolTest, DestructorReapsEveryChild) {
  std::vector<pid_t> pids;
  {
    cr::WorkerPool pool(3, 4096, scenarioHandler);
    for (int slot = 0; slot < 3; ++slot) {
      const auto reply = roundTrip(pool, slot, "echo:x");
      ASSERT_TRUE(reply.ok);
      pids.push_back(pool.pid(slot));
    }
  }
  // After the destructor every worker is gone AND reaped: a zombie would
  // still accept signal 0, so ESRCH proves both.
  for (const pid_t pid : pids) {
    EXPECT_EQ(::kill(pid, 0), -1) << "worker " << pid << " outlived the pool";
    EXPECT_EQ(errno, ESRCH);
  }
}

TEST(WorkerPoolTest, KillReapsImmediately) {
  cr::WorkerPool pool(2, 4096, scenarioHandler);
  const pid_t pid = pool.pid(1);
  pool.kill(1);
  EXPECT_FALSE(pool.alive(1));
  EXPECT_EQ(pool.aliveCount(), 1);
  EXPECT_EQ(::kill(pid, 0), -1);
  EXPECT_EQ(errno, ESRCH);
  // The sibling slot is unaffected.
  const auto reply = roundTrip(pool, 0, "echo:still-here");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.frame, "ok:still-here");
}
