#include "easycrash/crash/worker_pool.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "easycrash/common/check.hpp"
#include "easycrash/telemetry/log.hpp"

namespace easycrash::crash {

namespace {

constexpr int kHandlerEscapeExit = 70;  ///< handler let an exception escape

void storeLe32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t loadLe32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

bool writeAll(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocking exact read (the child side; the parent has no deadline to honor
/// for it). False on EOF or error.
bool readAllBlocking(int fd, void* data, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool readFrameBlocking(int fd, std::string& out, std::size_t limit) {
  std::uint8_t lenBuf[4];
  if (!readAllBlocking(fd, lenBuf, sizeof lenBuf)) return false;
  const std::uint32_t len = loadLe32(lenBuf);
  if (len > limit) return false;
  out.resize(len);
  return len == 0 || readAllBlocking(fd, out.data(), len);
}

bool writeFrame(int fd, const std::string& frame) {
  std::uint8_t lenBuf[4];
  storeLe32(lenBuf, static_cast<std::uint32_t>(frame.size()));
  return writeAll(fd, lenBuf, sizeof lenBuf) &&
         (frame.empty() || writeAll(fd, frame.data(), frame.size()));
}

enum class IoResult { Ok, Eof, Timeout, Error };

/// Exact read in the parent: polls in short slices so a deadline is honored
/// even while the worker dribbles (or stops dribbling) bytes.
IoResult readExact(
    int fd, void* data, std::size_t len,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (len > 0) {
    int waitMs = 100;
    if (deadline) {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                                 *deadline - std::chrono::steady_clock::now())
                                 .count();
      if (remaining <= 0) return IoResult::Timeout;
      waitMs = static_cast<int>(std::min<long long>(100, remaining));
    }
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, waitMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return IoResult::Error;
    }
    if (rc == 0) continue;  // slice elapsed; the loop re-checks the deadline
    const ssize_t n = ::read(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoResult::Error;
    }
    if (n == 0) return IoResult::Eof;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return IoResult::Ok;
}

std::size_t roundUpToPage(std::size_t bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

}  // namespace

const char* toString(WorkerDeath death) {
  switch (death) {
    case WorkerDeath::None: return "none";
    case WorkerDeath::Crashed: return "crashed";
    case WorkerDeath::Killed: return "killed";
    case WorkerDeath::Oom: return "oom";
    case WorkerDeath::Protocol: return "protocol";
  }
  return "unknown";
}

void WorkerPool::ChildChannel::send(const std::string& frame) const {
  // A failed write means the parent is gone; PR_SET_PDEATHSIG reclaims the
  // child momentarily, so there is nothing useful to do here.
  (void)writeFrame(respFd_, frame);
}

bool WorkerPool::ChildChannel::recv(std::string& frame) const {
  return readFrameBlocking(reqFd_, frame, arenaBytes_ + (std::size_t{16} << 20));
}

WorkerPool::WorkerPool(int workers, std::size_t arenaBytes, Handler handler,
                       ForkHooks hooks)
    : handler_(std::move(handler)), hooks_(std::move(hooks)) {
  EC_CHECK_MSG(workers > 0, "worker pool needs at least one worker");
  EC_CHECK_MSG(static_cast<bool>(handler_), "worker pool needs a handler");
  arenaBytes_ = roundUpToPage(std::max<std::size_t>(arenaBytes, 1));
  frameLimit_ = arenaBytes_ + (std::size_t{16} << 20);
  // A worker dying mid-read must surface as EPIPE on our next write, not as
  // a process-fatal SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  slots_.resize(static_cast<std::size_t>(workers));
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    void* mem = ::mmap(nullptr, arenaBytes_, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      const int err = errno;
      for (std::size_t j = 0; j < i; ++j) {
        ::munmap(slots_[j].arena, arenaBytes_);
        slots_[j].arena = nullptr;
      }
      throw std::runtime_error(std::string("worker arena mmap failed: ") +
                               std::strerror(err));
    }
    slots_[i].arena = static_cast<std::uint8_t*>(mem);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (int i = 0; i < workers; ++i) {
    if (!spawnLocked(i)) {
      EC_LOG_WARN("worker " << i << " failed to spawn; will retry on demand");
    }
  }
}

WorkerPool::~WorkerPool() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Close the request pipes: idle workers see EOF and _exit(0).
  for (Slot& s : slots_) {
    if (s.reqWrite >= 0) {
      ::close(s.reqWrite);
      s.reqWrite = -1;
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (Slot& s : slots_) {
    if (s.pid <= 0) continue;
    bool killed = false;
    for (;;) {
      int status = 0;
      const pid_t rc = ::waitpid(s.pid, &status, killed ? 0 : WNOHANG);
      if (rc == s.pid) break;
      if (rc < 0 && errno == EINTR) continue;
      if (rc < 0) break;  // already reaped elsewhere / no such child
      // rc == 0: still running. A worker stuck mid-request (a hung handler
      // abandoned at interrupt) never sees the EOF, so escalate to SIGKILL
      // once the grace period passes — interrupted runs must leave no
      // orphans.
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(s.pid, SIGKILL);
        killed = true;
        continue;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    s.pid = -1;
    aliveCount_.fetch_sub(1, std::memory_order_relaxed);
    if (s.respRead >= 0) {
      ::close(s.respRead);
      s.respRead = -1;
    }
  }
  for (Slot& s : slots_) {
    if (s.arena != nullptr) {
      ::munmap(s.arena, arenaBytes_);
      s.arena = nullptr;
    }
  }
}

bool WorkerPool::spawnLocked(int slot) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  if (s.pid > 0) return true;
  int req[2] = {-1, -1};
  int resp[2] = {-1, -1};
  if (::pipe(req) != 0) return false;
  if (::pipe(resp) != 0) {
    ::close(req[0]);
    ::close(req[1]);
    return false;
  }
  if (hooks_.prepare) hooks_.prepare();
  const pid_t parentPid = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    if (hooks_.parent) hooks_.parent();
    ::close(req[0]);
    ::close(req[1]);
    ::close(resp[0]);
    ::close(resp[1]);
    return false;
  }
  if (pid == 0) {
    // ---- child ----
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parentPid) ::_exit(0);  // parent died before prctl
    // ^C and graceful shutdown are the parent's decisions: it drains
    // in-flight trials, then reaps us (EOF or SIGKILL).
    ::signal(SIGINT, SIG_IGN);
    ::signal(SIGTERM, SIG_IGN);
    if (hooks_.child) hooks_.child(slot);
    ::close(req[1]);
    ::close(resp[0]);
    // Drop every other slot's parent-side pipe ends: a sibling holding a
    // write end open would defeat EOF detection when that slot's worker
    // dies.
    for (const Slot& other : slots_) {
      if (other.reqWrite >= 0) ::close(other.reqWrite);
      if (other.respRead >= 0) ::close(other.respRead);
    }
    childMain(slot, req[0], resp[1]);
  }
  // ---- parent ----
  if (hooks_.parent) hooks_.parent();
  ::close(req[0]);
  ::close(resp[1]);
  s.pid = pid;
  s.reqWrite = req[1];
  s.respRead = resp[0];
  aliveCount_.fetch_add(1, std::memory_order_relaxed);
  spawnCount_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void WorkerPool::childMain(int slot, int reqRead, int respWrite) {
  ChildChannel ch;
  ch.reqFd_ = reqRead;
  ch.respFd_ = respWrite;
  ch.arena_ = slots_[static_cast<std::size_t>(slot)].arena;
  ch.arenaBytes_ = arenaBytes_;
  for (;;) {
    std::string request;
    if (!readFrameBlocking(reqRead, request, frameLimit_)) {
      ::_exit(0);  // clean shutdown: parent closed the request pipe
    }
    try {
      handler_(slot, request, ch);
    } catch (const std::bad_alloc&) {
      ::_exit(kWorkerOomExit);
    } catch (...) {
      // The handler contract is to report failures through the protocol;
      // an escaped exception is a harness bug surfaced as a protocol death.
      ::_exit(kHandlerEscapeExit);
    }
  }
}

bool WorkerPool::send(int slot, const std::string& frame) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  if (s.pid <= 0 || s.reqWrite < 0) return false;
  if (frame.size() > frameLimit_) return false;
  return writeFrame(s.reqWrite, frame);
}

WorkerPool::Reply WorkerPool::recv(int slot, std::chrono::milliseconds deadline) {
  Reply reply;
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  if (s.pid <= 0) {
    reply.death = WorkerDeath::Protocol;
    return reply;
  }
  std::optional<std::chrono::steady_clock::time_point> deadlineTp;
  if (deadline.count() > 0) {
    deadlineTp = std::chrono::steady_clock::now() + deadline;
  }
  std::uint8_t lenBuf[4];
  IoResult r = readExact(s.respRead, lenBuf, sizeof lenBuf, deadlineTp);
  if (r == IoResult::Ok) {
    const std::uint32_t len = loadLe32(lenBuf);
    if (len > frameLimit_) {
      // Garbage length prefix (e.g. a wild write tore the stream): the
      // stream is unrecoverable, and the frame alone decides this death.
      // Whether the worker's own exit or this SIGKILL reached waitpid first
      // is a race, so the reaped status stays out of the Reply.
      std::lock_guard<std::mutex> lock(mutex_);
      killLocked(slot);
      reapLocked(slot, reply);
      reply.death = WorkerDeath::Protocol;
      reply.signal = 0;
      reply.exitStatus = 0;
      return reply;
    }
    reply.frame.resize(len);
    r = len == 0 ? IoResult::Ok
                 : readExact(s.respRead, reply.frame.data(), len, deadlineTp);
    if (r == IoResult::Ok) {
      reply.ok = true;
      return reply;
    }
    reply.frame.clear();
  }
  if (r == IoResult::Timeout) {
    // Deadline enforcement is a hard SIGKILL: even a worker hung in an
    // infinite loop that never reaches a cooperative poll is reclaimed.
    std::lock_guard<std::mutex> lock(mutex_);
    killLocked(slot);
    reapLocked(slot, reply);
    reply.timedOut = true;
    return reply;
  }
  // Eof or read error: the worker died (or tore the stream mid-frame).
  std::lock_guard<std::mutex> lock(mutex_);
  reapLocked(slot, reply);
  if (reply.death == WorkerDeath::None) reply.death = WorkerDeath::Protocol;
  return reply;
}

bool WorkerPool::ensureWorker(int slot, bool* respawned) {
  std::lock_guard<std::mutex> lock(mutex_);
  const bool wasDead = slots_[static_cast<std::size_t>(slot)].pid <= 0;
  const bool ok = spawnLocked(slot);
  if (respawned != nullptr) *respawned = wasDead && ok;
  return ok;
}

bool WorkerPool::alive(int slot) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_[static_cast<std::size_t>(slot)].pid > 0;
}

pid_t WorkerPool::pid(int slot) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_[static_cast<std::size_t>(slot)].pid;
}

void WorkerPool::kill(int slot) {
  Reply discard;
  std::lock_guard<std::mutex> lock(mutex_);
  killLocked(slot);
  reapLocked(slot, discard);
}

std::uint8_t* WorkerPool::arena(int slot) {
  return slots_[static_cast<std::size_t>(slot)].arena;
}

void WorkerPool::killLocked(int slot) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  if (s.pid > 0) ::kill(s.pid, SIGKILL);
}

void WorkerPool::reapLocked(int slot, Reply& reply) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  if (s.pid <= 0) return;
  int status = 0;
  pid_t rc;
  do {
    rc = ::waitpid(s.pid, &status, 0);
  } while (rc < 0 && errno == EINTR);
  if (rc == s.pid) {
    if (WIFSIGNALED(status)) {
      reply.signal = WTERMSIG(status);
      reply.death =
          reply.signal == SIGKILL ? WorkerDeath::Killed : WorkerDeath::Crashed;
    } else if (WIFEXITED(status)) {
      reply.exitStatus = WEXITSTATUS(status);
      reply.death = reply.exitStatus == kWorkerOomExit ? WorkerDeath::Oom
                                                       : WorkerDeath::Protocol;
    } else {
      reply.death = WorkerDeath::Protocol;
    }
  } else {
    reply.death = WorkerDeath::Protocol;
  }
  if (s.reqWrite >= 0) {
    ::close(s.reqWrite);
    s.reqWrite = -1;
  }
  if (s.respRead >= 0) {
    ::close(s.respRead);
    s.respRead = -1;
  }
  s.pid = -1;
  aliveCount_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace easycrash::crash
