// Live campaign status (flight recorder, docs/OBSERVABILITY.md).
//
// A running campaign periodically samples its shared tallies into a
// CampaignStatus. The snapshot is the campaign's one live view: it is
// rendered as the stderr progress line, and atomically rewritten as one
// self-contained JSON file (temp + fsync + rename, like every other
// output), so an external watcher — a future campaign service, a dashboard,
// `watch cat` — always reads a complete, consistent snapshot and never a
// torn write. The final snapshot after the SIGINT/SIGTERM drain carries
// done=true plus the interrupted flag, so the file also records how the
// campaign ended.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

namespace easycrash::crash {

/// One snapshot of a campaign in flight. All counts are cumulative since the
/// campaign started (resumed trials included in `decided`/`responses`).
struct CampaignStatus {
  std::string app;
  int plannedTests = 0;
  std::uint64_t decided = 0;            ///< trials with a record or a failure
  std::uint64_t resumed = 0;            ///< of those, replayed from --resume
  std::array<int, 4> responses{};       ///< S1..S4 tally of completed trials
  std::uint64_t failures = 0;           ///< trials abandoned after retries
  std::uint64_t retries = 0;            ///< retry attempts spent so far
  std::uint64_t timeouts = 0;           ///< fork deadline kills so far
  std::uint64_t queueDepth = 0;         ///< sweep restart queue depth
  std::uint64_t workers = 0;            ///< live fork-evaluator workers
  std::uint64_t workerDeaths = 0;       ///< worker children lost so far
  double elapsedS = 0.0;
  double trialsPerS = 0.0;              ///< fresh (non-resumed) trial rate
  double etaS = -1.0;                   ///< seconds to completion; -1 unknown
  bool interrupted = false;             ///< a stop was requested
  bool done = false;                    ///< final snapshot (campaign returned)
  std::uint64_t seq = 0;                ///< snapshot sequence number

  /// Fill trialsPerS and etaS from elapsedS and the fresh (non-resumed)
  /// decided trials: resumed trials landed instantly and would otherwise
  /// make the rate look impossibly fast.
  void estimateRate();
};

/// One-line JSON encoding ({"type":"campaign_status",...}\n). Deterministic
/// for a fixed status value: fixed field order, %.3f floats.
[[nodiscard]] std::string serializeStatus(const CampaignStatus& status);

/// The progress line: "<app> trials  decided/tests  S1:a S2:b S3:c S4:d",
/// then "  X.Xs" elapsed once done (or every trial decided), else
/// "  eta X.Xs" once etaS is known.
[[nodiscard]] std::string progressLine(const CampaignStatus& status);

/// Background sampler: every `interval` it calls `sampler`, atomically
/// rewrites `path` (empty = no file) and redraws the progress line on
/// `progress` ('\r' rewrites of one line through telemetry's
/// drawProgressLine, so a log line never lands on it; nullptr = none).
/// writeFinal() stops the thread, writes one last snapshot with done=true
/// and ends the line with a newline; the destructor stops the thread
/// without a final snapshot (the error-unwind path keeps the last periodic
/// one) and only ends a line still open.
class StatusWriter {
 public:
  using Sampler = std::function<CampaignStatus()>;

  StatusWriter(std::string path, std::ostream* progress,
               std::chrono::milliseconds interval, Sampler sampler);
  ~StatusWriter();

  StatusWriter(const StatusWriter&) = delete;
  StatusWriter& operator=(const StatusWriter&) = delete;

  void writeFinal(bool interrupted);

 private:
  void loop();
  void stopThread();
  void publish(CampaignStatus status);

  std::string path_;
  std::ostream* progress_;
  std::chrono::milliseconds interval_;
  Sampler sampler_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutdown_ = false;
  std::uint64_t seq_ = 0;
  std::thread thread_;
};

}  // namespace easycrash::crash
