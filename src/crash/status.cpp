#include "easycrash/crash/status.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <utility>

#include "easycrash/crash/resilience.hpp"
#include "easycrash/telemetry/log.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash::crash {

namespace {

void appendDouble(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  out += buf;
}

}  // namespace

void CampaignStatus::estimateRate() {
  const std::uint64_t fresh = decided > resumed ? decided - resumed : 0;
  if (elapsedS <= 0.0 || fresh == 0) return;
  trialsPerS = static_cast<double>(fresh) / elapsedS;
  const auto tests = static_cast<std::uint64_t>(std::max(0, plannedTests));
  if (tests >= decided) etaS = static_cast<double>(tests - decided) / trialsPerS;
}

std::string serializeStatus(const CampaignStatus& status) {
  std::string line = "{\"type\":\"campaign_status\",\"app\":\"";
  telemetry::appendJsonEscaped(line, status.app);
  line += "\",\"shard\":\"";
  line += std::to_string(status.shardIndex);
  line += '/';
  line += std::to_string(status.shardCount);
  line += "\",\"tests\":";
  line += std::to_string(status.plannedTests);
  line += ",\"decided\":";
  line += std::to_string(status.decided);
  line += ",\"resumed\":";
  line += std::to_string(status.resumed);
  for (int s = 0; s < 4; ++s) {
    line += ",\"s";
    line += static_cast<char>('1' + s);
    line += "\":";
    line += std::to_string(status.responses[static_cast<std::size_t>(s)]);
  }
  line += ",\"failures\":";
  line += std::to_string(status.failures);
  line += ",\"retries\":";
  line += std::to_string(status.retries);
  line += ",\"timeouts\":";
  line += std::to_string(status.timeouts);
  line += ",\"queue_depth\":";
  line += std::to_string(status.queueDepth);
  line += ",\"workers\":";
  line += std::to_string(status.workers);
  line += ",\"worker_deaths\":";
  line += std::to_string(status.workerDeaths);
  line += ",\"elapsed_s\":";
  appendDouble(line, status.elapsedS);
  line += ",\"trials_per_s\":";
  appendDouble(line, status.trialsPerS);
  line += ",\"eta_s\":";
  appendDouble(line, status.etaS);
  line += ",\"interrupted\":";
  line += status.interrupted ? "true" : "false";
  line += ",\"done\":";
  line += status.done ? "true" : "false";
  line += ",\"seq\":";
  line += std::to_string(status.seq);
  line += "}\n";
  return line;
}

std::string progressLine(const CampaignStatus& status) {
  std::string line = status.app.empty() ? "campaign" : status.app;
  line += " trials  ";
  line += std::to_string(status.decided);
  line += '/';
  line += std::to_string(status.plannedTests);
  for (int s = 0; s < 4; ++s) {
    line += s == 0 ? "  S" : " S";
    line += static_cast<char>('1' + s);
    line += ':';
    line += std::to_string(status.responses[static_cast<std::size_t>(s)]);
  }
  char buf[48];
  if (status.done || status.decided >= static_cast<std::uint64_t>(status.plannedTests)) {
    std::snprintf(buf, sizeof buf, "  %.1fs", status.elapsedS);
    line += buf;
  } else if (status.etaS >= 0.0) {
    std::snprintf(buf, sizeof buf, "  eta %.1fs", status.etaS);
    line += buf;
  }
  return line;
}

StatusWriter::StatusWriter(std::string path, std::ostream* progress,
                           std::chrono::milliseconds interval, Sampler sampler)
    : path_(std::move(path)),
      progress_(progress),
      interval_(interval),
      sampler_(std::move(sampler)) {
  thread_ = std::thread([this] { loop(); });
}

StatusWriter::~StatusWriter() {
  stopThread();
  if (progress_ != nullptr) telemetry::endProgressLine(*progress_);
}

void StatusWriter::stopThread() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void StatusWriter::writeFinal(bool interrupted) {
  stopThread();
  CampaignStatus status = sampler_();
  status.interrupted = interrupted;
  status.done = true;
  publish(std::move(status));
  if (progress_ != nullptr) telemetry::endProgressLine(*progress_);
}

void StatusWriter::loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (cv_.wait_for(lock, interval_, [&] { return shutdown_; })) return;
    }
    publish(sampler_());
  }
}

void StatusWriter::publish(CampaignStatus status) {
  status.seq = ++seq_;
  if (progress_ != nullptr) telemetry::drawProgressLine(*progress_, progressLine(status));
  if (path_.empty()) return;
  try {
    atomicWriteFile(path_, serializeStatus(status));
  } catch (const std::exception& e) {
    // A failing status write must never take the campaign down.
    EC_LOG_WARN("status snapshot write failed: " << e.what());
  }
}

}  // namespace easycrash::crash
