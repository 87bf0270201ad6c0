#include "easycrash/crash/flight_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "easycrash/crash/report.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/telemetry/json.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash::crash {

namespace {

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// Nearest-rank percentile of an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Spatial bins -> fixed ASCII ramp. '.' is zero; non-zero counts scale
/// linearly into the remaining eight glyphs against the row maximum, so the
/// shape (not the magnitude) of the distribution is what the eye compares.
std::string heatmap(const std::vector<double>& bins) {
  static constexpr char kRamp[] = ".:-=+*#%@";
  double max = 0.0;
  for (const double v : bins) max = std::max(max, v);
  std::string out;
  out.reserve(bins.size());
  for (const double v : bins) {
    if (v <= 0.0 || max <= 0.0) {
      out += kRamp[0];
    } else {
      const auto idx = 1 + static_cast<std::size_t>(v / max * 7.0);
      out += kRamp[std::min<std::size_t>(8, idx)];
    }
  }
  return out;
}

std::string readWholeFile(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(std::string("cannot open ") + what + ": " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Per-object profile row parsed back out of the metrics "profile" section.
struct ProfileRow {
  std::uint32_t id = 0;
  std::string name;
  std::uint64_t bytes = 0;
  std::uint64_t accesses = 0;
  std::uint64_t nvmWrites = 0;
  std::vector<double> accessBins;
  std::vector<double> wearBins;
};

struct ParsedProfile {
  std::uint64_t strideBytes = 0;
  std::uint64_t runs = 0;
  std::vector<ProfileRow> objects;
  std::map<runtime::PointId, std::uint64_t> regionAccesses;
};

std::vector<double> numberArray(const telemetry::json::Value* v) {
  std::vector<double> out;
  if (v == nullptr) return out;
  for (const auto& entry : v->array) {
    if (entry.isNumber()) out.push_back(entry.number);
  }
  return out;
}

std::optional<ParsedProfile> parseProfileSection(const std::string& metricsPath) {
  const std::string text = readWholeFile(metricsPath, "metrics snapshot");
  std::string error;
  const auto doc = telemetry::json::parse(text, &error);
  if (!doc || !doc->isObject()) {
    throw std::runtime_error("malformed metrics snapshot " + metricsPath +
                             (error.empty() ? "" : ": " + error));
  }
  const auto* profile = doc->find("profile");
  if (profile == nullptr || !profile->isObject()) return std::nullopt;
  ParsedProfile out;
  if (const auto* stride = profile->find("stride_bytes"); stride && stride->isNumber()) {
    out.strideBytes = static_cast<std::uint64_t>(stride->number);
  }
  if (const auto* runs = profile->find("runs"); runs && runs->isNumber()) {
    out.runs = static_cast<std::uint64_t>(runs->number);
  }
  if (const auto* objects = profile->find("objects")) {
    for (const auto& object : objects->array) {
      if (!object.isObject()) continue;
      ProfileRow row;
      if (const auto* id = object.find("id"); id && id->isNumber()) {
        row.id = static_cast<std::uint32_t>(id->number);
      }
      if (const auto* name = object.find("name"); name && name->isString()) {
        row.name = name->string;
      }
      if (const auto* bytes = object.find("bytes"); bytes && bytes->isNumber()) {
        row.bytes = static_cast<std::uint64_t>(bytes->number);
      }
      if (const auto* a = object.find("accesses"); a && a->isNumber()) {
        row.accesses = static_cast<std::uint64_t>(a->number);
      }
      if (const auto* w = object.find("nvm_writes"); w && w->isNumber()) {
        row.nvmWrites = static_cast<std::uint64_t>(w->number);
      }
      row.accessBins = numberArray(object.find("access_bins"));
      row.wearBins = numberArray(object.find("wear_bins"));
      out.objects.push_back(std::move(row));
    }
  }
  if (const auto* regions = profile->find("regions")) {
    for (const auto& region : regions->array) {
      if (!region.isObject()) continue;
      const auto* id = region.find("region");
      const auto* accesses = region.find("accesses");
      if (id != nullptr && id->isNumber() && accesses != nullptr &&
          accesses->isNumber()) {
        out.regionAccesses[static_cast<runtime::PointId>(id->number)] =
            static_cast<std::uint64_t>(accesses->number);
      }
    }
  }
  return out;
}

/// phase -> ascending duration_ns samples from the trace's phase_end events.
std::map<std::string, std::vector<double>> parsePhaseDurations(
    const std::string& tracePath) {
  const std::string text = readWholeFile(tracePath, "trace");
  std::map<std::string, std::vector<double>> phases;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    const auto value = telemetry::json::parse(line);
    if (!value || !value->isObject()) continue;
    const auto* type = value->find("type");
    if (type == nullptr || !type->isString() || type->string != "phase_end") continue;
    const auto* phase = value->find("phase");
    const auto* duration = value->find("duration_ns");
    if (phase == nullptr || !phase->isString() || duration == nullptr ||
        !duration->isNumber()) {
      continue;
    }
    phases[phase->string].push_back(duration->number);
  }
  for (auto& [phase, durations] : phases) {
    std::sort(durations.begin(), durations.end());
  }
  return phases;
}

}  // namespace

std::string campaignProfileJson(const CampaignProfile& profile) {
  std::string out = "{\"stride_bytes\":";
  out += std::to_string(profile.strideBytes);
  out += ",\"runs\":";
  out += std::to_string(profile.runs);
  out += ",\"objects\":[";
  bool first = true;
  for (const runtime::ObjectProfile& object : profile.objects) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":";
    out += std::to_string(object.id);
    out += ",\"name\":\"";
    telemetry::appendJsonEscaped(out, object.name);
    out += "\",\"bytes\":";
    out += std::to_string(object.bytes);
    out += ",\"accesses\":";
    out += std::to_string(object.accesses);
    out += ",\"nvm_writes\":";
    out += std::to_string(object.nvmWrites);
    out += ",\"access_bins\":[";
    for (std::size_t b = 0; b < object.accessBins.size(); ++b) {
      if (b) out += ',';
      out += std::to_string(object.accessBins[b]);
    }
    out += "],\"wear_bins\":[";
    for (std::size_t b = 0; b < object.wearBins.size(); ++b) {
      if (b) out += ',';
      out += std::to_string(object.wearBins[b]);
    }
    out += "]}";
  }
  out += "],\"regions\":[";
  first = true;
  for (const auto& [region, accesses] : profile.regionAccesses) {
    if (!first) out += ',';
    first = false;
    out += "{\"region\":";
    out += std::to_string(region);
    out += ",\"accesses\":";
    out += std::to_string(accesses);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string renderFlightReport(const JournalReplay& journal,
                               const std::string& tracePath,
                               const std::string& metricsPath) {
  std::ostringstream md;
  md << "# nvct campaign report\n\n";

  // --- Campaign identity (all from the journal header) --------------------
  md << "## Campaign\n\n";
  md << "- app: `" << journal.header.app << "`\n";
  md << "- seed: " << journal.header.seed << "\n";
  md << "- planned tests: " << journal.header.tests << "\n";
  md << "- snapshot mode: " << journal.header.mode << "\n";
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(journal.header.planFingerprint));
  md << "- plan fingerprint: `" << fingerprint << "`\n";
  md << "- golden window accesses: " << journal.header.windowAccesses << "\n";
  md << "- decided trials: " << journal.trials.size() << "\n";
  md << "- failed trials: " << journal.failures.size() << "\n\n";

  // --- S1-S4 outcome summary ----------------------------------------------
  TrialTally tally;
  for (const auto& [trial, record] : journal.trials) tally.add(record);
  const auto& counts = tally.all.responses;
  const double decided = static_cast<double>(journal.trials.size());
  md << "## Outcomes\n\n";
  md << "| response | trials | share |\n|---|---:|---:|\n";
  for (int s = 0; s < 4; ++s) {
    const int count = counts[static_cast<std::size_t>(s)];
    md << "| S" << (s + 1) << " | " << count << " | "
       << fmt("%.1f%%", decided > 0 ? 100.0 * count / decided : 0.0) << " |\n";
  }
  md << "\n";
  md << "- recomputability (S1 share): "
     << fmt("%.4f", decided > 0 ? counts[0] / decided : 0.0) << "\n";
  md << "- success incl. extra iterations (S1+S2): "
     << fmt("%.4f", decided > 0 ? (counts[0] + counts[1]) / decided : 0.0) << "\n";
  md << "- average extra iterations over S2: "
     << fmt("%.2f", counts[1] > 0
                        ? static_cast<double>(tally.all.s2ExtraIterations) / counts[1]
                        : 0.0)
     << "\n\n";

  // --- Per-region breakdown (Table 1 style) -------------------------------
  md << "## Per-region outcomes\n\n";
  md << "| region | trials | S1 | S2 | S3 | S4 | recomputability | avg extra iters |\n";
  md << "|---|---:|---:|---:|---:|---:|---:|---:|\n";
  for (const auto& [region, stats] : tally.byRegionPath) {
    md << "| `" << region << "` | " << stats.trials();
    for (int s = 0; s < 4; ++s) md << " | " << stats.responses[static_cast<std::size_t>(s)];
    md << " | "
       << fmt("%.4f", static_cast<double>(stats.responses[0]) / stats.trials()) << " | "
       << fmt("%.2f", stats.responses[1] > 0
                          ? static_cast<double>(stats.s2ExtraIterations) /
                                stats.responses[1]
                          : 0.0)
       << " |\n";
  }
  md << "\n";

  // --- Per-object inconsistency rates -------------------------------------
  std::optional<ParsedProfile> profile;
  if (!metricsPath.empty()) profile = parseProfileSection(metricsPath);
  const auto objectName = [&](runtime::ObjectId id) {
    if (profile) {
      for (const ProfileRow& row : profile->objects) {
        if (row.id == id) return row.name;
      }
    }
    return "obj" + std::to_string(id);
  };

  md << "## Inconsistency rates\n\n";
  if (tally.rates.empty()) {
    md << "No per-object rates recorded in the journal.\n\n";
  } else {
    md << "| object | samples | mean rate | max rate |\n|---|---:|---:|---:|\n";
    for (const auto& [id, stats] : tally.rates) {
      md << "| `" << objectName(id) << "` | " << stats.samples << " | "
         << fmt("%.4f", stats.mean()) << " | "
         << fmt("%.4f", stats.max) << " |\n";
    }
    md << "\n";
  }

  // --- Phase latencies (trace only) ---------------------------------------
  if (!tracePath.empty()) {
    const auto phases = parsePhaseDurations(tracePath);
    md << "## Phase latencies\n\n";
    if (phases.empty()) {
      md << "No phase_end events in the trace.\n\n";
    } else {
      md << "| phase | spans | p50 ms | p90 ms | p99 ms | max ms |\n";
      md << "|---|---:|---:|---:|---:|---:|\n";
      for (const auto& [phase, durations] : phases) {
        constexpr double kMs = 1e6;
        md << "| `" << phase << "` | " << durations.size() << " | "
           << fmt("%.3f", percentile(durations, 50.0) / kMs) << " | "
           << fmt("%.3f", percentile(durations, 90.0) / kMs) << " | "
           << fmt("%.3f", percentile(durations, 99.0) / kMs) << " | "
           << fmt("%.3f", durations.back() / kMs) << " |\n";
      }
      md << "\n";
    }
  }

  // --- Access/wear heatmap (metrics profile only) --------------------------
  if (profile) {
    md << "## Access/wear profile\n\n";
    md << "Sampled block touches per " << profile->strideBytes
       << "-byte stride over " << profile->runs
       << " simulated runs; each heatmap cell is one equal-width spatial bin "
          "of the object, scaled to its row maximum (`.` = cold, `@` = "
          "hottest).\n\n";
    md << "| object | bytes | touches | nvm writes | access | wear |\n";
    md << "|---|---:|---:|---:|---|---|\n";
    for (const ProfileRow& row : profile->objects) {
      md << "| `" << row.name << "` | " << row.bytes << " | " << row.accesses
         << " | " << row.nvmWrites << " | `" << heatmap(row.accessBins)
         << "` | `" << heatmap(row.wearBins) << "` |\n";
    }
    md << "\n";
    if (!profile->regionAccesses.empty()) {
      std::uint64_t totalAccesses = 0;
      for (const auto& [region, accesses] : profile->regionAccesses) {
        totalAccesses += accesses;
      }
      md << "### Region access shares\n\n";
      md << "| region | accesses | share |\n|---|---:|---:|\n";
      for (const auto& [region, accesses] : profile->regionAccesses) {
        md << "| `" << regionName(region) << "` | " << accesses << " | "
           << fmt("%.1f%%", totalAccesses > 0
                                ? 100.0 * static_cast<double>(accesses) /
                                      static_cast<double>(totalAccesses)
                                : 0.0)
           << " |\n";
      }
      md << "\n";
    }
  }

  // --- Failures -------------------------------------------------------------
  if (!journal.failures.empty()) {
    md << "## Failed trials\n\n";
    md << "| trial | crash access | timeout | attempts | region | reason |\n";
    md << "|---:|---:|---|---:|---|---|\n";
    for (const auto& [trial, failure] : journal.failures) {
      md << "| " << trial << " | " << failure.crashAccessIndex << " | "
         << (failure.timeout ? "yes" : "no") << " | " << failure.attempts
         << " | `" << (failure.regionPath.empty() ? "?" : failure.regionPath)
         << "` | " << failure.reason << " |\n";
    }
    md << "\n";
  }

  return md.str();
}

}  // namespace easycrash::crash
