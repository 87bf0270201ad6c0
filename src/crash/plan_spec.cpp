#include "easycrash/crash/plan_spec.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "easycrash/crash/report.hpp"

namespace easycrash::crash {

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream is(text);
  while (std::getline(is, part, sep)) parts.push_back(part);
  return parts;
}

runtime::PointId parsePoint(const std::string& text) {
  if (text == "main") return runtime::kMainLoopEnd;
  if (text.size() >= 2 && text[0] == 'R') {
    const int region = std::stoi(text.substr(1));
    if (region >= 1) return region - 1;
  }
  throw std::runtime_error("plan spec: bad persist point '" + text +
                           "' (expected 'main' or 'R<k>')");
}

}  // namespace

runtime::PersistencePlan parsePlanSpec(const std::string& spec,
                                       const runtime::Runtime& rt) {
  runtime::PersistencePlan plan;
  if (spec.empty() || spec == "none") return plan;
  for (const std::string& directiveText : split(spec, ',')) {
    const auto at = directiveText.find('@');
    if (at == std::string::npos) {
      throw std::runtime_error("plan spec: missing '@' in '" + directiveText + "'");
    }
    const std::string objectsText = directiveText.substr(0, at);
    std::string pointText = directiveText.substr(at + 1);

    std::uint32_t everyN = 1;
    if (const auto colon = pointText.find(':'); colon != std::string::npos) {
      everyN = static_cast<std::uint32_t>(std::stoul(pointText.substr(colon + 1)));
      if (everyN == 0) {
        throw std::runtime_error("plan spec: everyN must be >= 1 in '" +
                                 directiveText + "'");
      }
      pointText = pointText.substr(0, colon);
    }
    const runtime::PointId point = parsePoint(pointText);

    runtime::PersistDirective directive;
    directive.everyN = everyN;
    for (const std::string& name : split(objectsText, '+')) {
      if (name == "candidates") {
        for (runtime::ObjectId id : rt.candidateObjects()) {
          directive.objects.push_back(id);
        }
        continue;
      }
      const auto id = rt.findObject(name);
      if (!id) {
        std::string known;
        for (const auto& object : rt.objects()) {
          if (!known.empty()) known += ", ";
          known += object.name;
        }
        throw std::runtime_error("plan spec: unknown data object '" + name +
                                 "' (known: " + known + ")");
      }
      directive.objects.push_back(*id);
    }
    if (directive.objects.empty()) {
      throw std::runtime_error("plan spec: no objects in '" + directiveText + "'");
    }
    plan.points[point] = std::move(directive);
  }
  return plan;
}

std::string formatPlanSpec(const runtime::PersistencePlan& plan,
                           const runtime::Runtime& rt) {
  std::string out;
  for (const auto& [point, directive] : plan.points) {
    if (!out.empty()) out += ',';
    std::string objects;
    for (runtime::ObjectId id : directive.objects) {
      if (!objects.empty()) objects += '+';
      objects += rt.object(id).name;
    }
    out += objects + '@';
    out += regionName(point);
    if (directive.everyN != 1) out += ':' + std::to_string(directive.everyN);
  }
  return out.empty() ? "none" : out;
}

}  // namespace easycrash::crash
