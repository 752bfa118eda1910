#include "checks.h"

#include "schedule/validator.h"
#include "workload/anomalies.h"

namespace perfbench {

std::string CheckBalances(const std::vector<int64_t>& expected,
                          const std::vector<int64_t>& observed) {
  if (expected.size() != observed.size()) {
    return "read " + std::to_string(observed.size()) + " balances, expected " +
           std::to_string(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != observed[i]) {
      return "account " + std::to_string(i) + " holds " +
             std::to_string(observed[i]) + ", expected " +
             std::to_string(expected[i]);
    }
  }
  return "";
}

std::string CheckDirectory(const std::map<std::string, std::string>& oracle,
                           const std::map<std::string, std::string>& found) {
  for (const auto& [key, value] : oracle) {
    auto it = found.find(key);
    if (it == found.end()) return "key " + key + " missing";
    if (it->second != value) {
      return "key " + key + " holds '" + it->second + "', expected '" +
             value + "'";
    }
  }
  for (const auto& [key, value] : found) {
    if (oracle.count(key) == 0) return "unexpected key " + key + "='" + value + "'";
  }
  return "";
}

std::string CheckReadSeq(
    const std::vector<std::pair<std::string, std::string>>& expected,
    const std::vector<std::string>& fields) {
  if (fields.size() != 2 * expected.size()) {
    return "readSeq listed " + std::to_string(fields.size() / 2) +
           " items, expected " + std::to_string(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (fields[2 * i] != expected[i].first ||
        fields[2 * i + 1] != expected[i].second) {
      return "readSeq position " + std::to_string(i) + " is " +
             fields[2 * i] + "=" + fields[2 * i + 1] + ", expected " +
             expected[i].first + "=" + expected[i].second;
    }
  }
  return "";
}

std::string CheckEncState(
    const std::vector<std::pair<std::string, std::string>>& live,
    const std::vector<std::string>& erased,
    const std::map<std::string, std::optional<std::string>>& found) {
  for (const auto& [key, data] : live) {
    auto it = found.find(key);
    if (it == found.end()) return "live key " + key + " was not searched";
    if (!it->second) return "live key " + key + " not found";
    if (*it->second != data) {
      return "live key " + key + " reads '" + *it->second + "', expected '" +
             data + "'";
    }
  }
  for (const std::string& key : erased) {
    auto it = found.find(key);
    if (it == found.end()) return "erased key " + key + " was not searched";
    if (it->second) return "erased key " + key + " still reads '" + *it->second + "'";
  }
  return "";
}

std::string CheckAnomalyVerdicts(const std::vector<AnomalyVerdict>& verdicts) {
  if (verdicts.empty()) return "no anomaly worlds were validated";
  for (const AnomalyVerdict& v : verdicts) {
    if (v.bad == v.accepted) {
      return std::string(v.bad ? "bad" : "good") + " " + v.kind + " world " +
             (v.accepted ? "accepted" : "rejected");
    }
  }
  return "";
}

std::vector<AnomalyVerdict> RunAnomalyWorlds() {
  std::vector<AnomalyVerdict> verdicts;
  for (oodb::AnomalyKind kind : oodb::AllAnomalyKinds()) {
    for (bool bad : {true, false}) {
      auto ts = oodb::MakeAnomaly(kind, bad);
      const oodb::ValidationReport report = oodb::Validator::Validate(ts.get());
      verdicts.push_back({oodb::AnomalyKindName(kind), bad,
                          report.oo_serializable});
    }
  }
  return verdicts;
}

}  // namespace perfbench
