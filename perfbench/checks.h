// The benchmark's correctness checks. Each compares what the program
// returned with an oracle the benchmark computed on its own (or with a
// property the method must have) and returns "" when they agree, or a
// one-line description of the first disagreement.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// bank-contended: every balance equals its initial balance plus the
/// sum of committed transfer deltas (escrow transfers commute, so the
/// sum is order-independent).
std::string CheckBalances(const std::vector<int64_t>& expected,
                          const std::vector<int64_t>& observed);

/// directory-durable: the recovered contents equal the oracle exactly —
/// no key missing, none extra, every value the last committed one.
std::string CheckDirectory(const std::map<std::string, std::string>& oracle,
                           const std::map<std::string, std::string>& found);

/// encyclopedia-validate: a readSeq result (the program's JoinFields
/// listing, split into fields) lists exactly `expected` in order.
std::string CheckReadSeq(
    const std::vector<std::pair<std::string, std::string>>& expected,
    const std::vector<std::string>& fields);

/// encyclopedia-validate: every live key was found with its last data,
/// and every erased key was not found. `found` maps each searched key
/// to its data, or to nullopt when the search came back empty.
std::string CheckEncState(
    const std::vector<std::pair<std::string, std::string>>& live,
    const std::vector<std::string>& erased,
    const std::map<std::string, std::optional<std::string>>& found);

/// The verdict the validator gave one S9 anomaly world.
struct AnomalyVerdict {
  std::string kind;
  bool bad = false;       ///< the anomalous form (must be rejected)
  bool accepted = false;  ///< Validate said oo-serializable
};

/// Every `bad` world is rejected and every `good` world accepted.
std::string CheckAnomalyVerdicts(const std::vector<AnomalyVerdict>& verdicts);

/// Builds every S9 anomaly world (workload/anomalies.h) in both forms
/// and validates each with default options.
std::vector<AnomalyVerdict> RunAnomalyWorlds();

}  // namespace perfbench
