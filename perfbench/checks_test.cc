// Each test hands one of the benchmark's checks a deliberately wrong
// output and shows that the check fails, next to the right output,
// which it must pass.

#include "checks.h"

#include <gtest/gtest.h>

#include "containers/codec.h"

namespace perfbench {
namespace {

TEST(CheckBalances, PerturbedBalanceFails) {
  const std::vector<int64_t> expected = {1000, 990, 1010};
  EXPECT_EQ(CheckBalances(expected, expected), "");
  std::vector<int64_t> perturbed = expected;
  perturbed[1] += 1;
  EXPECT_NE(CheckBalances(expected, perturbed), "");
  EXPECT_NE(CheckBalances(expected, {1000, 990}), "");
}

TEST(CheckDirectory, MissingOrExtraKeyFails) {
  const std::map<std::string, std::string> oracle = {
      {"D0/c0-0001", "v1"}, {"D1/c1-0002", "v2"}, {"D3/c3-0007", "v9"}};
  EXPECT_EQ(CheckDirectory(oracle, oracle), "");

  auto missing = oracle;
  missing.erase("D1/c1-0002");
  EXPECT_NE(CheckDirectory(oracle, missing), "");

  auto extra = oracle;
  extra["D2/c2-0003"] = "v3";
  EXPECT_NE(CheckDirectory(oracle, extra), "");

  auto stale = oracle;
  stale["D3/c3-0007"] = "v8";
  EXPECT_NE(CheckDirectory(oracle, stale), "");
}

TEST(CheckReadSeq, OutOfInsertionOrderFails) {
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"kb", "d1"}, {"ka", "d2"}, {"kc", "d3"}};
  const std::string listing =
      oodb::JoinFields({"kb", "d1", "ka", "d2", "kc", "d3"});
  EXPECT_EQ(CheckReadSeq(expected, oodb::SplitFields(listing)), "");

  // Key order instead of insertion order.
  const std::string sorted =
      oodb::JoinFields({"ka", "d2", "kb", "d1", "kc", "d3"});
  EXPECT_NE(CheckReadSeq(expected, oodb::SplitFields(sorted)), "");

  const std::string short_listing = oodb::JoinFields({"kb", "d1", "ka", "d2"});
  EXPECT_NE(CheckReadSeq(expected, oodb::SplitFields(short_listing)), "");
}

TEST(CheckEncState, ErasedKeyFoundOrLiveKeyLostFails) {
  const std::vector<std::pair<std::string, std::string>> live = {
      {"ka", "d2"}, {"kb", "d1"}};
  const std::vector<std::string> erased = {"kz"};
  std::map<std::string, std::optional<std::string>> found = {
      {"ka", "d2"}, {"kb", "d1"}, {"kz", std::nullopt}};
  EXPECT_EQ(CheckEncState(live, erased, found), "");

  auto resurrected = found;
  resurrected["kz"] = "d0";
  EXPECT_NE(CheckEncState(live, erased, resurrected), "");

  auto lost = found;
  lost["kb"] = std::nullopt;
  EXPECT_NE(CheckEncState(live, erased, lost), "");

  auto stale = found;
  stale["ka"] = "d0";
  EXPECT_NE(CheckEncState(live, erased, stale), "");
}

TEST(CheckAnomalyVerdicts, BadWorldAcceptedFails) {
  const std::vector<AnomalyVerdict> verdicts = RunAnomalyWorlds();
  ASSERT_FALSE(verdicts.empty());
  EXPECT_EQ(CheckAnomalyVerdicts(verdicts), "");

  auto accepted_bad = verdicts;
  for (auto& v : accepted_bad) {
    if (v.bad) {
      v.accepted = true;
      break;
    }
  }
  EXPECT_NE(CheckAnomalyVerdicts(accepted_bad), "");

  auto rejected_good = verdicts;
  for (auto& v : rejected_good) {
    if (!v.bad) {
      v.accepted = false;
      break;
    }
  }
  EXPECT_NE(CheckAnomalyVerdicts(rejected_good), "");
  EXPECT_NE(CheckAnomalyVerdicts({}), "");
}

}  // namespace
}  // namespace perfbench
