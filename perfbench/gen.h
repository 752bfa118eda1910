// Seeded input generation for the benchmark's three workloads.
//
// Everything a client sends is generated here, before the timed phase,
// from the --seed argument alone; the program receives only the
// generated calls. The generator is the benchmark's own (SplitMix64 and
// a Gray et al. Zipf sampler) so that a change to the program's
// util/random does not change the benchmark's inputs.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [0, 1).
  double Unit() { return double(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf over [0, n) with skew theta in [0, 1) (Gray et al., SIGMOD '94).
/// Rank 0 is the hottest item.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t Next(Rng& rng) const;

 private:
  uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
};

// --- bank-contended ----------------------------------------------------

struct BankCall {
  bool transfer = true;  ///< false: balance(from)
  int64_t from = 0;
  int64_t to = 0;
  int64_t amount = 0;
};

struct BankPlan {
  size_t accounts = 0;
  int64_t initial_balance = 0;
  /// clients[c][i]: the single call of client c's i-th transaction.
  std::vector<std::vector<BankCall>> clients;
};

BankPlan MakeBankPlan(uint64_t seed);

// --- directory-durable -------------------------------------------------

struct DirInsert {
  uint32_t root = 0;
  std::string key;
  std::string value;
};

struct DirPlan {
  size_t roots = 0;
  /// clients[c][i]: the inserts of client c's i-th transaction. Client c
  /// writes only keys of its own range, and a key always goes to the
  /// same root.
  std::vector<std::vector<std::vector<DirInsert>>> clients;
};

DirPlan MakeDirPlan(uint64_t seed);

// --- encyclopedia-validate ---------------------------------------------

enum class EncOp { kInsert, kChange, kSearch, kErase, kReadSeq };

struct EncCall {
  EncOp op = EncOp::kSearch;
  std::string key;
  std::string data;  ///< insert/change payload
  /// The result the call must return on a serial execution: the old
  /// data for change and erase, the data (or none) for search. Unused
  /// for insert, whose result is a fresh item id, and for readSeq.
  bool expect_none = false;
  std::string expect;
  /// readSeq only: the live (key, data) pairs in insertion order.
  std::vector<std::pair<std::string, std::string>> expect_seq;
};

struct EncPlan {
  std::vector<EncCall> calls;  ///< one call per transaction
  /// The final state: live keys in insertion order with their data, and
  /// the keys inserted and later erased.
  std::vector<std::pair<std::string, std::string>> live;
  std::vector<std::string> erased;
};

EncPlan MakeEncPlan(uint64_t seed);

}  // namespace perfbench
