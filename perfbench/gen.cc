#include "gen.h"

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <unordered_set>

namespace perfbench {

namespace {

// Workload sizes. They fix the history size, WAL length and memory of
// one round; README.md gives the reasons for each.
constexpr size_t kBankAccounts = 300;
constexpr int64_t kBankInitialBalance = int64_t{1} << 40;
constexpr size_t kBankClients = 4;
constexpr size_t kBankTxnsPerClient = 2500;
constexpr double kBankTheta = 0.99;
constexpr double kBankTransferShare = 0.9;

constexpr size_t kDirRoots = 4;
constexpr size_t kDirClients = 4;
constexpr size_t kDirKeysPerClient = 512;
constexpr size_t kDirTxnsPerClient = 1500;

constexpr size_t kEncTxns = 380;

/// `prefix`, then `n` in decimal, then '-' and `v` as `digits` hex
/// digits when digits > 0.
std::string Name(char prefix, uint64_t n, uint64_t v = 0, int digits = 0) {
  char buf[48];
  if (digits > 0) {
    std::snprintf(buf, sizeof(buf), "%c%llu-%0*llx", prefix,
                  static_cast<unsigned long long>(n), digits,
                  static_cast<unsigned long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%c%llu", prefix,
                  static_cast<unsigned long long>(n));
  }
  return buf;
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
  double zeta2 = 0;
  zetan_ = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    zetan_ += 1.0 / std::pow(double(i), theta);
    if (i == 2) zeta2 = zetan_;
  }
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
}

uint64_t Zipf::Next(Rng& rng) const {
  const double u = rng.Unit();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const uint64_t v =
      uint64_t(double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return v < n_ ? v : n_ - 1;
}

BankPlan MakeBankPlan(uint64_t seed) {
  BankPlan plan;
  plan.accounts = kBankAccounts;
  plan.initial_balance = kBankInitialBalance;
  // Zipf rank r is account r, so the hot accounts are the same on every
  // seed, and which calls are transfers comes from a fixed seed, so
  // every seed sends the same number of each; the seed picks accounts
  // and amounts.
  const Zipf zipf(kBankAccounts, kBankTheta);
  plan.clients.resize(kBankClients);
  for (size_t c = 0; c < kBankClients; ++c) {
    Rng kinds(0x62616e6b + c);
    Rng rng(seed * 1000003 + c);
    auto& calls = plan.clients[c];
    calls.reserve(kBankTxnsPerClient);
    for (size_t i = 0; i < kBankTxnsPerClient; ++i) {
      BankCall call;
      call.transfer = kinds.Unit() < kBankTransferShare;
      call.from = int64_t(zipf.Next(rng));
      if (call.transfer) {
        do {
          call.to = int64_t(zipf.Next(rng));
        } while (call.to == call.from);
        call.amount = 1 + int64_t(rng.Below(100));
      }
      calls.push_back(call);
    }
  }
  return plan;
}

DirPlan MakeDirPlan(uint64_t seed) {
  DirPlan plan;
  plan.roots = kDirRoots;
  plan.clients.resize(kDirClients);
  for (size_t c = 0; c < kDirClients; ++c) {
    // As in the bank: the number of inserts per transaction comes from a
    // fixed seed, keys and values from --seed.
    Rng kinds(0x646972 + c);
    Rng rng(seed * 1000033 + c);
    auto& txns = plan.clients[c];
    txns.resize(kDirTxnsPerClient);
    for (size_t i = 0; i < kDirTxnsPerClient; ++i) {
      const size_t inserts = 1 + kinds.Below(3);
      for (size_t k = 0; k < inserts; ++k) {
        const uint64_t slot = rng.Below(kDirKeysPerClient);
        DirInsert ins;
        ins.root = uint32_t(slot % kDirRoots);
        ins.key = Name('c', c, slot, 4);
        ins.value = Name('v', i, rng.Next(), 16);
        txns[i].push_back(std::move(ins));
      }
    }
  }
  return plan;
}

EncPlan MakeEncPlan(uint64_t seed) {
  EncPlan plan;
  // The sequence of operation kinds comes from a fixed seed, so the live
  // set grows and shrinks the same way on every seed and the history
  // has the same size and shape; --seed picks the keys and the items.
  Rng kinds(0x656e6379);
  Rng rng(seed * 1000037 + 7);
  std::unordered_set<std::string> used;
  auto& live = plan.live;
  plan.calls.reserve(kEncTxns);
  for (size_t i = 0; i < kEncTxns; ++i) {
    EncCall call;
    const double u = kinds.Unit();
    if (live.empty() || u < 0.40) {
      call.op = EncOp::kInsert;
      do {
        call.key = Name('k', 0, rng.Next() & 0xffffffffULL, 8);
      } while (!used.insert(call.key).second);
      call.data = Name('d', i);
      live.emplace_back(call.key, call.data);
    } else if (u < 0.65) {
      call.op = EncOp::kChange;
      auto& entry = live[rng.Below(live.size())];
      call.key = entry.first;
      call.data = Name('d', i);
      call.expect = entry.second;
      entry.second = call.data;
    } else if (u < 0.85) {
      call.op = EncOp::kSearch;
      if (!plan.erased.empty() && kinds.Unit() < 0.2) {
        call.key = plan.erased[rng.Below(plan.erased.size())];
        call.expect_none = true;
      } else {
        const auto& entry = live[rng.Below(live.size())];
        call.key = entry.first;
        call.expect = entry.second;
      }
    } else if (u < 0.95) {
      call.op = EncOp::kErase;
      const size_t at = rng.Below(live.size());
      call.key = live[at].first;
      call.expect = live[at].second;
      plan.erased.push_back(call.key);
      live.erase(live.begin() + std::ptrdiff_t(at));
    } else {
      call.op = EncOp::kReadSeq;
      call.expect_seq = live;
    }
    plan.calls.push_back(std::move(call));
  }
  return plan;
}

}  // namespace perfbench
