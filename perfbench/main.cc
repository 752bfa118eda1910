// oodb_perfbench: the system benchmark. One process runs one workload:
//
//   oodb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out DIR]
//
// A run generates its inputs from the seed (gen.h), then repeats whole
// rounds of the workload until S seconds have passed. A round builds a
// fresh system with the program's defaults, runs a fixed closed loop of
// transactions (the load phase), runs the workload's post-load step,
// and checks every output against the benchmark's own oracles
// (checks.h). Fresh rounds keep the history size, the WAL length and
// the memory of a round the same from run to run, whatever the
// machine's speed.
//
//   bank-contended         4 clients, one escrow Bank, Zipf accounts;
//                          post-load step: one Bank::Audit transaction
//   directory-durable      4 clients over persistent Directory roots,
//                          WAL forced at commit; post-load step: shut
//                          down, StorageEngine::Open + Recover
//   encyclopedia-validate  1 client, the Fig 2 mix on an Encyclopedia;
//                          post-load step: Validator::Validate
//
// The last line of stdout is one JSON object: correct, attempted,
// failed and the metrics. With --trace 0 they are the end-to-end
// metrics, measured with nothing attached to the program. With --trace
// 1 a MetricsRegistry is attached, the benchmark records a span around
// each of its calls into a layer, and the metrics are the per-layer
// ones; the first round's spans are written to
// DIR/spans-<workload>-<seed>.jsonl. README.md lists every metric.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "apps/bank.h"
#include "apps/encyclopedia.h"
#include "checks.h"
#include "containers/codec.h"
#include "containers/directory.h"
#include "containers/persist.h"
#include "gen.h"
#include "model/extension.h"
#include "obs/phases.h"
#include "schedule/conventional.h"
#include "schedule/dependency_engine.h"
#include "schedule/validator.h"
#include "storage/recovery.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using oodb::Database;
using oodb::Invocation;
using oodb::MethodContext;
using oodb::MetricsRegistry;
using oodb::ObjectId;
using oodb::Status;
using oodb::Value;

// Initialized before main runs: set-up time counts from here.
const Clock::time_point g_process_start = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - g_process_start)
      .count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A field of /proc/self/status in KiB (VmRSS, VmHWM), or 0.
uint64_t StatusKiB(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

/// Exact nearest-rank quantile of `v` (sorted in place).
double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = size_t(std::ceil(q * double(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// --- spans ---------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0: a root span
  uint64_t trace = 0;   ///< shared by the spans of one transaction
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// The spans of one thread. Kept in memory and written out at the end.
class SpanLane {
 public:
  explicit SpanLane(uint64_t lane) : next_id_((lane + 1) << 40) {}

  /// Opens a span and returns its index for Close.
  size_t Open(const char* name, uint64_t parent, uint64_t trace) {
    Span s;
    s.id = ++next_id_;
    s.parent = parent;
    s.trace = trace == 0 ? s.id : trace;
    s.name = name;
    s.start_ns = NowNs();
    spans_.push_back(s);
    return spans_.size() - 1;
  }
  /// Closes span `index` and returns its duration in ns.
  int64_t Close(size_t index) {
    Span& s = spans_[index];
    s.end_ns = NowNs();
    return s.end_ns - s.start_ns;
  }
  const Span& at(size_t index) const { return spans_[index]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

// --- what a run accumulates ------------------------------------------------

struct RunTotals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t committed = 0;
  // One value per round each: exact percentiles of the round's
  // transaction latencies, its load-phase throughput and the duration
  // of its post-load step.
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> txn_per_s;
  std::vector<double> post_load_s;
  // Traced runs only.
  std::vector<double> call_us;      ///< top-level MethodContext::Call
  std::vector<double> txn_self_us;  ///< RunTransaction minus its calls
  std::map<std::string, double> sums;  ///< counters summed over rounds
  std::map<std::string, std::vector<double>> samples;  ///< one per round
};

/// One client's accumulation during the load phase, merged afterwards.
struct ClientTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latency_us;
  std::vector<double> call_us;
  std::vector<double> self_us;
};

/// What one round records besides its end-to-end figures.
struct RoundContext {
  bool first = false;  ///< the run's first round
  bool trace = false;
  /// Traced rounds only: lane 0 holds the main thread's spans, lane
  /// c + 1 those of client c.
  std::vector<std::unique_ptr<SpanLane>> lanes;

  SpanLane* lane(size_t i) const { return trace ? lanes[i].get() : nullptr; }
};

/// Runs `per_client` transactions on each of `clients` closed-loop
/// clients. `run(c, i, tally)` runs client c's i-th transaction and
/// returns its status. A single client runs on the calling thread, so
/// it keeps the caches the set-up warmed. Returns the load phase's wall
/// seconds.
double RunClients(size_t clients, size_t per_client,
                  std::vector<ClientTally>* tallies,
                  const std::function<Status(size_t, size_t, ClientTally&)>& run) {
  tallies->assign(clients, ClientTally{});
  auto client = [&](size_t c) {
    ClientTally& tally = (*tallies)[c];
    for (size_t i = 0; i < per_client; ++i) {
      const Clock::time_point t0 = Clock::now();
      const Status st = run(c, i, tally);
      tally.latency_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      ++tally.attempted;
      if (!st.ok()) ++tally.failed;
    }
  };
  for (ClientTally& tally : *tallies) tally.latency_us.reserve(per_client);
  if (clients == 1) {
    const Clock::time_point t0 = Clock::now();
    client(0);
    return SecondsSince(t0);
  }
  std::latch start(std::ptrdiff_t(clients) + 1);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      start.arrive_and_wait();
      client(c);
    });
  }
  start.arrive_and_wait();
  const Clock::time_point t0 = Clock::now();
  for (auto& t : threads) t.join();
  return SecondsSince(t0);
}

void MergeTallies(const std::vector<ClientTally>& tallies, double load_s,
                  RunTotals* totals) {
  uint64_t committed = 0;
  std::vector<double> latency_us;
  for (const ClientTally& t : tallies) {
    totals->attempted += t.attempted;
    totals->failed += t.failed;
    committed += t.attempted - t.failed;
    latency_us.insert(latency_us.end(), t.latency_us.begin(),
                      t.latency_us.end());
    totals->call_us.insert(totals->call_us.end(), t.call_us.begin(),
                           t.call_us.end());
    totals->txn_self_us.insert(totals->txn_self_us.end(), t.self_us.begin(),
                               t.self_us.end());
  }
  totals->committed += committed;
  totals->txn_per_s.push_back(double(committed) / load_s);
  totals->p50_us.push_back(Quantile(latency_us, 0.50));
  totals->p99_us.push_back(Quantile(latency_us, 0.99));
}

/// Issues one top-level call of a transaction body.
using CallFn = std::function<Status(ObjectId, const Invocation&, Value*)>;

/// Runs one transaction whose body issues its top-level calls through
/// the CallFn it is given. With a lane, spans the transaction and each
/// call, and records the call times and the transaction's self time
/// (outside its calls) into `tally`.
Status Txn(Database* db, const std::string& name, SpanLane* lane,
           ClientTally& tally, const std::function<Status(const CallFn&)>& body) {
  if (lane == nullptr) {
    return db->RunTransaction(name, [&](MethodContext& txn) {
      return body([&](ObjectId obj, const Invocation& inv, Value* result) {
        return txn.Call(obj, inv, result);
      });
    });
  }
  int64_t calls_ns = 0;
  const size_t txn_span = lane->Open("txn", 0, 0);
  const uint64_t txn_id = lane->at(txn_span).id;
  const Status st = db->RunTransaction(name, [&](MethodContext& txn) {
    return body([&](ObjectId obj, const Invocation& inv, Value* result) {
      const size_t call_span = lane->Open("call", txn_id, txn_id);
      const Status s = txn.Call(obj, inv, result);
      const int64_t ns = lane->Close(call_span);
      calls_ns += ns;
      tally.call_us.push_back(double(ns) / 1e3);
      return s;
    });
  });
  tally.self_us.push_back(double(lane->Close(txn_span) - calls_ns) / 1e3);
  return st;
}

/// Lock-manager and history counters of one round's database.
void AddCcCounters(Database& db, RunTotals* totals) {
  totals->sums["lock_waits"] += double(db.locks().wait_count());
  uint64_t wait_ns = 0;
  for (const auto& shard : db.locks().PerShardStats()) wait_ns += shard.wait_ns;
  totals->sums["lock_wait_ns"] += double(wait_ns);
  totals->sums["deadlocks"] += double(db.counters().deadlocks.load());
  totals->sums["db_committed"] += double(db.counters().committed.load());
}

void AddPhaseSums(MetricsRegistry& registry, RunTotals* totals) {
  for (size_t i = 0; i < oodb::kPhaseCount; ++i) {
    const char* suffix = oodb::PhaseSuffix(static_cast<oodb::Phase>(i));
    totals->sums[std::string("phase.") + suffix] += double(
        registry.GetHistogram(std::string("phase.") + suffix + "_ns")
            ->Snapshot()
            .sum());
  }
}

/// A timed step of the main thread: spanned when traced.
template <typename F>
double TimedStep(SpanLane* lane, const char* name, uint64_t parent, F&& fn) {
  const size_t span = lane ? lane->Open(name, parent, parent) : 0;
  const Clock::time_point t0 = Clock::now();
  fn();
  const double s = SecondsSince(t0);
  if (lane) lane->Close(span);
  return s;
}

// --- workloads ------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds a fresh system for the next round.
  virtual void Prepare(const RoundContext& ctx) = 0;
  /// Load phase, post-load step and checks. Returns "" or the first
  /// correctness failure.
  virtual std::string Round(const RoundContext& ctx, RunTotals* totals) = 0;
  /// Checks made once per run, after the rounds.
  virtual std::string Finish() { return ""; }
};

// bank-contended --------------------------------------------------------

class BankWorkload : public Workload {
 public:
  explicit BankWorkload(uint64_t seed) : plan_(MakeBankPlan(seed)) {}

  void Prepare(const RoundContext& ctx) override {
    db_.reset();  // detaches from the old registry before it goes
    registry_ = std::make_unique<MetricsRegistry>();
    db_ = std::make_unique<Database>();
    oodb::Bank::RegisterMethods(db_.get(), oodb::BankSemantics::kEscrow);
    bank_ = oodb::Bank::Create(db_.get(), "Bank", oodb::BankSemantics::kEscrow,
                               plan_.accounts, plan_.initial_balance);
    if (ctx.trace) db_->AttachObservability(registry_.get(), nullptr);
  }

  std::string Round(const RoundContext& ctx, RunTotals* totals) override {
    const size_t clients = plan_.clients.size();
    const size_t per_client = plan_.clients[0].size();
    std::vector<std::vector<int64_t>> deltas(
        clients, std::vector<int64_t>(plan_.accounts, 0));
    const uint64_t rss_before = StatusKiB("VmRSS");
    std::vector<ClientTally> tallies;
    const std::string name = "bank";
    const double load_s = RunClients(
        clients, per_client, &tallies,
        [&](size_t c, size_t i, ClientTally& tally) {
          const BankCall& call = plan_.clients[c][i];
          const Invocation inv =
              call.transfer
                  ? oodb::Bank::Transfer(call.from, call.to, call.amount)
                  : oodb::Bank::Balance(call.from);
          Value result;
          const Status st = Txn(db_.get(), name, ctx.lane(c + 1), tally,
                                [&](const CallFn& call_fn) {
                                  return call_fn(bank_, inv, &result);
                                });
          if (st.ok() && call.transfer) {
            deltas[c][size_t(call.from)] -= call.amount;
            deltas[c][size_t(call.to)] += call.amount;
          }
          return st;
        });
    MergeTallies(tallies, load_s, totals);
    if (ctx.trace) {
      // Later rounds reuse the memory the first one freed, so only the
      // first round's growth measures the history.
      if (ctx.first) RecordHistoryFootprint(rss_before, totals);
      totals->sums["actions"] += double(db_->ts().action_count());
      AddCcCounters(*db_, totals);
      AddPhaseSums(*registry_, totals);
    }

    Value total;
    Status audit;
    totals->post_load_s.push_back(
        TimedStep(ctx.lane(0), "audit", 0, [&] {
          audit = db_->RunTransaction("audit", [&](MethodContext& txn) {
            return txn.Call(bank_, oodb::Bank::Audit(), &total);
          });
        }));

    // Checks: conserved total, per-account oracle, no lock left behind.
    if (!audit.ok()) return "audit failed: " + audit.ToString();
    const int64_t conserved =
        int64_t(plan_.accounts) * plan_.initial_balance;
    if (total.AsInt() != conserved) {
      return "audit returned " + std::to_string(total.AsInt()) +
             ", expected " + std::to_string(conserved);
    }
    std::vector<int64_t> expected(plan_.accounts, plan_.initial_balance);
    std::vector<int64_t> observed;
    for (size_t a = 0; a < plan_.accounts; ++a) {
      for (size_t c = 0; c < clients; ++c) expected[a] += deltas[c][a];
      Value balance;
      const Status st = db_->RunTransaction("check", [&](MethodContext& txn) {
        return txn.Call(bank_, oodb::Bank::Balance(int64_t(a)), &balance);
      });
      if (!st.ok()) return "balance read failed: " + st.ToString();
      observed.push_back(balance.AsInt());
    }
    std::string err = CheckBalances(expected, observed);
    if (!err.empty()) return err;
    if (db_->locks().LockCount() != 0) {
      return std::to_string(db_->locks().LockCount()) +
             " locks held after the run";
    }
    return "";
  }

 private:
  void RecordHistoryFootprint(uint64_t rss_before_kib, RunTotals* totals) {
    const double actions = double(db_->ts().action_count());
    const double grown = double(StatusKiB("VmRSS")) - double(rss_before_kib);
    totals->samples["history_bytes_per_action"].push_back(
        std::max(0.0, grown) * 1024.0 / std::max(1.0, actions));
  }

  BankPlan plan_;
  std::unique_ptr<MetricsRegistry> registry_;  // outlives db_
  std::unique_ptr<Database> db_;
  ObjectId bank_;
};

// directory-durable -----------------------------------------------------

class DirectoryWorkload : public Workload {
 public:
  DirectoryWorkload(uint64_t seed, std::string store)
      : plan_(MakeDirPlan(seed)), store_(std::move(store)) {}
  ~DirectoryWorkload() override {
    engine_.reset();
    db_.reset();
    std::error_code ec;
    std::filesystem::remove_all(store_, ec);
  }

  void Prepare(const RoundContext& ctx) override {
    engine_.reset();
    db_.reset();
    std::error_code ec;
    std::filesystem::remove_all(store_, ec);
    registry_ = std::make_unique<MetricsRegistry>();
    db_ = std::make_unique<Database>();
    oodb::RegisterDirectoryMethods(db_.get());
    engine_ = std::make_unique<oodb::StorageEngine>(Options());
    prepare_status_ = OpenFresh();
    if (ctx.trace) {
      db_->AttachObservability(registry_.get(), nullptr);
      engine_->AttachMetrics(registry_.get());
    }
    if (prepare_status_.ok()) db_->AttachDurability(engine_.get());
  }

  std::string Round(const RoundContext& ctx, RunTotals* totals) override {
    if (!prepare_status_.ok()) {
      return "opening the store failed: " + prepare_status_.ToString();
    }
    const size_t clients = plan_.clients.size();
    const size_t per_client = plan_.clients[0].size();
    std::vector<ObjectId> roots;
    for (size_t r = 0; r < plan_.roots; ++r) {
      roots.push_back(engine_->RootId(RootName(r)));
    }
    // oracle[c]: last committed value per key of client c's range.
    std::vector<std::map<std::string, std::string>> oracle(clients);
    std::vector<ClientTally> tallies;
    const std::string name = "dir";
    const double load_s = RunClients(
        clients, per_client, &tallies,
        [&](size_t c, size_t i, ClientTally& tally) {
          const auto& inserts = plan_.clients[c][i];
          const Status st = Txn(
              db_.get(), name, ctx.lane(c + 1), tally,
              [&](const CallFn& call) -> Status {
                for (const DirInsert& ins : inserts) {
                  OODB_RETURN_IF_ERROR(call(
                      roots[ins.root],
                      Invocation("insert", {Value(ins.key), Value(ins.value)}),
                      nullptr));
                }
                return Status::OK();
              });
          if (st.ok()) {
            for (const DirInsert& ins : inserts) {
              oracle[c][RootName(ins.root) + "/" + ins.key] = ins.value;
            }
          }
          return st;
        });
    MergeTallies(tallies, load_s, totals);
    uint64_t acknowledged = 0;
    for (const ClientTally& t : tallies) acknowledged += t.attempted - t.failed;
    if (ctx.trace) {
      AddCcCounters(*db_, totals);
      AddPhaseSums(*registry_, totals);
      totals->sums["wal_forces"] +=
          double(registry_->GetCounter("wal.forces")->Value());
      totals->sums["wal_bytes"] +=
          double(registry_->GetCounter("wal.bytes")->Value());
      totals->samples["fsync_us"].push_back(
          double(registry_->GetHistogram("wal.fsync_ns")->Snapshot().Quantile(
              0.5)) /
          1e3);
      totals->sums["actions"] += double(db_->ts().action_count());
    }

    // Shut down, then restart into a fresh Database.
    db_->AttachDurability(nullptr);
    engine_.reset();
    db_.reset();
    db_ = std::make_unique<Database>();
    oodb::RegisterDirectoryMethods(db_.get());
    engine_ = std::make_unique<oodb::StorageEngine>(Options());
    oodb::RecoveryStats stats;
    Status open = oodb::RegisterStandardSerdes(engine_.get());
    Status recover;
    SpanLane* main_lane = ctx.lane(0);
    const size_t restart_span =
        main_lane ? main_lane->Open("restart", 0, 0) : 0;
    const uint64_t restart_id = main_lane ? main_lane->at(restart_span).id : 0;
    const Clock::time_point t0 = Clock::now();
    const double open_s = TimedStep(main_lane, "open", restart_id, [&] {
      if (open.ok()) open = engine_->Open(db_.get());
    });
    TimedStep(main_lane, "recover", restart_id, [&] {
      if (open.ok()) recover = oodb::Recover(engine_.get(), db_.get(), &stats);
    });
    totals->post_load_s.push_back(SecondsSince(t0));
    if (main_lane) main_lane->Close(restart_span);
    if (ctx.trace) {
      using oodb::RecoveryPhase;
      totals->samples["open_ms"].push_back(open_s * 1e3);
      const auto ms = [&](RecoveryPhase p) {
        return double(stats.timeline.Ns(p)) / 1e6;
      };
      totals->samples["recovery_scan_ms"].push_back(ms(RecoveryPhase::kScan));
      totals->samples["recovery_analysis_ms"].push_back(
          ms(RecoveryPhase::kAnalysis));
      totals->samples["recovery_redo_ms"].push_back(ms(RecoveryPhase::kRedo));
      totals->samples["recovery_checkpoint_ms"].push_back(
          ms(RecoveryPhase::kCheckpoint));
      totals->samples["redo_records"].push_back(double(stats.redo_records));
    }

    // Checks: every acknowledged commit is a winner, and the recovered
    // roots hold exactly the oracle.
    if (!open.ok()) return "reopening the store failed: " + open.ToString();
    if (!recover.ok()) return "recovery failed: " + recover.ToString();
    if (stats.winners != acknowledged || stats.losers != 0) {
      return "recovery found " + std::to_string(stats.winners) +
             " winners and " + std::to_string(stats.losers) + " losers, " +
             std::to_string(acknowledged) + " commits were acknowledged";
    }
    std::map<std::string, std::string> expected;
    for (const auto& part : oracle) expected.insert(part.begin(), part.end());
    std::map<std::string, std::string> looked_up;
    std::map<std::string, std::string> stored;
    for (size_t r = 0; r < plan_.roots; ++r) {
      const ObjectId root = engine_->RootId(RootName(r));
      if (!root.valid()) return "root " + RootName(r) + " not recovered";
      for (const auto& [key, value] :
           db_->StateOf<oodb::DirectoryState>(root)->entries) {
        stored[RootName(r) + "/" + key] = value;
      }
    }
    for (const auto& [path, value] : expected) {
      const size_t slash = path.find('/');
      const ObjectId root = engine_->RootId(path.substr(0, slash));
      Value found;
      const Status st = db_->RunTransaction("check", [&](MethodContext& txn) {
        return txn.Call(root, Invocation("lookup", {Value(path.substr(slash + 1))}),
                        &found);
      });
      if (!st.ok()) return "lookup failed: " + st.ToString();
      if (found.IsString()) looked_up[path] = found.AsString();
    }
    std::string err = CheckDirectory(expected, looked_up);
    if (err.empty()) err = CheckDirectory(expected, stored);
    engine_.reset();
    db_.reset();
    std::error_code ec;
    std::filesystem::remove_all(store_, ec);
    return err;
  }

 private:
  static std::string RootName(size_t r) { return "D" + std::to_string(r); }

  oodb::StorageEngineOptions Options() const {
    oodb::StorageEngineOptions options;
    options.dir = store_;
    return options;
  }

  Status OpenFresh() {
    OODB_RETURN_IF_ERROR(oodb::RegisterStandardSerdes(engine_.get()));
    OODB_RETURN_IF_ERROR(engine_->Open(db_.get()));
    for (size_t r = 0; r < plan_.roots; ++r) {
      OODB_RETURN_IF_ERROR(engine_->AttachRoot(
          RootName(r), "directory",
          oodb::CreateDirectory(db_.get(), RootName(r))));
    }
    return oodb::Recover(engine_.get(), db_.get());
  }

  DirPlan plan_;
  std::string store_;
  std::unique_ptr<MetricsRegistry> registry_;
  // Declared before engine_: the engine is destroyed first.
  std::unique_ptr<Database> db_;
  std::unique_ptr<oodb::StorageEngine> engine_;
  Status prepare_status_;
};

// encyclopedia-validate -------------------------------------------------

class EncyclopediaWorkload : public Workload {
 public:
  explicit EncyclopediaWorkload(uint64_t seed) : plan_(MakeEncPlan(seed)) {}

  void Prepare(const RoundContext& ctx) override {
    db_.reset();  // detaches from the old registry before it goes
    registry_ = std::make_unique<MetricsRegistry>();
    db_ = MakeDatabase(&enc_);
    if (ctx.trace) db_->AttachObservability(registry_.get(), nullptr);
  }

  std::string Round(const RoundContext& ctx, RunTotals* totals) override {
    std::vector<Value> results(plan_.calls.size());
    std::vector<ClientTally> tallies;
    const std::string name = "enc";
    const double load_s = RunClients(
        1, plan_.calls.size(), &tallies,
        [&](size_t, size_t i, ClientTally& tally) {
          const Invocation inv = ToInvocation(plan_.calls[i]);
          return Txn(db_.get(), name, ctx.lane(1), tally,
                     [&](const CallFn& call) {
                       return call(enc_, inv, &results[i]);
                     });
        });
    MergeTallies(tallies, load_s, totals);
    const double actions = double(db_->ts().action_count());
    if (ctx.trace) {
      AddCcCounters(*db_, totals);
      AddPhaseSums(*registry_, totals);
      totals->sums["actions"] += actions;
      totals->samples["history_actions"].push_back(actions);
    }

    oodb::ValidationReport report;
    totals->post_load_s.push_back(TimedStep(ctx.lane(0), "validate", 0, [&] {
      report = oodb::Validator::Validate(&db_->ts());
    }));
    if (ctx.trace) {
      totals->samples["primitive_conflicts"].push_back(
          double(report.stats.primitive_conflicts));
      totals->samples["inherited_txn_deps"].push_back(
          double(report.stats.inherited_txn_deps));
      totals->samples["fixpoint_rounds"].push_back(
          double(report.stats.fixpoint_rounds));
      std::string err = TimeStages(ctx, totals);
      if (!err.empty()) return err;
    }

    // Checks: the serial execution is oo-serializable, conventionally
    // serializable and conformant; every call returned what a serial
    // execution returns; the final state matches the plan.
    if (!report.oo_serializable || !report.conventionally_serializable ||
        !report.conform) {
      return "validator rejected a serial history: " + report.Summary();
    }
    for (size_t i = 0; i < plan_.calls.size(); ++i) {
      if (tallies[0].failed > 0) break;  // results of failed calls are void
      std::string err = CheckResult(plan_.calls[i], results[i]);
      if (!err.empty()) return "call " + std::to_string(i) + ": " + err;
    }
    std::map<std::string, std::optional<std::string>> found;
    auto search = [&](const std::string& key) -> Status {
      Value v;
      OODB_RETURN_IF_ERROR(db_->RunTransaction("check", [&](MethodContext& txn) {
        return txn.Call(enc_, oodb::Encyclopedia::Search(key), &v);
      }));
      found[key] = v.IsNone() ? std::nullopt
                              : std::optional<std::string>(v.AsString());
      return Status::OK();
    };
    for (const auto& [key, data] : plan_.live) {
      const Status st = search(key);
      if (!st.ok()) return "search failed: " + st.ToString();
    }
    for (const std::string& key : plan_.erased) {
      const Status st = search(key);
      if (!st.ok()) return "search failed: " + st.ToString();
    }
    std::string err = CheckEncState(plan_.live, plan_.erased, found);
    if (!err.empty()) return err;
    Value listing;
    const Status st = db_->RunTransaction("check", [&](MethodContext& txn) {
      return txn.Call(enc_, oodb::Encyclopedia::ReadSeq(), &listing);
    });
    if (!st.ok()) return "readSeq failed: " + st.ToString();
    return CheckReadSeq(plan_.live, oodb::SplitFields(listing.AsString()));
  }

  std::string Finish() override {
    return CheckAnomalyVerdicts(RunAnomalyWorlds());
  }

 private:
  static std::unique_ptr<Database> MakeDatabase(ObjectId* enc) {
    auto db = std::make_unique<Database>();
    oodb::Encyclopedia::RegisterMethods(db.get());
    // Small pages, so the B+ tree and the list split during the load.
    *enc = oodb::Encyclopedia::Create(db.get(), "Enc", /*leaf_capacity=*/8,
                                      /*fanout=*/8, /*items_per_page=*/4,
                                      /*list_page_capacity=*/64);
    return db;
  }

  static Invocation ToInvocation(const EncCall& call) {
    switch (call.op) {
      case EncOp::kInsert:
        return oodb::Encyclopedia::Insert(call.key, call.data);
      case EncOp::kChange:
        return oodb::Encyclopedia::Change(call.key, call.data);
      case EncOp::kSearch:
        return oodb::Encyclopedia::Search(call.key);
      case EncOp::kErase:
        return oodb::Encyclopedia::Erase(call.key);
      case EncOp::kReadSeq:
        return oodb::Encyclopedia::ReadSeq();
    }
    return oodb::Encyclopedia::ReadSeq();
  }

  static std::string CheckResult(const EncCall& call, const Value& got) {
    switch (call.op) {
      case EncOp::kInsert:
        return got.IsInt() ? "" : "insert returned no item id";
      case EncOp::kReadSeq:
        return CheckReadSeq(call.expect_seq, oodb::SplitFields(got.AsString()));
      case EncOp::kSearch:
        if (call.expect_none) {
          return got.IsNone() ? "" : "search of erased " + call.key + " found it";
        }
        [[fallthrough]];
      case EncOp::kChange:
      case EncOp::kErase:
        if (got.IsString() && got.AsString() == call.expect) return "";
        return call.key + " returned '" + got.ToString() + "', expected '" +
               call.expect + "'";
    }
    return "";
  }

  /// The validator's stages, each timed on its own, on a regenerated
  /// copy of the round's history (the single-client history repeats
  /// exactly for a given plan).
  std::string TimeStages(const RoundContext& ctx, RunTotals* totals) {
    ObjectId enc;
    std::unique_ptr<Database> copy = MakeDatabase(&enc);
    for (const EncCall& call : plan_.calls) {
      Value ignored;
      (void)copy->RunTransaction("enc", [&](MethodContext& txn) {
        return txn.Call(enc, ToInvocation(call), &ignored);
      });
    }
    oodb::TransactionSystem& ts = copy->ts();
    SpanLane* lane = ctx.lane(0);
    totals->samples["extension_s"].push_back(
        TimedStep(lane, "extend", 0, [&] { oodb::SystemExtender::Extend(&ts); }));
    Status computed;
    totals->samples["dependency_s"].push_back(TimedStep(lane, "compute", 0, [&] {
      oodb::DependencyEngine engine(ts);
      computed = engine.Compute();
    }));
    if (!computed.ok()) return "dependency computation failed: " + computed.ToString();
    totals->samples["conventional_s"].push_back(TimedStep(
        lane, "check", 0, [&] { (void)oodb::ConventionalChecker::Check(ts); }));
    return "";
  }

  EncPlan plan_;
  std::unique_ptr<MetricsRegistry> registry_;  // outlives db_
  std::unique_ptr<Database> db_;
  ObjectId enc_;
};

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> EndToEnd(RunTotals& t, double setup_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"txn_per_s", Median(t.txn_per_s), "1/s"},
      {"txn_p50_us", Median(t.p50_us), "us"},
      {"txn_p99_us", Median(t.p99_us), "us"},
      {"post_load_s", Median(t.post_load_s), "s"},
      {"peak_rss_mb", double(StatusKiB("VmHWM")) / 1024.0, "MiB"},
  };
}

std::vector<Metric> PerLayer(RunTotals& t) {
  auto sum = [&](const char* k) { return t.sums.count(k) ? t.sums.at(k) : 0.0; };
  auto med = [&](const char* k) {
    return t.samples.count(k) ? Median(t.samples.at(k)) : 0.0;
  };
  const double committed = double(t.committed);
  double phase_total = 0;
  for (size_t i = 0; i < oodb::kPhaseCount; ++i) {
    phase_total += sum((std::string("phase.") +
                        oodb::PhaseSuffix(static_cast<oodb::Phase>(i)))
                           .c_str());
  }
  auto share = [&](oodb::Phase p) {
    return Ratio(sum((std::string("phase.") + oodb::PhaseSuffix(p)).c_str()),
                 phase_total);
  };
  return {
      {"cc.call_us", Median(t.call_us), "us"},
      {"cc.txn_self_us", Median(t.txn_self_us), "us"},
      {"cc.lock_waits_per_txn", Ratio(sum("lock_waits"), committed), "1/txn"},
      {"cc.lock_wait_us_per_txn", Ratio(sum("lock_wait_ns") / 1e3, committed),
       "us/txn"},
      {"cc.deadlocks_per_ktxn", Ratio(sum("deadlocks") * 1e3, committed),
       "1/ktxn"},
      {"cc.phase_admission_share", share(oodb::Phase::kAdmission), "fraction"},
      {"cc.phase_lock_wait_share", share(oodb::Phase::kLockWait), "fraction"},
      {"cc.phase_execute_share", share(oodb::Phase::kExecute), "fraction"},
      {"cc.phase_commit_publish_share", share(oodb::Phase::kCommitPublish),
       "fraction"},
      {"cc.phase_wal_force_share", share(oodb::Phase::kWalForce), "fraction"},
      {"cc.phase_retry_backoff_share", share(oodb::Phase::kRetryBackoff),
       "fraction"},
      {"model.actions_per_txn", Ratio(sum("actions"), sum("db_committed")),
       "1/txn"},
      {"model.history_bytes_per_action", med("history_bytes_per_action"),
       "B/action"},
      {"model.history_actions", med("history_actions"), "count"},
      {"storage.forces_per_commit", Ratio(sum("wal_forces"), committed),
       "1/txn"},
      {"storage.fsync_us", med("fsync_us"), "us"},
      {"storage.wal_bytes_per_commit", Ratio(sum("wal_bytes"), committed),
       "B/txn"},
      {"storage.open_ms", med("open_ms"), "ms"},
      {"storage.recovery_scan_ms", med("recovery_scan_ms"), "ms"},
      {"storage.recovery_analysis_ms", med("recovery_analysis_ms"), "ms"},
      {"storage.recovery_redo_ms", med("recovery_redo_ms"), "ms"},
      {"storage.recovery_checkpoint_ms", med("recovery_checkpoint_ms"), "ms"},
      {"storage.redo_records", med("redo_records"), "count"},
      {"schedule.extension_s", med("extension_s"), "s"},
      {"schedule.dependency_s", med("dependency_s"), "s"},
      {"schedule.conventional_s", med("conventional_s"), "s"},
      {"schedule.primitive_conflicts", med("primitive_conflicts"), "count"},
      {"schedule.inherited_txn_deps", med("inherited_txn_deps"), "count"},
      {"schedule.fixpoint_rounds", med("fixpoint_rounds"), "count"},
      // The traced run's own end-to-end figures: their distance from
      // the untraced run's is the tracing overhead.
      {"obs.traced_txn_per_s", Median(t.txn_per_s), "1/s"},
      {"obs.traced_txn_p50_us", Median(t.p50_us), "us"},
      {"obs.traced_post_load_s", Median(t.post_load_s), "s"},
  };
}

void PrintResult(bool correct, const RunTotals& t,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(t.attempted) +
                    ", \"failed\": " + std::to_string(t.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

bool WriteSpans(const std::string& path,
                const std::vector<std::unique_ptr<SpanLane>>& lanes) {
  std::ofstream out(path);
  for (const auto& lane : lanes) {
    for (const Span& s : lane->spans()) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"trace\":" << s.trace << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
  }
  return bool(out);
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "oodb_perfbench: %s\nusage: oodb_perfbench --workload "
               "bank-contended|directory-durable|encyclopedia-validate "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string out_dir = ".bench_out";
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--out") {
      out_dir = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0 && seconds <= 600)) {
        return Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      trace = value[0] - '0';
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || workload_name.empty() || seconds < 0 || trace < 0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  std::filesystem::create_directories(out_dir);
  std::unique_ptr<Workload> workload;
  if (workload_name == "bank-contended") {
    workload = std::make_unique<BankWorkload>(seed);
  } else if (workload_name == "directory-durable") {
    workload = std::make_unique<DirectoryWorkload>(
        seed, out_dir + "/store-" + std::to_string(::getpid()));
  } else if (workload_name == "encyclopedia-validate") {
    workload = std::make_unique<EncyclopediaWorkload>(seed);
  } else {
    return Usage(("unknown workload " + workload_name).c_str());
  }

  // Spans are recorded in every traced round, so every round pays the
  // same tracing cost; the first round's are kept and written out.
  auto make_round = [&](bool first) {
    RoundContext ctx;
    ctx.first = first;
    ctx.trace = trace == 1;
    for (size_t l = 0; ctx.trace && l < 5; ++l) {
      ctx.lanes.push_back(std::make_unique<SpanLane>(l));
    }
    return ctx;
  };
  std::vector<std::unique_ptr<SpanLane>> first_round_spans;

  RunTotals totals;
  RoundContext ctx = make_round(true);
  workload->Prepare(ctx);
  const double setup_s = double(NowNs()) / 1e9;
  const Clock::time_point start = Clock::now();
  std::string error;
  for (size_t round = 0; error.empty(); ++round) {
    if (round > 0) {
      ctx = make_round(false);
      workload->Prepare(ctx);
    }
    error = workload->Round(ctx, &totals);
    if (round == 0) first_round_spans = std::move(ctx.lanes);
    if (!totals.txn_per_s.empty() && !totals.post_load_s.empty()) {
      std::fprintf(stderr, "round %zu: %.1f txn/s, post-load %.6f s\n", round,
                   totals.txn_per_s.back(), totals.post_load_s.back());
    }
    if (SecondsSince(start) >= seconds) break;
  }
  if (error.empty()) error = workload->Finish();
  if (!error.empty()) {
    std::fprintf(stderr, "oodb_perfbench: %s: %s\n", workload_name.c_str(),
                 error.c_str());
  }
  if (trace == 1) {
    const std::string path = out_dir + "/spans-" + workload_name + "-" +
                             std::to_string(seed) + ".jsonl";
    if (!WriteSpans(path, first_round_spans)) {
      std::fprintf(stderr, "oodb_perfbench: could not write %s\n", path.c_str());
    }
  }
  workload.reset();  // removes the store directory
  PrintResult(error.empty(), totals,
              trace == 1 ? PerLayer(totals) : EndToEnd(totals, setup_s));
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
