// The query executor: the one place a query runs against one
// ComplexDatabase (DESIGN.md §8). RunWorkload, RunConcurrentWorkload's
// workers, the network service and each shard of the ShardedEngine all
// execute through it, so every front end bills a query the same way —
// the paper's yardstick is average I/O per query. It owns:
//
//   * isolation, chosen by the database: strict per-query 2PL on table
//     locks (LockRequestsFor + ScopedLockSet), or, with db->mvcc set, a
//     snapshot read (mvcc::SnapshotRetrieve) and a version-store commit
//     (mvcc::MvccUpdate) that take no table locks;
//   * the per-update WAL transaction of the 2PL path, when the pool has a
//     WAL attached;
//   * the "retrieve"/"update" trace spans and heat-map touches
//     (QueryScope), and the profile's lock-wait and commit-wait hooks;
//   * a pool of strategy sessions per kind. Strategies are stateful
//     (DFSCACHE holds I-locks, ADAPTIVE carries calibration state), so a
//     session serves one query at a time.
//
// The executor has no configuration of its own: its behaviour follows
// from the database. It is thread-safe.
#ifndef OBJREP_EXEC_EXECUTOR_H_
#define OBJREP_EXEC_EXECUTOR_H_

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/runner.h"
#include "core/strategy.h"
#include "exec/lock_manager.h"
#include "objstore/database.h"
#include "objstore/workload.h"
#include "obs/trace.h"
#include "util/status.h"

namespace objrep {

/// The query-level hooks: opens the "retrieve" / "update" trace span
/// (args: num_top or targets, and the calling thread's physical I/O);
/// Done() charges the heat map. ShardedEngine opens one around a query it
/// splits across shard executors, so a sharded query is traced and
/// heat-charged once, like an unsharded one.
class QueryScope {
 public:
  explicit QueryScope(const Query& q);

  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  /// Charges the heat map — the parent range and the relations of
  /// `result`'s subobjects, or the update's target relations (`result`
  /// null) — and closes the span.
  void Done(const RetrieveResult* result);

 private:
  const Query& q_;
  TraceSpan span_;
  uint64_t io_before_;
};

class Executor {
 public:
  /// `db` must outlive the executor. `options` configure pooled sessions.
  explicit Executor(ComplexDatabase* db, StrategyOptions options = {});

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// A pooled strategy session, returned to the pool on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = default;
    ~Lease();
    Strategy* get() const { return strategy_.get(); }

   private:
    friend class Executor;
    Executor* exec_ = nullptr;
    StrategyKind kind_ = StrategyKind::kDfs;
    std::unique_ptr<Strategy> strategy_;
  };

  /// Takes an idle session of `kind`, or builds one. InvalidArgument when
  /// the database lacks a structure the strategy needs (e.g. no cache).
  Status Checkout(StrategyKind kind, Lease* out);

  /// One whole query: QueryScope around RunRetrieve / RunUpdate, through
  /// `session` (a strategy over this database) or a pooled one of `kind`.
  Status Retrieve(Strategy* session, const Query& q, RetrieveResult* out);
  Status Update(Strategy* session, const Query& q);
  Status Retrieve(StrategyKind kind, const Query& q, RetrieveResult* out);
  Status Update(StrategyKind kind, const Query& q);

  /// A query, or one shard's part of one, without QueryScope: isolation,
  /// the WAL bracket of a 2PL update, and the lock-wait / commit-wait
  /// profile hooks.
  Status RunRetrieve(Strategy* session, const Query& q, RetrieveResult* out);
  Status RunUpdate(Strategy* session, const Query& q);

  ComplexDatabase* db() const { return db_; }
  LockManager* lock_manager() { return &locks_; }

 private:
  /// Takes `q`'s table locks, reporting the wait to the profile.
  ScopedLockSet LockFor(const Query& q);

  ComplexDatabase* const db_;
  const StrategyOptions options_;
  LockManager locks_;

  std::mutex sessions_mu_;
  std::map<StrategyKind, std::vector<std::unique_ptr<Strategy>>>
      idle_;  // guarded by sessions_mu_
};

/// One query of a run, tallied into `tally` (query counts, result count
/// and sum, retrieve cost). RunWorkload and RunConcurrentWorkload's
/// workers share it, so both count and bill a query the same way.
Status RunQuery(Executor* exec, Strategy* session, const Query& q,
                RunResult* tally);

/// One run's measurement window: construction resets the pool and cache
/// statistics and snapshots the disk counters; Close() folds MVCC
/// versions and flushes (both billed) and fills `out`'s flush_io, io,
/// io_by_tag, total_io (== io.total()) and cache_stats.
class RunWindow {
 public:
  explicit RunWindow(Executor* exec);
  Status Close(RunResult* out);

 private:
  Executor* const exec_;
  IoCounters io_start_;
  IoTagBreakdown tags_start_;
};

}  // namespace objrep

#endif  // OBJREP_EXEC_EXECUTOR_H_
