// Scatter-gather execution over a ShardedDatabase (DESIGN.md §14).
//
// One ShardedEngine fronts N independent engine instances with the same
// Query interface the single-engine strategies expose. Routing by family:
//
//   * DFS family (DFS, DFSCACHE, DFSCLUST, DFSCLUST+CACHE, and SMART at or
//     below its threshold) — point-wise: the parent range is split into
//     runs of consecutive keys owned by the same shard and each run
//     executes on its owner. Output order is parent-ascending, identical
//     to the single engine.
//   * BFS family (BFS, BFSNODUP, BFS-JI, BFS-HASH) — scatter-gather: the
//     query fans out to every shard (each scans only its local parents in
//     range) and the per-shard OID-sorted streams are K-way merged by
//     packed OID, reproducing the single engine's sorted output. BFSNODUP
//     additionally drops cross-shard duplicates during the merge.
//   * SMART above threshold and ADAPTIVE — fan out and concatenate; their
//     output order is cache-state-dependent even on one engine, so only
//     the result multiset is defined.
//
// Each shard has its own query executor (exec/executor.h): its own
// LockManager (the scale-out lever: an update X-locks only its holder
// shards, not the whole store), its own WAL brackets, and its own pool of
// strategy sessions, hence per-shard adaptive planner state (independent
// DynamicStats and calibration residuals). Each shard also has its own
// cache. The engine itself is routing, merging and MVCC stripe ordering;
// the query-level trace span and heat touches wrap the whole routed query
// once (QueryScope). Updates fan out to every holder shard of each
// target; each holder's update path runs its local I-lock invalidation,
// which is what keeps all shard caches coherent — the cross-shard
// invalidation protocol is "replicas apply the same update", with no
// extra message type.
//
// Crash scope: per-shard WAL transactions, no two-phase commit. A crash
// mid-fanout leaves some holders updated and others not; because updates
// write absolute values, recovering the crashed shard and replaying the
// failed query converges every replica (tests/shard_oracle_test.cc).
//
// MVCC mode (spec.enable_mvcc, DESIGN.md §15): each shard owns its own
// version store and clock. Retrieves take a snapshot per shard sub-query
// and skip the shard lock manager entirely — a cross-shard retrieve is
// per-shard consistent, not globally consistent, matching the crash scope
// above (per-shard transactions, no 2PC). Updates hold striped per-OID
// mutexes across the whole holder fan-out so two conflicting updates
// commit in the same relative order on every replica shard; within a
// shard first-committer-wins still applies.
#ifndef OBJREP_SHARD_ENGINE_H_
#define OBJREP_SHARD_ENGINE_H_

#include <array>
#include <memory>
#include <mutex>
#include <vector>

#include "core/strategy.h"
#include "exec/executor.h"
#include "objstore/workload.h"
#include "shard/sharded_db.h"

namespace objrep {

class Counter;

namespace shard {

class ShardedEngine {
 public:
  /// `db` must outlive the engine. Strategy sessions are created lazily
  /// per kind and pooled by each shard's executor.
  ShardedEngine(ShardedDatabase* db, StrategyOptions options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Appends values/oids to `out` (parallel vectors) and accumulates the
  /// summed per-shard cost, exactly like Strategy::ExecuteRetrieve.
  Status ExecuteRetrieve(StrategyKind kind, const Query& q,
                         RetrieveResult* out);

  /// Fans the update out to every holder shard of each target, each
  /// through its shard's executor: X locks and a WAL transaction (2PL
  /// mode) or the shard's version store under engine-level per-OID
  /// stripes (MVCC mode).
  Status ExecuteUpdate(StrategyKind kind, const Query& q);

  /// MVCC quiescent-point fold on every shard (no-op without MVCC).
  /// Callers must ensure no retrieve/update is in flight.
  Status FoldAll();

  ShardedDatabase* db() { return db_; }
  const DatabaseSpec& spec() const { return db_->spec; }
  uint32_t num_shards() const { return db_->num_shards(); }
  Executor* executor(uint32_t k) { return shards_[k].get(); }

 private:
  bool IsPointwise(StrategyKind kind, const Query& q) const;
  static bool IsSortedMerge(StrategyKind kind);

  /// Runs the sub-query on shard `k` through its executor, with a pooled
  /// session of `kind`.
  Status RunShardRetrieve(StrategyKind kind, uint32_t k, const Query& q,
                          RetrieveResult* out);

  Status RetrievePointwise(StrategyKind kind, const Query& q,
                           RetrieveResult* out);
  Status RetrieveMerge(StrategyKind kind, const Query& q, bool dedup,
                       RetrieveResult* out);
  Status RetrieveConcat(StrategyKind kind, const Query& q,
                        RetrieveResult* out);
  /// Routes each target to its holder shards and runs the update there.
  Status UpdateHolders(StrategyKind kind, const Query& q);

  ShardedDatabase* db_;
  StrategyOptions options_;
  std::vector<std::unique_ptr<Executor>> shards_;  // one per shard

  /// MVCC update ordering across replicas: an update locks the stripe of
  /// every target OID (ascending stripe index, so no deadlock) before the
  /// holder fan-out and releases after the last holder commits. Two
  /// updates touching a common OID therefore install their versions in
  /// the same order on every holder shard, keeping replicas convergent
  /// without a cross-shard commit protocol.
  std::array<std::mutex, 64> oid_stripes_;

  // Per-shard work attribution ("shard.<k>.*" in the metrics registry).
  std::vector<Counter*> retrieve_subqueries_;
  std::vector<Counter*> update_subqueries_;
};

}  // namespace shard
}  // namespace objrep

#endif  // OBJREP_SHARD_ENGINE_H_
