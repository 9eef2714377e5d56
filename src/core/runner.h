// Experiment runner: executes a query sequence under one strategy and
// reports average I/O — the paper's performance yardstick ("run a sequence
// of queries on the database and note the average I/O traffic", §4 [3]).
#ifndef OBJREP_CORE_RUNNER_H_
#define OBJREP_CORE_RUNNER_H_

#include <vector>

#include "core/strategy.h"
#include "obs/io_context.h"
#include "objstore/cache_manager.h"
#include "objstore/workload.h"
#include "storage/io_stats.h"
#include "util/status.h"

namespace objrep {

struct RunResult {
  uint32_t num_queries = 0;
  uint32_t num_retrieves = 0;
  uint32_t num_updates = 0;

  uint64_t total_io = 0;     ///< queries + end-of-run fold and flush
  uint64_t retrieve_io = 0;
  uint64_t update_io = 0;
  uint64_t flush_io = 0;     ///< end of run: MVCC fold + dirty-page flush

  /// Raw counter delta over the whole run (queries + fold + flush).
  /// io.total() == total_io; the seq/rand split feeds the driver's seq%
  /// column.
  IoCounters io;

  /// Per-component attribution of the same window (DESIGN.md §11).
  /// io_by_tag.total() == io.total() always: DiskManager bumps the tag
  /// slot and the raw counter at the same sites by the same amounts.
  IoTagBreakdown io_by_tag;

  CostBreakdown retrieve_cost;  ///< summed over retrieves

  /// Result integrity: count and sum of projected values (strategy
  /// equivalence is asserted on these by the tests).
  uint64_t result_count = 0;
  int64_t result_sum = 0;

  CacheManager::CacheStats cache_stats;  ///< zero when no cache

  double AvgIoPerQuery() const {
    return num_queries == 0 ? 0.0
                            : static_cast<double>(total_io) / num_queries;
  }
  double AvgRetrieveIo() const {
    return num_retrieves == 0
               ? 0.0
               : static_cast<double>(retrieve_io) / num_retrieves;
  }
  double AvgUpdateIo() const {
    return num_updates == 0 ? 0.0
                            : static_cast<double>(update_io) / num_updates;
  }
  double AvgParCost() const {
    return num_retrieves == 0
               ? 0.0
               : static_cast<double>(retrieve_cost.par_io) / num_retrieves;
  }
  double AvgChildCost() const {
    return num_retrieves == 0 ? 0.0
                              : static_cast<double>(
                                    retrieve_cost.child_cost()) /
                                    num_retrieves;
  }
};

/// Runs `queries` under `strategy` against the strategy's database, one
/// at a time through the query executor (exec/executor.h), so isolation,
/// the WAL bracket and MVCC follow the database as in every other front
/// end. Resets the pool and cache statistics at the start; at the end
/// folds MVCC versions and flushes dirty pages (charged to flush_io and
/// total_io) so deferred writes are not lost.
Status RunWorkload(Strategy* strategy, ComplexDatabase* db,
                   const std::vector<Query>& queries, RunResult* out);

}  // namespace objrep

#endif  // OBJREP_CORE_RUNNER_H_
