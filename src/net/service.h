// Request execution behind the wire boundary (DESIGN.md §13).
//
// ObjService turns a decoded request into a Query: it validates the
// request against the store's shape, installs the per-request profile
// collector, and hands the query to the query executor (exec/executor.h)
// of the single database, or to the scatter-gather ShardedEngine (one
// executor per shard). Isolation, WAL transactions, trace spans, heat
// touches and the pool of strategy sessions all live in the executor, so
// a served query is executed and billed exactly like one from the
// in-process runners.
//
// Execute() is thread-safe and is called from the server's worker pool;
// it is also usable without any server at all (tests drive it directly).
#ifndef OBJREP_NET_SERVICE_H_
#define OBJREP_NET_SERVICE_H_

#include <memory>

#include "core/strategy.h"
#include "exec/executor.h"
#include "net/protocol.h"
#include "objstore/database.h"
#include "shard/engine.h"

namespace objrep {
namespace net {

class ObjService {
 public:
  /// `db` must outlive the service. `default_strategy` serves requests
  /// whose strategy byte is kDefaultStrategyByte.
  ObjService(ComplexDatabase* db, StrategyKind default_strategy,
             StrategyOptions options);

  /// Sharded backend: requests execute through the scatter-gather engine
  /// instead of a single database. `engine` must outlive the service; its
  /// shard executors build sessions with the engine's own options, so
  /// `options` is not used.
  ObjService(shard::ShardedEngine* engine, StrategyKind default_strategy,
             StrategyOptions options);

  ObjService(const ObjService&) = delete;
  ObjService& operator=(const ObjService&) = delete;

  /// Executes one RETRIEVE or UPDATE (the verbs that touch the database;
  /// PING/STATS/SHUTDOWN are answered by the server's event loop).
  /// Returns a fully-populated response — execution failures become
  /// kBadRequest/kError responses, never a crash.
  Response Execute(const Request& req);

  StrategyKind default_strategy() const { return default_strategy_; }

  /// The single database's executor; null for the sharded backend.
  Executor* executor() { return exec_.get(); }

 private:
  Status DoRetrieve(const Request& req, StrategyKind kind, Response* resp);
  Status DoUpdate(const Request& req, StrategyKind kind, Response* resp);
  const DatabaseSpec& spec() const {
    return exec_ != nullptr ? exec_->db()->spec : engine_->spec();
  }

  const std::unique_ptr<Executor> exec_;  // null for the sharded backend
  shard::ShardedEngine* const engine_;    // null for the single-db backend
  const StrategyKind default_strategy_;
};

}  // namespace net
}  // namespace objrep

#endif  // OBJREP_NET_SERVICE_H_
