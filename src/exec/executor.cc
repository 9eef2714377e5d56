#include "exec/executor.h"

#include <utility>

#include "exec/query_locks.h"
#include "mvcc/apply.h"
#include "mvcc/engine.h"
#include "obs/heat_map.h"
#include "obs/io_context.h"
#include "obs/profile.h"
#include "storage/buffer_pool.h"

namespace objrep {

QueryScope::QueryScope(const Query& q)
    : q_(q),
      span_(q.kind == Query::Kind::kRetrieve ? "retrieve" : "update",
            "query"),
      io_before_(CurrentThreadIo().total()) {
  if (q.kind == Query::Kind::kRetrieve) {
    span_.SetArg("num_top", q.num_top);
  } else {
    span_.SetArg("targets", q.update_targets.size());
  }
}

void QueryScope::Done(const RetrieveResult* result) {
  span_.SetArg("io", CurrentThreadIo().total() - io_before_);
  span_.End();
  if (!HeatMap::enabled()) return;
  HeatMap& heat = HeatMap::Global();
  if (result == nullptr) {
    for (const Oid& oid : q_.update_targets) heat.TouchRel(oid.rel);
    return;
  }
  // The parent range this query walked, and the child relations its
  // subobjects came from (one relaxed add per relation).
  heat.TouchParents(q_.lo_parent, q_.num_top);
  uint64_t rel_counts[HeatMap::kRelSlots] = {};
  for (const Oid& oid : result->oids) {
    ++rel_counts[oid.rel % HeatMap::kRelSlots];
  }
  for (size_t r = 0; r < HeatMap::kRelSlots; ++r) {
    if (rel_counts[r] != 0) {
      heat.TouchRel(static_cast<uint32_t>(r), rel_counts[r]);
    }
  }
}

Executor::Executor(ComplexDatabase* db, StrategyOptions options)
    : db_(db), options_(options) {}

Executor::Lease::~Lease() {
  if (exec_ == nullptr || strategy_ == nullptr) return;
  std::lock_guard<std::mutex> l(exec_->sessions_mu_);
  exec_->idle_[kind_].push_back(std::move(strategy_));
}

Status Executor::Checkout(StrategyKind kind, Lease* out) {
  Lease lease;
  lease.kind_ = kind;
  {
    std::lock_guard<std::mutex> l(sessions_mu_);
    auto it = idle_.find(kind);
    if (it != idle_.end() && !it->second.empty()) {
      lease.strategy_ = std::move(it->second.back());
      it->second.pop_back();
    }
  }
  if (lease.strategy_ == nullptr) {
    // Built outside the pool mutex: MakeStrategy may read the database
    // (shape probes), and holding sessions_mu_ across that would
    // serialize unrelated checkouts.
    OBJREP_RETURN_NOT_OK(MakeStrategy(kind, db_, options_, &lease.strategy_));
  }
  lease.exec_ = this;
  *out = std::move(lease);
  return Status::OK();
}

Status Executor::Retrieve(Strategy* session, const Query& q,
                          RetrieveResult* out) {
  QueryScope scope(q);
  OBJREP_RETURN_NOT_OK(RunRetrieve(session, q, out));
  scope.Done(out);
  return Status::OK();
}

Status Executor::Update(Strategy* session, const Query& q) {
  QueryScope scope(q);
  OBJREP_RETURN_NOT_OK(RunUpdate(session, q));
  scope.Done(nullptr);
  return Status::OK();
}

Status Executor::Retrieve(StrategyKind kind, const Query& q,
                          RetrieveResult* out) {
  Lease lease;
  OBJREP_RETURN_NOT_OK(Checkout(kind, &lease));
  return Retrieve(lease.get(), q, out);
}

Status Executor::Update(StrategyKind kind, const Query& q) {
  Lease lease;
  OBJREP_RETURN_NOT_OK(Checkout(kind, &lease));
  return Update(lease.get(), q);
}

ScopedLockSet Executor::LockFor(const Query& q) {
  ProfileCollector* c = ProfileCollector::Current();
  const uint64_t t0 = c != nullptr ? Trace::NowMicros() : 0;
  ScopedLockSet held(&locks_, LockRequestsFor(*db_, q));
  if (c != nullptr) c->AddLockWait(Trace::NowMicros() - t0);
  return held;
}

Status Executor::RunRetrieve(Strategy* session, const Query& q,
                             RetrieveResult* out) {
  if (db_->mvcc != nullptr) {
    // Snapshot read: base pages are frozen while MVCC is active, so there
    // is nothing to lock against.
    return mvcc::SnapshotRetrieve(session, db_, q, out);
  }
  ScopedLockSet held = LockFor(q);
  return session->ExecuteRetrieve(q, out);
}

Status Executor::RunUpdate(Strategy* session, const Query& q) {
  if (db_->mvcc != nullptr) {
    // Version-store commit: no table X lock; conflicts only on
    // overlapping targets (first-committer-wins, retried internally).
    ProfileCollector* c = ProfileCollector::Current();
    const uint64_t t0 = c != nullptr ? Trace::NowMicros() : 0;
    Status s = mvcc::MvccUpdate(db_, q);
    if (c != nullptr) c->AddCommitWait(Trace::NowMicros() - t0);
    return s;
  }
  ScopedLockSet held = LockFor(q);
  if (db_->pool->wal() == nullptr) return session->ExecuteUpdate(q);
  // One WAL transaction per update: all its in-place writes (plus cache
  // invalidations and deferred frees) commit together or not at all. The
  // X table locks are already held, so wal_mu_ ranks below them
  // (DESIGN.md §10 latch order) and cannot deadlock against another
  // query.
  OBJREP_RETURN_NOT_OK(db_->pool->BeginTxn());
  Status s = session->ExecuteUpdate(q);
  if (!s.ok()) {
    db_->pool->AbortTxn();
    return s;
  }
  return db_->pool->CommitTxn();
}

Status RunQuery(Executor* exec, Strategy* session, const Query& q,
                RunResult* tally) {
  if (q.kind == Query::Kind::kRetrieve) {
    RetrieveResult result;
    OBJREP_RETURN_NOT_OK(exec->Retrieve(session, q, &result));
    tally->retrieve_cost += result.cost;
    tally->result_count += result.values.size();
    for (int32_t v : result.values) tally->result_sum += v;
    ++tally->num_retrieves;
  } else {
    OBJREP_RETURN_NOT_OK(exec->Update(session, q));
    ++tally->num_updates;
  }
  ++tally->num_queries;
  return Status::OK();
}

RunWindow::RunWindow(Executor* exec) : exec_(exec) {
  // Start the measurement window clean: buffer-pool hit/miss counters and
  // cache statistics describe this run only, not the database build or
  // any earlier run against the same pool.
  ComplexDatabase* db = exec_->db();
  db->pool->ResetStats();
  if (db->cache != nullptr) db->cache->ResetStats();
  io_start_ = db->disk->counters();
  tags_start_ = db->disk->breakdown();
}

Status RunWindow::Close(RunResult* out) {
  ComplexDatabase* db = exec_->db();
  // Deferred writes are part of the run's bill: the MVCC fold (committed
  // versions onto base pages; after it a plain scan observes every
  // committed update) and the dirty pages left by updates, cache inserts
  // and temps.
  const IoCounters before = db->disk->counters();
  {
    TraceSpan span("flush", "query");
    OBJREP_RETURN_NOT_OK(mvcc::FoldMvcc(db));
    OBJREP_RETURN_NOT_OK(db->pool->FlushAll());
  }
  out->flush_io = (db->disk->counters() - before).total();
  out->io = db->disk->counters() - io_start_;
  out->io_by_tag = db->disk->breakdown() - tags_start_;
  out->total_io = out->io.total();
  if (db->cache != nullptr) out->cache_stats = db->cache->stats();
  return Status::OK();
}

}  // namespace objrep
