#include "shard/engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "mvcc/apply.h"
#include "obs/io_context.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace objrep {
namespace shard {

ShardedEngine::ShardedEngine(ShardedDatabase* db, StrategyOptions options)
    : db_(db), options_(options) {
  const uint32_t n = db_->num_shards();
  shards_.reserve(n);
  retrieve_subqueries_.reserve(n);
  update_subqueries_.reserve(n);
  MetricsRegistry& reg = MetricsRegistry::Global();
  for (uint32_t k = 0; k < n; ++k) {
    shards_.push_back(
        std::make_unique<Executor>(db_->shards[k].get(), options_));
    std::string prefix = "shard." + std::to_string(k) + ".";
    retrieve_subqueries_.push_back(
        reg.GetCounter(prefix + "retrieve_subqueries"));
    update_subqueries_.push_back(reg.GetCounter(prefix + "update_subqueries"));
  }
}

bool ShardedEngine::IsPointwise(StrategyKind kind, const Query& q) const {
  switch (kind) {
    case StrategyKind::kDfs:
    case StrategyKind::kDfsCache:
    case StrategyKind::kDfsClust:
    case StrategyKind::kDfsClustCache:
      return true;
    case StrategyKind::kSmart:
      // At or below the threshold SMART is DFSCACHE; above it the
      // breadth-first pass fans out instead.
      return q.num_top <= options_.smart_threshold;
    default:
      return false;
  }
}

bool ShardedEngine::IsSortedMerge(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kBfs:
    case StrategyKind::kBfsNoDup:
    case StrategyKind::kBfsJoinIndex:
    case StrategyKind::kBfsHash:
      return true;
    default:
      return false;
  }
}

Status ShardedEngine::RunShardRetrieve(StrategyKind kind, uint32_t k,
                                       const Query& q, RetrieveResult* out) {
  Executor::Lease session;
  OBJREP_RETURN_NOT_OK(shards_[k]->Checkout(kind, &session));
  retrieve_subqueries_[k]->Add(1);
  // Sub-queries run sequentially on the calling thread, so the
  // thread-local per-tag I/O delta across this bracket is exactly this
  // shard's slice of the request — the profile's per-shard sums add up
  // to the flat counters by construction.
  ProfileCollector* collector = ProfileCollector::Current();
  uint64_t t0 = 0;
  IoTagBreakdown io_before;
  if (collector != nullptr) {
    t0 = Trace::NowMicros();
    io_before = CurrentThreadIoTags();
  }
  TraceSpan span("shard_retrieve", "shard");
  span.SetArg("shard", k);
  OBJREP_RETURN_NOT_OK(shards_[k]->RunRetrieve(session.get(), q, out));
  if (collector != nullptr) {
    collector->AddShard(k, Trace::NowMicros() - t0,
                        CurrentThreadIoTags() - io_before);
  }
  if (out->values.size() != out->oids.size()) {
    return Status::Corruption("shard result values/oids out of step");
  }
  return Status::OK();
}

Status ShardedEngine::RetrievePointwise(StrategyKind kind, const Query& q,
                                        RetrieveResult* out) {
  const uint64_t end = static_cast<uint64_t>(q.lo_parent) + q.num_top;
  uint64_t p = q.lo_parent;
  while (p < end) {
    const uint32_t k = db_->router.ShardOfParent(static_cast<uint32_t>(p));
    uint64_t run_end = p + 1;
    while (run_end < end &&
           db_->router.ShardOfParent(static_cast<uint32_t>(run_end)) == k) {
      ++run_end;
    }
    Query sub = q;
    sub.lo_parent = static_cast<uint32_t>(p);
    sub.num_top = static_cast<uint32_t>(run_end - p);
    RetrieveResult part;
    OBJREP_RETURN_NOT_OK(RunShardRetrieve(kind, k, sub, &part));
    out->values.insert(out->values.end(), part.values.begin(),
                       part.values.end());
    out->oids.insert(out->oids.end(), part.oids.begin(), part.oids.end());
    out->cost += part.cost;
    p = run_end;
  }
  return Status::OK();
}

Status ShardedEngine::RetrieveMerge(StrategyKind kind, const Query& q,
                                    bool dedup, RetrieveResult* out) {
  const uint32_t n = db_->num_shards();
  std::vector<RetrieveResult> parts(n);
  for (uint32_t k = 0; k < n; ++k) {
    OBJREP_RETURN_NOT_OK(RunShardRetrieve(kind, k, q, &parts[k]));
    out->cost += parts[k].cost;
  }
  // K-way merge by packed OID. Every per-shard BFS-family stream is
  // (relation, key)-sorted, so the merged stream reproduces the single
  // engine's order; equal OIDs carry equal values, so ties need no
  // tie-break. With dedup (BFSNODUP) each shard already deduplicated
  // locally and duplicates across shards emerge adjacent here.
  std::vector<size_t> idx(n, 0);
  for (;;) {
    int best = -1;
    uint64_t best_key = 0;
    for (uint32_t k = 0; k < n; ++k) {
      if (idx[k] >= parts[k].oids.size()) continue;
      uint64_t packed = parts[k].oids[idx[k]].Packed();
      if (best < 0 || packed < best_key) {
        best = static_cast<int>(k);
        best_key = packed;
      }
    }
    if (best < 0) break;
    if (dedup && !out->oids.empty() &&
        out->oids.back().Packed() == best_key) {
      ++idx[best];
      continue;
    }
    out->values.push_back(parts[best].values[idx[best]]);
    out->oids.push_back(parts[best].oids[idx[best]]);
    ++idx[best];
  }
  return Status::OK();
}

Status ShardedEngine::RetrieveConcat(StrategyKind kind, const Query& q,
                                     RetrieveResult* out) {
  for (uint32_t k = 0; k < db_->num_shards(); ++k) {
    RetrieveResult part;
    OBJREP_RETURN_NOT_OK(RunShardRetrieve(kind, k, q, &part));
    out->values.insert(out->values.end(), part.values.begin(),
                       part.values.end());
    out->oids.insert(out->oids.end(), part.oids.begin(), part.oids.end());
    out->cost += part.cost;
  }
  return Status::OK();
}

Status ShardedEngine::ExecuteRetrieve(StrategyKind kind, const Query& q,
                                      RetrieveResult* out) {
  QueryScope scope(q);
  if (IsPointwise(kind, q)) {
    OBJREP_RETURN_NOT_OK(RetrievePointwise(kind, q, out));
  } else if (IsSortedMerge(kind)) {
    OBJREP_RETURN_NOT_OK(RetrieveMerge(
        kind, q, /*dedup=*/kind == StrategyKind::kBfsNoDup, out));
  } else {
    OBJREP_RETURN_NOT_OK(RetrieveConcat(kind, q, out));
  }
  scope.Done(out);
  return Status::OK();
}

Status ShardedEngine::ExecuteUpdate(StrategyKind kind, const Query& q) {
  QueryScope scope(q);
  if (db_->shards[0]->mvcc == nullptr) {
    OBJREP_RETURN_NOT_OK(UpdateHolders(kind, q));
    scope.Done(nullptr);
    return Status::OK();
  }
  // Hold the stripes of every target across the whole fan-out, acquired
  // in ascending stripe index so concurrent updates cannot deadlock. This
  // serializes conflicting updates engine-wide, which makes every holder
  // shard install their versions in the same relative order — the
  // replica-convergence guarantee FCW alone cannot give across
  // independent per-shard clocks.
  std::vector<size_t> stripes;
  stripes.reserve(q.update_targets.size());
  for (const Oid& oid : q.update_targets) {
    stripes.push_back(oid.Packed() % oid_stripes_.size());
  }
  std::sort(stripes.begin(), stripes.end());
  stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
  std::vector<std::unique_lock<std::mutex>> held;
  held.reserve(stripes.size());
  for (size_t s : stripes) {
    held.emplace_back(oid_stripes_[s]);
  }
  OBJREP_RETURN_NOT_OK(UpdateHolders(kind, q));
  scope.Done(nullptr);
  return Status::OK();
}

Status ShardedEngine::UpdateHolders(StrategyKind kind, const Query& q) {
  const uint32_t n = db_->num_shards();
  std::vector<std::vector<Oid>> targets_of(n);
  for (const Oid& oid : q.update_targets) {
    const std::vector<uint32_t>& holders =
        db_->router.HoldersOf(oid.Packed());
    if (holders.empty()) {
      return Status::InvalidArgument("update target unknown to shard router");
    }
    for (uint32_t k : holders) {
      targets_of[k].push_back(oid);
    }
  }
  for (uint32_t k = 0; k < n; ++k) {
    if (targets_of[k].empty()) continue;
    Query sub = q;
    sub.update_targets = std::move(targets_of[k]);
    Executor::Lease session;
    OBJREP_RETURN_NOT_OK(shards_[k]->Checkout(kind, &session));
    update_subqueries_[k]->Add(1);
    OBJREP_RETURN_NOT_OK(shards_[k]->RunUpdate(session.get(), sub));
  }
  return Status::OK();
}

Status ShardedEngine::FoldAll() {
  for (const std::unique_ptr<ComplexDatabase>& sdb : db_->shards) {
    OBJREP_RETURN_NOT_OK(mvcc::FoldMvcc(sdb.get()));
  }
  return Status::OK();
}

}  // namespace shard
}  // namespace objrep
