// Table-lock footprint of one query under 2PL, taken by the query executor
// (exec/executor.h) — the one place every front end runs queries: retrieves
// hold S on every relation their strategy may read subobjects from (all
// child relations, plus ClusterRel when built); updates hold X on the
// relations containing their targets (plus ClusterRel, where clustering
// strategies place the subobjects). ParentRel and the join index are
// never written, so they need no lock. ScopedLockSet sorts and dedups,
// giving the ordered-acquisition deadlock freedom of DESIGN.md §8.
#ifndef OBJREP_EXEC_QUERY_LOCKS_H_
#define OBJREP_EXEC_QUERY_LOCKS_H_

#include <utility>
#include <vector>

#include "exec/lock_manager.h"
#include "objstore/database.h"
#include "objstore/workload.h"

namespace objrep {

inline std::vector<std::pair<LockId, LockMode>> LockRequestsFor(
    const ComplexDatabase& db, const Query& q) {
  std::vector<std::pair<LockId, LockMode>> reqs;
  if (q.kind == Query::Kind::kRetrieve) {
    reqs.reserve(db.child_rels.size() + 1);
    for (const Table* t : db.child_rels) {
      reqs.emplace_back(t->rel_id(), LockMode::kShared);
    }
    if (db.cluster_rel != nullptr) {
      reqs.emplace_back(db.cluster_rel->rel_id(), LockMode::kShared);
    }
  } else {
    reqs.reserve(q.update_targets.size() + 1);
    for (const Oid& oid : q.update_targets) {
      reqs.emplace_back(oid.rel, LockMode::kExclusive);
    }
    if (db.cluster_rel != nullptr) {
      reqs.emplace_back(db.cluster_rel->rel_id(), LockMode::kExclusive);
    }
  }
  return reqs;
}

}  // namespace objrep

#endif  // OBJREP_EXEC_QUERY_LOCKS_H_
