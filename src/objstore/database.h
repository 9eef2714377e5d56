// The simulated complex-object database (paper §4).
//
// One ComplexDatabase owns a simulated disk, a buffer pool, and the
// relations of one experimental configuration:
//   * ParentRel           — the complex objects (B-tree on OID key)
//   * ChildRel[0..n)      — the subobjects (B-tree on OID key each)
//   * ClusterRel + ISAM   — when clustering is enabled (paper §3.3)
//   * Cache (hash file)   — when caching is enabled (paper §3.2)
//
// The builder also retains generation ground truth (units, assignments,
// row values) so tests can verify strategy results independently.
#ifndef OBJREP_OBJSTORE_DATABASE_H_
#define OBJREP_OBJSTORE_DATABASE_H_

#include <memory>
#include <vector>

#include "access/isam.h"
#include "mvcc/version_store.h"
#include "objstore/cache_manager.h"
#include "objstore/oid.h"
#include "objstore/rows.h"
#include "objstore/spec.h"
#include "relational/table.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "util/status.h"

namespace objrep {

struct ComplexDatabase {
  DatabaseSpec spec;

  std::unique_ptr<DiskManager> disk;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<Wal> wal;  // null unless spec.enable_wal
  /// Version store for snapshot reads (DESIGN.md §15); null unless
  /// spec.enable_mvcc. When set, the query executor (exec/executor.h)
  /// bypasses table locking: retrieves run under mvcc::SnapshotRetrieve
  /// and updates under mvcc::MvccUpdate.
  std::unique_ptr<MvccManager> mvcc;
  Catalog catalog;

  Table* parent_rel = nullptr;
  std::vector<Table*> child_rels;
  Table* cluster_rel = nullptr;            // null unless spec.build_cluster
  IsamIndex cluster_oid_index;             // packed child OID -> ClusterRel key
  std::unique_ptr<CacheManager> cache;     // null unless spec.build_cache
  /// Join index ([VALD86]): key (parent key << 12 | position) -> packed
  /// child OID. Built when spec.build_join_index.
  BPlusTree join_index;
  bool has_join_index = false;

  uint32_t parent_dummy_width = 0;
  uint32_t child_dummy_width = 0;

  // --- Generation ground truth (verification only; strategies must read
  //     everything they use from the relations). ---
  std::vector<std::vector<Oid>> units;       // unit id -> member OIDs
  std::vector<uint32_t> unit_of_parent;      // parent key -> unit id
  std::vector<uint32_t> unit_owner;          // unit id -> owning parent key
                                             // (clustering only)
  std::vector<std::vector<ChildRow>> child_rows;  // per child rel, by key

  /// Child relation whose catalog id is `rel_id`; null if unknown.
  const Table* ChildRelById(RelationId rel_id) const {
    for (const Table* t : child_rels) {
      if (t->rel_id() == rel_id) return t;
    }
    return nullptr;
  }
  Table* ChildRelById(RelationId rel_id) {
    for (Table* t : child_rels) {
      if (t->rel_id() == rel_id) return t;
    }
    return nullptr;
  }

  /// Total pages occupied on the simulated disk (allocated minus freed).
  uint64_t TotalPages() const {
    return disk->num_pages() - disk->num_free_pages();
  }
};

/// Generates and bulk-loads a database per `spec`. Deterministic in
/// `spec.seed`. On return the buffer pool is flushed and the I/O counters
/// reset, so measurements start clean.
Status BuildDatabase(const DatabaseSpec& spec,
                     std::unique_ptr<ComplexDatabase>* out);

/// What Recover did, for tests and the driver's crash demo.
struct RecoveryReport {
  WalRecoveryStats wal;
  uint64_t frames_dropped = 0;  ///< pool frames discarded (soft state)
  bool cache_reset = false;     ///< Cache relation rebuilt empty
  uint64_t mvcc_txns_redone = 0;///< kMvccUpdate commits replayed to base
};

/// Crash recovery (DESIGN.md §10). Clears the injector's crashed state,
/// discards every buffer-pool frame, redoes the WAL's committed-but-
/// unapplied transactions against the disk, and rebuilds the cache (soft
/// state) empty. Requires spec.enable_wal. After it returns the base
/// relations hold exactly the committed prefix of the update history.
Status RecoverDatabase(ComplexDatabase* db, RecoveryReport* report = nullptr);

}  // namespace objrep

#endif  // OBJREP_OBJSTORE_DATABASE_H_
