// The query executor (exec/executor.h): session pooling, isolation chosen
// by the database (2PL table locks vs MVCC snapshots), the per-update WAL
// bracket, and query-level hooks that charge a sharded query exactly like
// an unsharded one. Run under TSan in CI.
#include "exec/executor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "mvcc/apply.h"
#include "obs/heat_map.h"
#include "objstore/database.h"
#include "shard/engine.h"
#include "shard/sharded_db.h"
#include "storage/wal.h"

namespace objrep {
namespace {

DatabaseSpec SmallSpec() {
  DatabaseSpec spec;
  spec.num_parents = 64;
  spec.size_unit = 4;
  spec.use_factor = 2;
  spec.overlap_factor = 1;
  spec.num_child_rels = 2;
  spec.buffer_pages = 32;
  spec.seed = 5;
  return spec;
}

Query RetrieveQuery(uint32_t lo, uint32_t n) {
  Query q;
  q.kind = Query::Kind::kRetrieve;
  q.lo_parent = lo;
  q.num_top = n;
  return q;
}

Query UpdateQuery(const ComplexDatabase& db, int32_t value) {
  Query q;
  q.kind = Query::Kind::kUpdate;
  q.update_targets = {Oid{db.child_rels[0]->rel_id(), 0},
                      Oid{db.child_rels[1]->rel_id(), 1}};
  q.new_ret1 = value;
  return q;
}

TEST(ExecutorTest, PooledSessionsAreReusedButNeverShared) {
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(SmallSpec(), &db).ok());
  Executor exec(db.get());
  Strategy* first = nullptr;
  {
    Executor::Lease a, b;
    ASSERT_TRUE(exec.Checkout(StrategyKind::kDfs, &a).ok());
    ASSERT_TRUE(exec.Checkout(StrategyKind::kDfs, &b).ok());
    ASSERT_NE(a.get(), nullptr);
    EXPECT_NE(a.get(), b.get());  // concurrent leases: distinct sessions
    first = a.get();
  }
  // Both went back to the pool; the next checkout reuses one of them.
  Executor::Lease c;
  ASSERT_TRUE(exec.Checkout(StrategyKind::kDfs, &c).ok());
  Executor::Lease d;
  ASSERT_TRUE(exec.Checkout(StrategyKind::kDfs, &d).ok());
  EXPECT_TRUE(c.get() == first || d.get() == first);
}

TEST(ExecutorTest, UnavailableStrategyIsInvalidArgument) {
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(SmallSpec(), &db).ok());  // no cache built
  Executor exec(db.get());
  RetrieveResult r;
  Status s = exec.Retrieve(StrategyKind::kDfsCache, RetrieveQuery(0, 4), &r);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(ExecutorTest, MvccQueriesTakeNoTableLocks) {
  DatabaseSpec spec = SmallSpec();
  spec.enable_wal = true;
  spec.enable_mvcc = true;
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  Executor exec(db.get());

  // X on every child relation: a 2PL query would queue behind it.
  std::vector<std::pair<LockId, LockMode>> all;
  for (const Table* t : db->child_rels) {
    all.emplace_back(t->rel_id(), LockMode::kExclusive);
  }
  ScopedLockSet held(exec.lock_manager(), all);
  std::future<Status> done = std::async(std::launch::async, [&] {
    OBJREP_RETURN_NOT_OK(exec.Update(StrategyKind::kDfs, UpdateQuery(*db, 7)));
    RetrieveResult r;
    return exec.Retrieve(StrategyKind::kDfs, RetrieveQuery(0, 8), &r);
  });
  const bool finished =
      done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  held.ReleaseAll();  // unblock a (buggy) locking executor before failing
  EXPECT_TRUE(finished) << "MVCC query waited on a table lock";
  Status s = done.get();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(mvcc::FoldMvcc(db.get()).ok());
}

TEST(ExecutorTest, TwoPhaseLockingUpdateIsOneWalTransaction) {
  DatabaseSpec spec = SmallSpec();
  spec.enable_wal = true;
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  Executor exec(db.get());
  const uint64_t before = db->wal->committed_txns();
  ASSERT_TRUE(exec.Update(StrategyKind::kDfs, UpdateQuery(*db, 9)).ok());
  EXPECT_EQ(db->wal->committed_txns(), before + 1);
  // Locks are released when the query ends.
  for (const Table* t : db->child_rels) {
    LockManager::HolderCounts h = exec.lock_manager()->Holders(t->rel_id());
    EXPECT_EQ(h.readers, 0u);
    EXPECT_FALSE(h.writer);
  }
}

TEST(ExecutorTest, ShardedQueryChargesHeatLikeAnUnshardedOne) {
  // The sharded engine opens one QueryScope per routed query, so a
  // fan-out retrieve charges its parent range once, not once per shard.
  HeatMap& heat = HeatMap::Global();
  heat.SetEnabled(true);
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(SmallSpec(), &db).ok());
  Executor exec(db.get());
  std::unique_ptr<shard::ShardedDatabase> sdb;
  ASSERT_TRUE(shard::BuildShardedDatabase(SmallSpec(), 2, &sdb).ok());
  shard::ShardedEngine engine(sdb.get(), StrategyOptions{});

  for (StrategyKind kind : {StrategyKind::kDfs, StrategyKind::kBfs,
                            StrategyKind::kBfsNoDup}) {
    SCOPED_TRACE(StrategyKindName(kind));
    const Query q = RetrieveQuery(3, 20);
    heat.Reset();
    RetrieveResult single;
    ASSERT_TRUE(exec.Retrieve(kind, q, &single).ok());
    EXPECT_EQ(heat.touches(), q.num_top);  // parent weight, once
    const std::vector<HeatMap::RelHeat> single_rels = heat.RelHeats();
    heat.Reset();
    RetrieveResult sharded;
    ASSERT_TRUE(engine.ExecuteRetrieve(kind, q, &sharded).ok());
    EXPECT_EQ(sharded.values.size(), single.values.size());
    EXPECT_EQ(heat.touches(), q.num_top);
    const std::vector<HeatMap::RelHeat> sharded_rels = heat.RelHeats();
    ASSERT_EQ(sharded_rels.size(), single_rels.size());
    for (size_t i = 0; i < single_rels.size(); ++i) {
      EXPECT_EQ(sharded_rels[i].rel, single_rels[i].rel);
      EXPECT_EQ(sharded_rels[i].heat, single_rels[i].heat);
    }
  }
  heat.SetEnabled(false);
  heat.Reset();
}

}  // namespace
}  // namespace objrep
