#include "probes.h"

#include <atomic>
#include <string>
#include <thread>

#include "ledger.h"
#include "obs/trace.h"
#include "objstore/rows.h"
#include "storage/buffer_pool.h"
#include "util/random.h"

namespace objrep {
namespace perfbench {

std::vector<Oid> ChildrenOf(const ComplexDatabase& db,
                            const std::vector<Query>& queries, size_t limit) {
  std::vector<Oid> out;
  for (const Query& q : queries) {
    if (q.kind != Query::Kind::kRetrieve) continue;
    for (uint32_t p = q.lo_parent; p < q.lo_parent + q.num_top; ++p) {
      for (const Oid& oid : db.units[db.unit_of_parent[p]]) {
        if (out.size() == limit) return out;
        out.push_back(oid);
      }
    }
  }
  return out;
}

Status ProbeStorageLayers(ComplexDatabase* db, const std::vector<Oid>& keys,
                          uint32_t clients, uint64_t seed, Report* report) {
  if (keys.empty()) return Status::InvalidArgument("probe: no keys");
  BufferPool* pool = db->pool.get();
  std::vector<PageId> resident, absent, allocated;
  for (PageId pid = 0; pid < db->disk->num_pages(); ++pid) {
    if (!db->disk->PageIsAllocated(pid)) continue;
    allocated.push_back(pid);
    PageGuard g;
    (pool->TryFetchResident(pid, &g) ? resident : absent).push_back(pid);
  }
  if (resident.empty()) return Status::InvalidArgument("probe: empty pool");
  Status err;

  {
    TraceSpan span("probe_pool_hit", "bench");
    report->values["storage.pool.hit_ns.t1"] = NsPerCall(
        [&](uint64_t i) {
          PageGuard g;
          Status s = pool->FetchPage(resident[i % resident.size()], &g);
          if (!s.ok()) err = s;
        },
        200000, 0.2);
  }
  OBJREP_RETURN_NOT_OK(err);

  {
    // Every client fetches the same resident pages at once, each from its
    // own offset; the figure is the mean per-call time across clients.
    TraceSpan span("probe_pool_hit_clients", "bench");
    constexpr uint64_t kOps = 200000;
    std::vector<double> ns(clients);
    std::vector<Status> errs(clients);
    std::atomic<uint32_t> ready{0};
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        const size_t offset = t * resident.size() / clients;
        ready.fetch_add(1);
        while (ready.load() < clients) {
        }
        const Clock::time_point t0 = Clock::now();
        for (uint64_t i = 0; i < kOps; ++i) {
          PageGuard g;
          Status s =
              pool->FetchPage(resident[(offset + i) % resident.size()], &g);
          if (!s.ok()) errs[t] = s;
        }
        ns[t] = SecondsSince(t0) * 1e9 / static_cast<double>(kOps);
      });
    }
    for (std::thread& th : threads) th.join();
    for (const Status& s : errs) OBJREP_RETURN_NOT_OK(s);
    double sum = 0;
    for (double x : ns) sum += x;
    report->values["storage.pool.hit_ns.tN"] = sum / clients;
  }

  if (!absent.empty()) {
    // Each page is non-resident when fetched: it was absent at the start
    // and nothing but this loop touches the pool.
    TraceSpan span("probe_pool_miss", "bench");
    Rng rng(seed);
    for (size_t i = absent.size(); i > 1; --i) {
      std::swap(absent[i - 1], absent[rng.Uniform(i)]);
    }
    const size_t n = std::min<size_t>(absent.size(), 2000);
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      PageGuard g;
      OBJREP_RETURN_NOT_OK(pool->FetchPage(absent[i], &g));
    }
    report->values["storage.pool.miss_ns"] =
        SecondsSince(t0) * 1e9 / static_cast<double>(n);
  }

  {
    TraceSpan span("probe_disk_read", "bench");
    Page page;
    report->values["storage.disk.read_ns"] = NsPerCall(
        [&](uint64_t i) {
          Status s = db->disk->ReadPage(allocated[i % allocated.size()], &page);
          if (!s.ok()) err = s;
        },
        100000, 0.1);
  }
  OBJREP_RETURN_NOT_OK(err);

  std::vector<std::string> raws;
  {
    TraceSpan span("probe_btree_get", "bench");
    std::string value;
    report->values["access.btree.get_ns"] = NsPerCall(
        [&](uint64_t i) {
          const Oid& oid = keys[i % keys.size()];
          Status s = db->ChildRelById(oid.rel)->tree().Get(oid.key, &value);
          if (!s.ok()) err = s;
          if (raws.size() < 4096) raws.push_back(value);
        },
        keys.size(), 0.2);
  }
  OBJREP_RETURN_NOT_OK(err);

  {
    TraceSpan span("probe_record_decode", "bench");
    const Schema& schema = db->child_rels[0]->schema();
    report->values["record.decode_ns"] = NsPerCall(
        [&](uint64_t i) {
          int32_t v = 0;
          Status s = DecodeChildRet(schema, raws[i % raws.size()],
                                    static_cast<int>(i % 3), &v);
          if (!s.ok()) err = s;
        },
        1000000, 0.1);
  }
  return err;
}

}  // namespace perfbench
}  // namespace objrep
