// Per-layer probes: each layer's public functions called directly on the
// workload's own warmed database and keys, after its timed window.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <vector>

#include "ledger.h"
#include "objstore/database.h"
#include "objstore/oid.h"
#include "objstore/workload.h"
#include "util/status.h"
#include "workloads.h"

namespace objrep {
namespace perfbench {

/// Children of every parent the retrieves in `queries` select, in query
/// order, at most `limit` of them.
std::vector<Oid> ChildrenOf(const ComplexDatabase& db,
                            const std::vector<Query>& queries, size_t limit);

/// storage.pool.hit_ns.t1/.tN, storage.pool.miss_ns (only when some
/// allocated page is not resident), storage.disk.read_ns,
/// access.btree.get_ns and record.decode_ns. Each probe runs inside its
/// own "probe_*" span.
Status ProbeStorageLayers(ComplexDatabase* db, const std::vector<Oid>& keys,
                          uint32_t clients, uint64_t seed, Report* report);

/// Calls op(i) for i = 0, 1, ... until at least `min_ops` calls and
/// `min_seconds` have passed; returns nanoseconds per call.
template <typename Op>
double NsPerCall(Op op, uint64_t min_ops, double min_seconds) {
  uint64_t i = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0;
  do {
    for (int b = 0; b < 256; ++b) op(i++);
    elapsed = SecondsSince(t0);
  } while (i < min_ops || elapsed < min_seconds);
  return elapsed * 1e9 / static_cast<double>(i);
}

/// Median wall time of fn(i) for i in [0, n), microseconds. Stops at the
/// first non-OK status and returns it.
template <typename Fn>
Status MedianMicros(size_t n, Fn fn, double* median_us) {
  std::vector<double> us;
  us.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    OBJREP_RETURN_NOT_OK(fn(i));
    us.push_back(SecondsSince(t0) * 1e6);
  }
  *median_us = Median(std::move(us));
  return Status::OK();
}

}  // namespace perfbench
}  // namespace objrep

#endif  // PERFBENCH_PROBES_H_
