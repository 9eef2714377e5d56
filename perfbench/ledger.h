// Counter snapshots and small reporting helpers shared by the workloads.
//
// The benchmark measures from outside the engine: every per-layer number
// is a delta of counters the engine already exports (DiskManager counters
// and per-tag breakdown, BufferPool and CacheManager stats, the process
// MetricsRegistry), taken over a window the benchmark brackets itself.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "objstore/database.h"
#include "obs/io_context.h"
#include "storage/io_stats.h"
#include "workloads.h"

namespace objrep {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The paper's database shape (SizeUnit 5, UseFactor 5, Overlap 1) at
/// `parents` objects, on a zero-latency simulated device, with temporary
/// pages reclaimed.
DatabaseSpec PaperShape(uint32_t parents, uint32_t pool_pages, uint64_t seed);

/// Median (mean of the two middle values for an even count); 0 if empty.
double Median(std::vector<double> v);

/// Peak resident set size of this process so far, MiB.
double PeakRssMb();

/// User + system CPU time of this process so far, seconds. CPU time a
/// shared host steals from the machine is not in it.
double ProcessCpuSeconds();

/// Marks the run incorrect; the first message wins.
void Fail(Report* report, const std::string& what);

/// Flat JSON object writer for the detail lines.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v);
  JsonObject& Str(const std::string& key, const std::string& v);
  JsonObject& Bool(const std::string& key, bool v);
  /// `json` must already be valid JSON.
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const;

 private:
  void Key(const std::string& key);
  std::ostringstream body_;
  bool first_ = true;
};

/// Counters that only grow, snapshotted at one instant. Pool and cache
/// statistics are not here: the windows reset and read those directly.
struct Ledger {
  IoCounters io;
  IoTagBreakdown tags;
  uint64_t lock_acquisitions = 0;
  uint64_t lock_waits = 0;
  uint64_t lock_wait_us = 0;
  uint64_t sort_runs = 0;
  uint64_t sort_merge_passes = 0;
  uint64_t sort_spill_pages = 0;
  uint64_t wal_commits = 0;
  uint64_t wal_bytes = 0;
  uint64_t net_requests = 0;
  uint64_t net_bytes = 0;
  uint64_t net_busy = 0;

  static Ledger Take(const ComplexDatabase& db);
};

/// Checks that per-tag I/O over [before, after] sums exactly to the disk
/// counters; fails the report naming `window` otherwise.
void CheckTagSums(const IoCounters& io, const IoTagBreakdown& tags,
                  const std::string& window, Report* report);

/// Tags reported one by one; every other tag is folded into io.other.
inline constexpr IoTag kReportedTags[] = {
    IoTag::kParentScan, IoTag::kIndexProbe, IoTag::kHeapFetch,
    IoTag::kTempSort,   IoTag::kCacheFetch, IoTag::kCacheMaint,
    IoTag::kUpdate,     IoTag::kWal};

/// Records the exact-count pass: io_per_query, io.<tag>_per_query (which
/// sum to it) and the raw integers as a detail line.
void RecordExactPass(const IoCounters& io, const IoTagBreakdown& tags,
                     uint64_t queries, Report* report);

/// Storage, exec and relational per-layer values over one window.
struct WindowCounts {
  double queries = 0;
  double updates = 0;
  double scans = 0;
};
void RecordWindowLayers(const ComplexDatabase& db, const Ledger& before,
                        const Ledger& after, const WindowCounts& n,
                        Report* report);

}  // namespace perfbench
}  // namespace objrep

#endif  // PERFBENCH_LEDGER_H_
