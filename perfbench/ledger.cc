#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iomanip>

#include "obs/metrics.h"

namespace objrep {
namespace perfbench {

namespace {

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

DatabaseSpec PaperShape(uint32_t parents, uint32_t pool_pages, uint64_t seed) {
  DatabaseSpec spec;
  spec.num_parents = parents;
  spec.size_unit = 5;
  spec.use_factor = 5;
  spec.overlap_factor = 1;
  spec.buffer_pages = pool_pages;
  spec.io_latency_us = 0;
  // Runs are long: BFS temporaries go back to the free list, so neither
  // the volume nor the pool drifts as scans accumulate.
  spec.reclaim_temp_pages = true;
  spec.seed = seed;
  return spec;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return (v[(n - 1) / 2] + v[n / 2]) / 2;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

void Fail(Report* report, const std::string& what) {
  if (report->correct) report->error = what;
  report->correct = false;
}

void JsonObject::Key(const std::string& key) {
  if (!first_) body_ << ",";
  first_ = false;
  body_ << "\"" << key << "\":";
}

std::string JsonObject::str() const {
  std::string out = "{";
  out += body_.str();
  out += "}";
  return out;
}

JsonObject& JsonObject::Num(const std::string& key, double v) {
  Key(key);
  if (std::isfinite(v)) {
    body_ << std::setprecision(17) << v;
  } else {
    body_ << "null";
  }
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ << "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') body_ << '\\';
    body_ << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  body_ << "\"";
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool v) {
  Key(key);
  body_ << (v ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ << json;
  return *this;
}

Ledger Ledger::Take(const ComplexDatabase& db) {
  Ledger l;
  l.io = db.disk->counters();
  l.tags = db.disk->breakdown();
  l.lock_acquisitions = CounterValue("lock.acquisitions");
  l.lock_waits = CounterValue("lock.waits");
  l.lock_wait_us = MetricsRegistry::Global()
                       .GetHistogram("lock.wait_us")
                       ->TakeSnapshot()
                       .sum;
  l.sort_runs = CounterValue("sort.runs_formed");
  l.sort_merge_passes = CounterValue("sort.merge_passes");
  l.sort_spill_pages = CounterValue("sort.spill_pages");
  l.wal_commits = CounterValue("wal.commits");
  l.wal_bytes = CounterValue("wal.bytes");
  l.net_requests = CounterValue("net.requests");
  l.net_bytes = CounterValue("net.bytes_in") + CounterValue("net.bytes_out");
  l.net_busy = CounterValue("net.busy_rejected");
  return l;
}

void CheckTagSums(const IoCounters& io, const IoTagBreakdown& tags,
                  const std::string& window, Report* report) {
  if (tags.total_reads() != io.reads || tags.total_writes() != io.writes) {
    Fail(report, "per-tag I/O does not sum to the disk counters in " +
                     window + " (reads " + std::to_string(tags.total_reads()) +
                     " vs " + std::to_string(io.reads) + ", writes " +
                     std::to_string(tags.total_writes()) + " vs " +
                     std::to_string(io.writes) + ")");
  }
}

void RecordExactPass(const IoCounters& io, const IoTagBreakdown& tags,
                     uint64_t queries, Report* report) {
  CheckTagSums(io, tags, "the exact-count pass", report);
  const double q = static_cast<double>(queries);
  report->values["io_per_query"] = Ratio(static_cast<double>(io.total()), q);
  JsonObject per_tag;
  uint64_t reported = 0;
  for (IoTag tag : kReportedTags) {
    reported += tags.total_for(tag);
    report->values[std::string("io.") + IoTagName(tag) + "_per_query"] =
        Ratio(static_cast<double>(tags.total_for(tag)), q);
  }
  report->values["io.other_per_query"] =
      Ratio(static_cast<double>(tags.total() - reported), q);
  for (size_t i = 0; i < kNumIoTags; ++i) {
    const IoTag tag = static_cast<IoTag>(i);
    if (tags.total_for(tag) != 0) {
      per_tag.Num(IoTagName(tag), static_cast<double>(tags.total_for(tag)));
    }
  }
  report->details.push_back(
      JsonObject()
          .Str("phase", "exact_count_pass")
          .Num("queries", q)
          .Num("page_reads", static_cast<double>(io.reads))
          .Num("page_writes", static_cast<double>(io.writes))
          .Raw("pages_by_tag", per_tag.str())
          .str());
}

void RecordWindowLayers(const ComplexDatabase& db, const Ledger& before,
                        const Ledger& after, const WindowCounts& n,
                        Report* report) {
  std::map<std::string, double>& v = report->values;
  const BufferPool& pool = *db.pool;
  const double hits = static_cast<double>(pool.hits());
  const double misses = static_cast<double>(pool.misses());
  v["storage.pool.misses_per_query"] = Ratio(misses, n.queries);
  v["storage.pool.evictions_per_query"] =
      Ratio(static_cast<double>(pool.evictions()), n.queries);
  v["storage.pool.coalesced_frac"] =
      Ratio(static_cast<double>(pool.coalesced_misses()), misses);
  v["storage.pool.inflight_waits_per_query"] =
      Ratio(static_cast<double>(pool.inflight_waits()), n.queries);
  v["storage.pool.hit_ratio"] = Ratio(hits, hits + misses);
  v["storage.pool.eviction_writes_per_query"] =
      Ratio(static_cast<double>(pool.eviction_writes()), n.queries);

  const IoCounters io = after.io - before.io;
  CheckTagSums(io, after.tags - before.tags, "the traced window", report);
  v["storage.disk.reads_per_query"] =
      Ratio(static_cast<double>(io.reads), n.queries);
  v["storage.disk.writes_per_query"] =
      Ratio(static_cast<double>(io.writes), n.queries);
  v["storage.disk.seq_read_frac"] = io.seq_fraction();

  v["storage.wal.commits_per_update"] = Ratio(
      static_cast<double>(after.wal_commits - before.wal_commits), n.updates);
  v["storage.wal.bytes_per_update"] = Ratio(
      static_cast<double>(after.wal_bytes - before.wal_bytes), n.updates);

  const double acquisitions =
      static_cast<double>(after.lock_acquisitions - before.lock_acquisitions);
  v["exec.lock.wait_us_per_query"] = Ratio(
      static_cast<double>(after.lock_wait_us - before.lock_wait_us),
      n.queries);
  v["exec.lock.wait_frac"] = Ratio(
      static_cast<double>(after.lock_waits - before.lock_waits), acquisitions);

  v["relational.sort.runs_per_scan"] = Ratio(
      static_cast<double>(after.sort_runs - before.sort_runs), n.scans);
  v["relational.sort.spill_pages_per_scan"] = Ratio(
      static_cast<double>(after.sort_spill_pages - before.sort_spill_pages),
      n.scans);
  v["relational.sort.merge_passes_per_scan"] = Ratio(
      static_cast<double>(after.sort_merge_passes - before.sort_merge_passes),
      n.scans);
}

}  // namespace perfbench
}  // namespace objrep
