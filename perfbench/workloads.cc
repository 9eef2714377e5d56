// hot_read: 4 closed-loop clients through RunConcurrentWorkload, DFS at
// NumTop 10, read-only, on a database the buffer pool holds whole once
// warm, so every query is pool hits, B-tree probes, decode and S locks.
#include "workloads.h"

#include <memory>

#include "core/runner.h"
#include "exec/concurrent_runner.h"
#include "ledger.h"
#include "obs/trace.h"
#include "probes.h"
#include "served.h"

namespace objrep {
namespace perfbench {

namespace {

constexpr uint32_t kClients = 4;
constexpr uint32_t kNumTop = 10;

struct ClosedLoopShape {
  uint32_t parents;
  uint32_t pool_pages;
  int setups;               ///< builds timed for setup_s (median)
  uint32_t exact_queries;   ///< exact-count pass prefix
  uint32_t gate_queries;    ///< 4-client vs sequential answer check
  uint32_t traced_queries;  ///< traced run: single pass, fixed work
  int subwindows;           ///< the timed window is split; medians reported
  uint32_t core_queries;    ///< single-thread Strategy::ExecuteRetrieve
};

// The traced run takes a fixed number of queries, not a fixed time, so
// each worker's trace ring (65,536 events) cannot wrap however fast the
// engine becomes.
constexpr ClosedLoopShape kHotRead = {10000, 4096, 5, 500, 2000,
                                      80000, 5,    2000};

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(v[i]);
  }
  return out + "]";
}

std::string LatencyDetail(const std::vector<double>& qps,
                          const std::vector<double>& p50,
                          const std::vector<double>& p95,
                          const std::vector<double>& p99,
                          const std::vector<double>& n) {
  double total = 0;
  bool supported = true;
  for (double x : n) {
    total += x;
    supported = supported && x >= 1000;
  }
  return JsonObject()
      .Str("timing", "retrieve")
      .Raw("qps", JsonArray(qps))
      .Raw("p50_us", JsonArray(p50))
      .Raw("p95_us", JsonArray(p95))
      .Raw("p99_us", JsonArray(p99))
      .Raw("samples_each", JsonArray(n))
      .Num("samples", total)
      .Num("p50_us_median", Median(p50))
      .Num("p95_us_median", Median(p95))
      .Num("p99_us_median", Median(p99))
      .Bool("p99_supported_in_every_subwindow", supported)
      .str();
}

Status RunClosedLoop(const RunArgs& args, const ClosedLoopShape& shape,
                     Report* report) {
  const DatabaseSpec spec =
      PaperShape(shape.parents, shape.pool_pages, args.seed);
  std::unique_ptr<ComplexDatabase> db;
  std::vector<double> setup_s;
  for (int i = 0; i < shape.setups; ++i) {
    db.reset();
    const Clock::time_point t0 = Clock::now();
    OBJREP_RETURN_NOT_OK(BuildDatabase(spec, &db));
    setup_s.push_back(SecondsSince(t0));
  }
  report->values["setup_s"] = Median(setup_s);

  std::vector<Query> queries;
  WorkloadSpec ws;
  ws.num_queries = std::max<uint32_t>(4096, shape.traced_queries);
  ws.num_top = kNumTop;
  ws.seed = args.seed + 1;
  OBJREP_RETURN_NOT_OK(GenerateWorkload(ws, *db, &queries));
  auto prefix = [&](uint32_t n) {
    return std::vector<Query>(queries.begin(), queries.begin() + n);
  };
  std::unique_ptr<Strategy> dfs;
  OBJREP_RETURN_NOT_OK(MakeStrategy(StrategyKind::kDfs, db.get(), {}, &dfs));

  // Exact-count pass, from an empty pool so its counts repeat exactly.
  OBJREP_RETURN_NOT_OK(db->pool->FlushAll());
  db->pool->InvalidateAllClean();
  RunResult exact;
  OBJREP_RETURN_NOT_OK(
      objrep::RunWorkload(dfs.get(), db.get(), prefix(shape.exact_queries),
                          &exact));
  RecordExactPass(exact.io, exact.io_by_tag, exact.num_queries, report);

  // Correctness gate: 4 clients over a fixed prefix, one pass, must give
  // the sequential runner's answer.
  RunResult seq;
  OBJREP_RETURN_NOT_OK(objrep::RunWorkload(
      dfs.get(), db.get(), prefix(shape.gate_queries), &seq));
  ConcurrentRunOptions gate_opts;
  gate_opts.num_threads = kClients;
  ConcurrentRunResult conc;
  OBJREP_RETURN_NOT_OK(RunConcurrentWorkload(StrategyKind::kDfs, {}, db.get(),
                                             prefix(shape.gate_queries),
                                             gate_opts, &conc));
  CheckTagSums(seq.io, seq.io_by_tag, "the sequential gate pass", report);
  CheckTagSums(conc.combined.io, conc.combined.io_by_tag,
               "the concurrent gate pass", report);
  if (seq.result_count != conc.combined.result_count ||
      seq.result_sum != conc.combined.result_sum || seq.result_count == 0) {
    Fail(report, "4-client answers differ from the sequential runner");
  }

  // Warm: one DFS retrieve per block of NumTop parents touches every page
  // a DFS retrieve can touch.
  std::vector<Query> sweep;
  for (uint32_t lo = 0; lo + kNumTop <= shape.parents; lo += kNumTop) {
    Query q;
    q.lo_parent = lo;
    q.num_top = kNumTop;
    sweep.push_back(q);
  }
  RunResult warm;
  OBJREP_RETURN_NOT_OK(objrep::RunWorkload(dfs.get(), db.get(), sweep, &warm));

  if (!args.trace) {
    std::vector<double> qps, p50, p95, p99, n;
    double completed = 0, wall = 0;
    const double cpu0 = ProcessCpuSeconds();
    for (int i = 0; i < shape.subwindows; ++i) {
      ConcurrentRunOptions o;
      o.num_threads = kClients;
      o.duration_seconds = args.seconds / shape.subwindows;
      o.seed = args.seed * 1000 + static_cast<uint64_t>(i);
      ConcurrentRunResult r;
      OBJREP_RETURN_NOT_OK(RunConcurrentWorkload(StrategyKind::kDfs, {},
                                                 db.get(), queries, o, &r));
      CheckTagSums(r.combined.io, r.combined.io_by_tag, "the timed window",
                   report);
      report->attempted += r.combined.num_queries;
      completed += r.combined.num_queries;
      wall += r.wall_seconds;
      qps.push_back(r.queries_per_sec);
      p50.push_back(r.retrieve_latency.p50_us);
      p95.push_back(r.retrieve_latency.p95_us);
      p99.push_back(r.retrieve_latency.p99_us);
      n.push_back(static_cast<double>(r.retrieve_latency.count));
    }
    report->values["cpu_us_per_query"] =
        (ProcessCpuSeconds() - cpu0) * 1e6 / completed;
    report->values["throughput_qps"] = completed / wall;
    report->values["retrieve_p50_us"] = Median(p50);
    report->details.push_back(LatencyDetail(qps, p50, p95, p99, n));
    report->values["peak_rss_mb"] = PeakRssMb();
    return Status::OK();
  }

  // Traced run: the same fixed single pass untraced, then traced.
  const std::vector<Query> traced = prefix(shape.traced_queries);
  ConcurrentRunOptions pass;
  pass.num_threads = kClients;
  ConcurrentRunResult untraced_run, traced_run;
  OBJREP_RETURN_NOT_OK(RunConcurrentWorkload(StrategyKind::kDfs, {}, db.get(),
                                             traced, pass, &untraced_run));
  Trace::Clear();
  Trace::SetEnabled(true);
  const Ledger before = Ledger::Take(*db);
  {
    TraceSpan window("bench_window", "bench");
    OBJREP_RETURN_NOT_OK(RunConcurrentWorkload(StrategyKind::kDfs, {},
                                               db.get(), traced, pass,
                                               &traced_run));
  }
  const Ledger after = Ledger::Take(*db);
  report->attempted += traced_run.combined.num_queries;
  WindowCounts counts;
  counts.queries = traced_run.combined.num_queries;
  RecordWindowLayers(*db, before, after, counts, report);
  report->values["obs.trace_overhead_frac"] =
      1 - traced_run.queries_per_sec / untraced_run.queries_per_sec;

  OBJREP_RETURN_NOT_OK(ProbeStorageLayers(
      db.get(), ChildrenOf(*db, traced, 20000), kClients, args.seed, report));
  double core_us = 0;
  {
    TraceSpan span("probe_core_retrieve", "bench");
    OBJREP_RETURN_NOT_OK(MedianMicros(
        shape.core_queries,
        [&](size_t i) {
          RetrieveResult r;
          return dfs->ExecuteRetrieve(queries[i], &r);
        },
        &core_us));
  }
  report->values["core.retrieve_us.t1"] = core_us;
  return Status::OK();
}

}  // namespace

Status RunBenchmark(const RunArgs& args, Report* report) {
  *report = Report{};
  Status s;
  if (args.workload == "hot_read") {
    s = RunClosedLoop(args, kHotRead, report);
  } else if (args.workload == "served_mix") {
    s = RunServedMix(args, report);
  } else {
    return Status::InvalidArgument("unknown workload: " + args.workload);
  }
  OBJREP_RETURN_NOT_OK(s);
  if (args.trace) {
    Trace::SetEnabled(false);
    report->values["obs.trace_dropped_events"] =
        static_cast<double>(Trace::dropped_events());
    OBJREP_RETURN_NOT_OK(Trace::FlushToFile(args.trace_path));
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace objrep
