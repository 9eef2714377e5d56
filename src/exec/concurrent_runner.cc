#include "exec/concurrent_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "exec/executor.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace objrep {

namespace {

using Clock = std::chrono::steady_clock;

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank - 1, sorted.size() - 1)];
}

/// Per-worker tallies (owned by exactly one thread; aggregated by the
/// caller after the join — no shared mutable state).
struct WorkerResult {
  Status status;
  RunResult tally;
  std::vector<double> latencies_us;
  std::vector<double> retrieve_latencies_us;
};

void RunWorker(Executor* exec, Strategy* session,
               const std::vector<const Query*>& slice,
               const ConcurrentRunOptions& options, uint32_t worker_index,
               WorkerResult* wr) {
  if (slice.empty()) return;
  Rng rng = Rng(options.seed).ForStream(worker_index);
  Clock::time_point deadline{};
  const bool timed = options.duration_seconds > 0;
  if (timed) {
    deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      options.duration_seconds));
  }
  size_t next = 0;
  for (;;) {
    const Query* q;
    if (timed) {
      if (Clock::now() >= deadline) break;
      q = slice[rng.Uniform(slice.size())];
    } else {
      if (next >= slice.size()) break;
      q = slice[next++];
    }
    Clock::time_point t0 = Clock::now();
    wr->status = RunQuery(exec, session, *q, &wr->tally);
    if (!wr->status.ok()) return;
    double us = std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count();
    wr->latencies_us.push_back(us);
    if (q->kind == Query::Kind::kRetrieve) {
      wr->retrieve_latencies_us.push_back(us);
    }
  }
}

}  // namespace

LatencySummary SummarizeLatencies(std::vector<double>* samples_us) {
  LatencySummary s;
  if (samples_us->empty()) return s;
  std::sort(samples_us->begin(), samples_us->end());
  s.count = samples_us->size();
  double sum = 0;
  for (double v : *samples_us) sum += v;
  s.mean_us = sum / static_cast<double>(s.count);
  s.p50_us = PercentileSorted(*samples_us, 50);
  s.p95_us = PercentileSorted(*samples_us, 95);
  s.p99_us = PercentileSorted(*samples_us, 99);
  s.max_us = samples_us->back();
  return s;
}

Status RunConcurrentWorkload(StrategyKind kind,
                             const StrategyOptions& strategy_options,
                             ComplexDatabase* db,
                             const std::vector<Query>& queries,
                             const ConcurrentRunOptions& options,
                             ConcurrentRunResult* out) {
  *out = ConcurrentRunResult{};
  const uint32_t k = options.num_threads == 0 ? 1 : options.num_threads;
  out->num_threads = k;

  // One session (strategy instance) per worker, all over the shared db,
  // checked out before the measurement window opens.
  Executor exec(db, strategy_options);
  std::vector<Executor::Lease> sessions(k);
  for (uint32_t w = 0; w < k; ++w) {
    OBJREP_RETURN_NOT_OK(exec.Checkout(kind, &sessions[w]));
  }

  // Round-robin partition: query i -> worker i mod K, order preserved.
  std::vector<std::vector<const Query*>> slices(k);
  for (size_t i = 0; i < queries.size(); ++i) {
    slices[i % k].push_back(&queries[i]);
  }

  RunWindow window(&exec);
  std::vector<WorkerResult> results(k);
  Clock::time_point wall0 = Clock::now();
  {
    ThreadPool pool(k);
    std::vector<std::future<void>> futures;
    futures.reserve(k);
    for (uint32_t w = 0; w < k; ++w) {
      futures.push_back(pool.Submit([&, w] {
        RunWorker(&exec, sessions[w].get(), slices[w], options, w,
                  &results[w]);
      }));
    }
    for (auto& f : futures) f.get();
  }
  out->wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall0).count();

  RunResult& r = out->combined;
  std::vector<double> all_lat, ret_lat;
  for (WorkerResult& wr : results) {
    OBJREP_RETURN_NOT_OK(wr.status);
    r.num_queries += wr.tally.num_queries;
    r.num_retrieves += wr.tally.num_retrieves;
    r.num_updates += wr.tally.num_updates;
    r.result_count += wr.tally.result_count;
    r.result_sum += wr.tally.result_sum;
    r.retrieve_cost += wr.tally.retrieve_cost;
    all_lat.insert(all_lat.end(), wr.latencies_us.begin(),
                   wr.latencies_us.end());
    ret_lat.insert(ret_lat.end(), wr.retrieve_latencies_us.begin(),
                   wr.retrieve_latencies_us.end());
  }

  // Quiescent point: every worker has joined, so the window's close folds
  // and flushes. Skipped on worker error — the aggregation loop above
  // already returned, and after a crash the pool needs recovery before it
  // can run the fold's transaction.
  OBJREP_RETURN_NOT_OK(window.Close(&r));

  out->queries_per_sec =
      out->wall_seconds > 0
          ? static_cast<double>(r.num_queries) / out->wall_seconds
          : 0;
  out->avg_io_per_query = r.AvgIoPerQuery();
  out->latency = SummarizeLatencies(&all_lat);
  out->retrieve_latency = SummarizeLatencies(&ret_lat);
  return Status::OK();
}

}  // namespace objrep
