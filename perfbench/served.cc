// served_mix: 75% DFSCACHE retrieves (NumTop 10), 5% BFS retrieves
// (NumTop 100) and 20% updates of 5 children, sent open-loop over one
// pipelined connection to an in-process ObjServer with 2 workers. It is
// the only workload that runs the net layer, cache maintenance and
// invalidation, WAL commits, X-vs-S lock waits and sort/merge.
//
// Gated figures come from a closed-loop capacity phase: kClosedDepth
// requests kept in flight for the run's --seconds give throughput_qps and
// retrieve_p50_us. The open-loop figures the mix exists for are measured
// on every run and reported in the detail lines, with sample counts:
// latencies at a fixed 400 req/s, timed from each request's intended send
// time, and rate_ok_rps, the highest offered rate that meets the latency
// limit (DFSCACHE retrieve p99 <= 50 ms, no failure, no growing backlog)
// on a ladder from 250 req/s in steps of 25% that stops at the first
// failing step, then bisects between the last passing and the failing
// rate. They are not gated: open-loop latency here is mostly thread
// wake-ups (client, event loop, worker and back), which a shared host's
// CPU steal stretches several-fold from one run to the next.
//
// Answers are checked against ObjService::Execute on the quiesced store.
// Every update writes the same ret1 value, kUpdatedRet1, which the data
// generator never produces, so a retrieve's answer is timing-independent
// except that a ret1 position may read kUpdatedRet1 where an update has
// landed.
#include "served.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "core/strategy.h"
#include "ledger.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "open_loop.h"
#include "probes.h"
#include "util/random.h"

namespace objrep {
namespace perfbench {

namespace {

constexpr uint32_t kParents = 10000;
constexpr uint32_t kPoolPages = 1024;
constexpr uint32_t kWorkers = 2;
/// One connection: a second one's sender and receiver threads only add
/// scheduling noise next to the server's three threads on 4 vCPUs.
constexpr size_t kConnections = 1;
constexpr int kSetups = 5;

constexpr size_t kTableSize = 4000;
constexpr size_t kExactRequests = 400;
constexpr int32_t kUpdatedRet1 = 1000003;  // generator values are < 10^6

/// In-flight requests of the closed-loop capacity phase: enough that both
/// workers always have a queued request.
constexpr uint32_t kClosedDepth = 8;
constexpr double kReferenceRate = 400;
constexpr double kReferenceSeconds = 15;
constexpr double kLadderStart = 250;
constexpr double kLadderRatio = 1.25;
constexpr int kRefinements = 3;
constexpr double kLimitUs = 50000;
/// Ladder step length. Steps near the knee (>= 900 req/s) send >= 1,000
/// retrieves, so the deciding steps' p99 has ten samples beyond it.
constexpr double kStepSeconds = 1.5;

struct MixTable {
  std::vector<net::Request> reqs;
  std::vector<uint8_t> kinds;
  std::vector<Query> queries;  // the same requests as engine queries
};

net::Request ToRequest(const Query& q, uint8_t strategy) {
  net::Request r;
  r.strategy = strategy;
  if (q.kind == Query::Kind::kRetrieve) {
    r.verb = net::Verb::kRetrieve;
    r.lo_parent = q.lo_parent;
    r.num_top = q.num_top;
    r.attr_index = static_cast<uint8_t>(q.attr_index);
  } else {
    r.verb = net::Verb::kUpdate;
    r.update_targets = q.update_targets;
    r.new_ret1 = q.new_ret1;
  }
  return r;
}

/// Builds the request table in blocks of 20: 15 DFSCACHE retrieves, 1 BFS
/// scan and 4 updates, shuffled within the block, so any run of
/// consecutive requests has the mix's proportions.
Status MakeMix(const ComplexDatabase& db, uint64_t seed, MixTable* out) {
  constexpr size_t kBlock = 20, kBlockScans = 1, kBlockUpdates = 4;
  constexpr size_t kBlocks = kTableSize / kBlock;
  std::vector<Query> retrieves, scans, updates;
  WorkloadSpec ws;
  ws.num_queries = kBlocks * (kBlock - kBlockScans - kBlockUpdates);
  ws.num_top = 10;
  ws.seed = seed + 1;
  OBJREP_RETURN_NOT_OK(GenerateWorkload(ws, db, &retrieves));
  ws.num_queries = kBlocks * kBlockScans;
  ws.num_top = 100;
  ws.seed = seed + 2;
  OBJREP_RETURN_NOT_OK(GenerateWorkload(ws, db, &scans));
  ws.num_queries = kBlocks * kBlockUpdates;
  ws.pr_update = 1;
  ws.update_batch = 5;
  ws.seed = seed + 3;
  OBJREP_RETURN_NOT_OK(GenerateWorkload(ws, db, &updates));

  Rng rng(seed + 4);
  size_t next[kNumKinds] = {0, 0, 0};
  const std::vector<Query>* source[kNumKinds] = {&retrieves, &scans,
                                                 &updates};
  for (size_t b = 0; b < kBlocks; ++b) {
    std::vector<uint8_t> block(kBlock, kRetrieve);
    std::fill_n(block.begin(), kBlockScans, kScan);
    std::fill_n(block.begin() + kBlockScans, kBlockUpdates, kUpdate);
    for (size_t i = kBlock; i > 1; --i) {
      std::swap(block[i - 1], block[rng.Uniform(i)]);
    }
    for (uint8_t kind : block) {
      Query q = (*source[kind])[next[kind]++];
      q.new_ret1 = kUpdatedRet1;
      out->reqs.push_back(ToRequest(
          q, kind == kScan ? static_cast<uint8_t>(StrategyKind::kBfs)
                           : net::kDefaultStrategyByte));
      out->kinds.push_back(kind);
      out->queries.push_back(std::move(q));
    }
  }
  return Status::OK();
}

/// Checks served answers against the quiesced store's (thread-safe; the
/// generator calls it from its receiver threads).
class AnswerCheck {
 public:
  AnswerCheck(const MixTable& table,
              const std::vector<std::vector<int32_t>>& expected)
      : table_(table), expected_(expected) {}

  void operator()(uint32_t item, const net::Response& resp) {
    const net::Request& req = table_.reqs[item];
    bool ok;
    if (req.verb == net::Verb::kUpdate) {
      ok = resp.updated == req.update_targets.size();
    } else {
      ok = Matches(req, expected_[item], resp.values);
    }
    checked_.fetch_add(1);
    if (!ok) wrong_.fetch_add(1);
  }

  static bool Matches(const net::Request& req,
                      const std::vector<int32_t>& want,
                      const std::vector<int32_t>& got) {
    if (want.size() != got.size()) return false;
    for (size_t j = 0; j < want.size(); ++j) {
      if (got[j] != want[j] &&
          !(req.attr_index == 0 && got[j] == kUpdatedRet1)) {
        return false;
      }
    }
    return true;
  }

  uint64_t checked() const { return checked_.load(); }
  uint64_t wrong() const { return wrong_.load(); }

 private:
  const MixTable& table_;
  const std::vector<std::vector<int32_t>>& expected_;
  std::atomic<uint64_t> checked_{0};
  std::atomic<uint64_t> wrong_{0};
};

Status Phase(uint16_t port, const MixTable& table, const PhaseSpec& spec,
             AnswerCheck* check, PhaseResult* out) {
  std::vector<std::unique_ptr<Transport>> owned;
  std::vector<Transport*> conns;
  for (size_t c = 0; c < kConnections; ++c) {
    Status s;
    owned.push_back(ConnectLoopback(port, &s));
    OBJREP_RETURN_NOT_OK(s);
    conns.push_back(owned.back().get());
  }
  return RunPhase(
      conns, table.reqs, table.kinds, spec,
      [check](uint32_t item, const net::Response& r) { (*check)(item, r); },
      out);
}

std::string PhaseDetail(const char* name, double rate, const PhaseResult& r) {
  JsonObject o;
  o.Str("phase", name).Num("rate", rate).Num("sent", r.sent);
  o.Num("failed", r.failed).Num("busy", r.busy);
  const char* kind_names[kNumKinds] = {"retrieve", "scan", "update"};
  for (int k = 0; k < kNumKinds; ++k) {
    const LatencyStats s = Summarize(r.latency_us[k]);
    o.Raw(kind_names[k], JsonObject()
                             .Num("n", s.n)
                             .Num("p50_us", s.p50)
                             .Num("p95_us", s.p95)
                             .Num("p99_us", s.p99)
                             .Bool("p99_supported", s.p99_supported)
                             .Num("tail_pct", s.tail_pct)
                             .Num("tail_us", s.tail)
                             .str());
  }
  const LatencyStats late = Summarize(r.late_us);
  o.Num("send_late_p99_us", late.p99).Num("send_late_max_us", late.tail);
  o.Num("tail_window_p50_us", r.tail_window_p50_us);
  return o.str();
}

/// Runs one ladder step; `*pass` tells whether it met the limit.
Status LadderStep(uint16_t port, const MixTable& table, AnswerCheck* check,
                  double rate, uint64_t seed, Report* report, bool* pass) {
  PhaseSpec spec;
  spec.rate = rate;
  spec.seconds = kStepSeconds;
  spec.seed = seed;
  PhaseResult r;
  // Steps past the knee overload the server on purpose, so their requests
  // stay out of attempted/failed; each step's counts are in its detail.
  OBJREP_RETURN_NOT_OK(Phase(port, table, spec, check, &r));
  const LatencyStats s = Summarize(r.latency_us[kRetrieve]);
  *pass = r.failed == 0 && s.n > 0 && s.p99 <= kLimitUs &&
          r.tail_window_p50_us <= kLimitUs;
  report->details.push_back(PhaseDetail(*pass ? "ladder_pass" : "ladder_fail",
                                        rate, r));
  return Status::OK();
}

Status Ladder(uint16_t port, const MixTable& table, AnswerCheck* check,
              uint64_t seed, Report* report, double* rate_ok) {
  uint64_t step_seed = seed * 7919;
  double best = 0, failing = 0;
  for (double rate = kLadderStart; rate < 1e5; rate *= kLadderRatio) {
    bool pass = false;
    OBJREP_RETURN_NOT_OK(
        LadderStep(port, table, check, rate, ++step_seed, report, &pass));
    if (!pass) {
      failing = rate;
      break;
    }
    best = rate;
  }
  // If even the first step fails, walk down until one passes.
  for (double rate = kLadderStart / kLadderRatio; best == 0 && rate >= 10;
       rate /= kLadderRatio) {
    bool pass = false;
    OBJREP_RETURN_NOT_OK(
        LadderStep(port, table, check, rate, ++step_seed, report, &pass));
    if (pass) {
      best = rate;
    } else {
      failing = rate;
    }
  }
  if (best == 0) return Status::IOError("no offered rate meets the limit");
  for (int i = 0; i < kRefinements && failing > 0; ++i) {
    const double mid = std::sqrt(best * failing);
    bool pass = false;
    OBJREP_RETURN_NOT_OK(
        LadderStep(port, table, check, mid, ++step_seed, report, &pass));
    (pass ? best : failing) = mid;
  }
  *rate_ok = best;
  return Status::OK();
}

/// Single-thread, lock-free Strategy calls on the mix's own queries, and
/// the cache, net and frame probes.
Status ProbeServedLayers(ComplexDatabase* db, const MixTable& table,
                         net::ObjService* service, uint16_t port,
                         Report* report) {
  std::vector<size_t> retrieves, scans, updates;
  for (size_t i = 0; i < table.kinds.size(); ++i) {
    (table.kinds[i] == kRetrieve ? retrieves
     : table.kinds[i] == kScan   ? scans
                                 : updates)
        .push_back(i);
  }
  retrieves.resize(std::min<size_t>(retrieves.size(), 500));
  scans.resize(std::min<size_t>(scans.size(), 100));
  updates.resize(std::min<size_t>(updates.size(), 300));

  std::unique_ptr<Strategy> cache_strategy, bfs;
  OBJREP_RETURN_NOT_OK(
      MakeStrategy(StrategyKind::kDfsCache, db, {}, &cache_strategy));
  OBJREP_RETURN_NOT_OK(MakeStrategy(StrategyKind::kBfs, db, {}, &bfs));
  double us = 0;
  {
    TraceSpan span("probe_core_retrieve", "bench");
    OBJREP_RETURN_NOT_OK(MedianMicros(
        retrieves.size(),
        [&](size_t i) {
          RetrieveResult r;
          return cache_strategy->ExecuteRetrieve(table.queries[retrieves[i]],
                                                 &r);
        },
        &us));
    report->values["core.retrieve_us.t1"] = us;
  }
  {
    TraceSpan span("probe_core_scan", "bench");
    OBJREP_RETURN_NOT_OK(MedianMicros(
        scans.size(),
        [&](size_t i) {
          RetrieveResult r;
          return bfs->ExecuteRetrieve(table.queries[scans[i]], &r);
        },
        &us));
    report->values["core.scan_us.t1"] = us;
  }
  {
    TraceSpan span("probe_core_update", "bench");
    OBJREP_RETURN_NOT_OK(MedianMicros(
        updates.size(),
        [&](size_t i) {
          OBJREP_RETURN_NOT_OK(db->pool->BeginTxn());
          Status s = cache_strategy->ExecuteUpdate(table.queries[updates[i]]);
          if (!s.ok()) {
            db->pool->AbortTxn();
            return s;
          }
          return db->pool->CommitTxn();
        },
        &us));
    report->values["core.update_us.t1"] = us;
  }
  {
    // TryFetchUnit on the units the retrieves select that are cached now.
    TraceSpan span("probe_cache_fetch", "bench");
    std::vector<double> found_us;
    std::string blob;
    for (size_t i : retrieves) {
      const Query& q = table.queries[i];
      for (uint32_t p = q.lo_parent; p < q.lo_parent + q.num_top; ++p) {
        const uint64_t key =
            CacheManager::HashKeyOf(db->units[db->unit_of_parent[p]]);
        bool found = false;
        const Clock::time_point t0 = Clock::now();
        OBJREP_RETURN_NOT_OK(db->cache->TryFetchUnit(key, &blob, &found));
        if (found) found_us.push_back(SecondsSince(t0) * 1e6);
      }
    }
    report->values["objstore.cache.fetch_us"] = Median(found_us);
  }

  std::vector<std::string> response_frames;
  double service_us = 0;
  {
    TraceSpan span("probe_service", "bench");
    OBJREP_RETURN_NOT_OK(MedianMicros(
        retrieves.size(),
        [&](size_t i) {
          net::Response r = service->Execute(table.reqs[retrieves[i]]);
          if (r.status != net::RespStatus::kOk) {
            return Status::IOError("service probe: " + r.error);
          }
          response_frames.push_back(
              net::EncodeFrame(net::EncodeResponse(r), 1));
          return Status::OK();
        },
        &service_us));
  }
  double rtt_us = 0;
  {
    TraceSpan span("probe_rtt", "bench");
    net::ObjClient client;
    OBJREP_RETURN_NOT_OK(client.Connect("127.0.0.1", port));
    OBJREP_RETURN_NOT_OK(MedianMicros(
        retrieves.size(),
        [&](size_t i) {
          net::Response r;
          net::Request req = table.reqs[retrieves[i]];
          req.id = 0;
          OBJREP_RETURN_NOT_OK(client.Call(req, &r));
          return r.status == net::RespStatus::kOk
                     ? Status::OK()
                     : Status::IOError("rtt probe: " + r.error);
        },
        &rtt_us));
  }
  report->values["net.service_us.p50"] = service_us;
  report->values["net.rtt_us.p50"] = rtt_us;
  report->values["net.wire_us.p50"] = rtt_us - service_us;

  Status err;
  {
    TraceSpan span("probe_frame_encode", "bench");
    report->values["net.frame_encode_ns"] = NsPerCall(
        [&](uint64_t i) {
          const std::string f = net::EncodeFrame(
              net::EncodeRequest(table.reqs[i % table.reqs.size()]), i + 1);
          if (f.size() < net::kFrameHeaderBytes) err = Status::Corruption("");
        },
        100000, 0.1);
  }
  {
    TraceSpan span("probe_frame_decode", "bench");
    report->values["net.frame_decode_ns"] = NsPerCall(
        [&](uint64_t i) {
          net::FrameDecoder d;
          const std::string& f = response_frames[i % response_frames.size()];
          d.Feed(f.data(), f.size());
          std::string payload;
          bool ready = false;
          Status s = d.Next(&payload, &ready);
          net::Response r;
          if (s.ok() && ready) s = net::DecodeResponse(payload, &r);
          if (!s.ok() || !ready) err = Status::Corruption("frame decode probe");
        },
        100000, 0.1);
  }
  return err;
}

}  // namespace

Status RunServedMix(const RunArgs& args, Report* report) {
  DatabaseSpec spec = PaperShape(kParents, kPoolPages, args.seed);
  spec.build_cache = true;
  spec.enable_wal = true;
  net::ServerConfig config;
  config.num_workers = kWorkers;
  config.default_strategy = StrategyKind::kDfsCache;

  std::unique_ptr<ComplexDatabase> db;
  std::unique_ptr<net::ObjServer> server;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    db.reset();
    const Clock::time_point t0 = Clock::now();
    OBJREP_RETURN_NOT_OK(BuildDatabase(spec, &db));
    server = std::make_unique<net::ObjServer>(db.get(), config);
    OBJREP_RETURN_NOT_OK(server->Start());
    setup_s.push_back(SecondsSince(t0));
  }
  report->values["setup_s"] = Median(setup_s);
  const uint16_t port = server->port();

  Status self_test = GeneratorSelfTest();
  if (!self_test.ok()) {
    Fail(report, "generator self-test: " + self_test.ToString());
  }

  MixTable table;
  OBJREP_RETURN_NOT_OK(MakeMix(*db, args.seed, &table));
  net::ObjService service(db.get(), StrategyKind::kDfsCache, {});

  // Exact-count pass: the first requests of the table, one at a time,
  // from an empty pool and an empty cache.
  OBJREP_RETURN_NOT_OK(db->pool->FlushAll());
  db->pool->InvalidateAllClean();
  const IoCounters io0 = db->disk->counters();
  const IoTagBreakdown tags0 = db->disk->breakdown();
  for (size_t i = 0; i < kExactRequests; ++i) {
    net::Response r = service.Execute(table.reqs[i]);
    if (r.status != net::RespStatus::kOk) {
      return Status::IOError("exact pass: " + r.error);
    }
  }
  OBJREP_RETURN_NOT_OK(db->pool->FlushAll());
  RecordExactPass(db->disk->counters() - io0, db->disk->breakdown() - tags0,
                  kExactRequests, report);

  // Expected answers on the quiesced store (this also warms pool and
  // cache before anything is timed).
  std::vector<std::vector<int32_t>> expected(table.reqs.size());
  for (size_t i = 0; i < table.reqs.size(); ++i) {
    if (table.kinds[i] == kUpdate) continue;
    net::Response r = service.Execute(table.reqs[i]);
    if (r.status != net::RespStatus::kOk) {
      return Status::IOError("expected answer: " + r.error);
    }
    expected[i] = std::move(r.values);
  }
  AnswerCheck check(table, expected);

  PhaseSpec reference;
  reference.rate = kReferenceRate;
  reference.seconds = args.trace ? args.seconds / 2 : kReferenceSeconds;
  reference.seed = args.seed * 104729;

  if (!args.trace) {
    // Gated: capacity and retrieve p50 with the server kept busy.
    PhaseSpec capacity;
    capacity.seconds = args.seconds;
    capacity.seed = args.seed * 7907;
    Status s;
    std::unique_ptr<Transport> conn = ConnectLoopback(port, &s);
    OBJREP_RETURN_NOT_OK(s);
    PhaseResult cap;
    const double cpu0 = ProcessCpuSeconds();
    OBJREP_RETURN_NOT_OK(RunClosedPhase(
        conn.get(), table.reqs, table.kinds, kClosedDepth, capacity,
        [&check](uint32_t item, const net::Response& r) { check(item, r); },
        &cap));
    report->values["cpu_us_per_query"] =
        (ProcessCpuSeconds() - cpu0) * 1e6 / static_cast<double>(cap.ok);
    report->attempted += cap.sent;
    report->failed += cap.failed;
    report->details.push_back(PhaseDetail("capacity", 0, cap));
    report->values["throughput_qps"] =
        static_cast<double>(cap.ok) / cap.elapsed_s;
    report->values["retrieve_p50_us"] =
        Summarize(cap.latency_us[kRetrieve]).p50;
  }

  // Open-loop latency at the reference rate, and the knee rate.
  PhaseResult ref;
  OBJREP_RETURN_NOT_OK(Phase(port, table, reference, &check, &ref));
  report->attempted += ref.sent;
  report->failed += ref.failed;
  report->details.push_back(PhaseDetail("reference", kReferenceRate, ref));
  const LatencyStats ret = Summarize(ref.latency_us[kRetrieve]);

  if (!args.trace) {
    double rate_ok = 0;
    OBJREP_RETURN_NOT_OK(
        Ladder(port, table, &check, args.seed, report, &rate_ok));
    report->details.push_back(
        JsonObject().Num("rate_ok_rps", rate_ok).str());
  } else {
    db->pool->ResetStats();
    db->cache->ResetStats();
    reference.seed += 1;
    Trace::Clear();
    Trace::SetEnabled(true);
    const Ledger before = Ledger::Take(*db);
    PhaseResult traced;
    {
      TraceSpan span("bench_phase", "bench");
      OBJREP_RETURN_NOT_OK(Phase(port, table, reference, &check, &traced));
    }
    const Ledger after = Ledger::Take(*db);
    report->attempted += traced.sent;
    report->failed += traced.failed;
    report->details.push_back(
        PhaseDetail("traced_reference", kReferenceRate, traced));
    WindowCounts counts;
    counts.queries = static_cast<double>(traced.ok);
    counts.scans = static_cast<double>(traced.latency_us[kScan].size());
    counts.updates = static_cast<double>(traced.latency_us[kUpdate].size());
    RecordWindowLayers(*db, before, after, counts, report);

    const CacheManager::CacheStats cs = db->cache->stats();
    std::map<std::string, double>& v = report->values;
    v["objstore.cache.hit_ratio"] =
        static_cast<double>(cs.hits) /
        std::max<double>(1, static_cast<double>(cs.hits + cs.misses));
    v["objstore.cache.inserts_per_query"] =
        static_cast<double>(cs.inserts) / std::max(1.0, counts.queries);
    v["objstore.cache.invalidated_per_update"] =
        static_cast<double>(cs.invalidated_units) /
        std::max(1.0, counts.updates);
    const double net_requests =
        static_cast<double>(after.net_requests - before.net_requests);
    v["net.bytes_per_request"] =
        static_cast<double>(after.net_bytes - before.net_bytes) /
        std::max(1.0, net_requests);
    v["net.busy_rejected_frac"] =
        static_cast<double>(after.net_busy - before.net_busy) /
        std::max(1.0, net_requests);
    v["net.client.send_late_p99_us"] = Summarize(traced.late_us).p99;
    MetricsRegistry& reg = MetricsRegistry::Global();
    v["util.threadpool.queue_wait_us.p99"] = static_cast<double>(
        reg.GetHistogram("threadpool.queue_wait_us")->TakeSnapshot().p99);
    v["util.threadpool.task_run_us.p50"] = static_cast<double>(
        reg.GetHistogram("threadpool.task_run_us")->TakeSnapshot().p50);
    v["obs.trace_overhead_frac"] =
        Summarize(traced.latency_us[kRetrieve]).p50 / ret.p50 - 1;

    OBJREP_RETURN_NOT_OK(ProbeStorageLayers(
        db.get(), ChildrenOf(*db, table.queries, 20000), kWorkers, args.seed,
        report));
    OBJREP_RETURN_NOT_OK(
        ProbeServedLayers(db.get(), table, &service, port, report));
    Trace::SetEnabled(false);
  }

  // Every served answer was checked as it arrived; re-check a sample on
  // the quiesced store after the load.
  for (size_t i = 0; i < 500; ++i) {
    if (table.kinds[i] == kUpdate) continue;
    net::Response r = service.Execute(table.reqs[i]);
    if (r.status != net::RespStatus::kOk ||
        !AnswerCheck::Matches(table.reqs[i], expected[i], r.values)) {
      Fail(report, "quiesced store answer changed after the load");
      break;
    }
  }
  if (check.wrong() != 0) {
    Fail(report, std::to_string(check.wrong()) + " of " +
                     std::to_string(check.checked()) +
                     " served answers were wrong");
  }
  server->Stop();
  report->values["peak_rss_mb"] = PeakRssMb();
  return Status::OK();
}

}  // namespace perfbench
}  // namespace objrep
