// Open-loop load generation against the object server, and the latency
// summary every timing of the benchmark goes through.
//
// An open loop sends each request at its scheduled (Poisson) time whether
// or not earlier ones have completed, so a stalled server builds a queue
// instead of silently receiving less load. Each request's latency runs
// from its *intended* send time, not from when the sender got round to
// it: a stall is charged to every request it delayed (coordinated-omission
// correction). How late the sender itself ran is reported separately.
#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/protocol.h"
#include "util/status.h"

namespace objrep {
namespace perfbench {

/// Median and tail of one sample set (microseconds).
struct LatencyStats {
  uint64_t n = 0;
  double p50 = 0;
  double p95 = 0;
  /// Nearest-rank 99th percentile (SummarizeLatencies); `p99_supported` is
  /// true when at least ten samples lie beyond it.
  double p99 = 0;
  bool p99_supported = false;
  /// Highest percentile with at least ten samples beyond it (0 when
  /// n <= 10), and its value.
  double tail_pct = 0;
  double tail = 0;
};

/// Summarizes `samples` (any order).
LatencyStats Summarize(std::vector<double> samples);

/// One connection's request/response stream. Send and Receive are each
/// called from a single thread (the sender and the receiver of that
/// connection); Shutdown may be called from any thread and unblocks
/// Receive.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual Status Send(const net::Request& req, uint64_t trace_id) = 0;
  virtual Status Receive(net::Response* resp) = 0;
  virtual void Shutdown() = 0;
};

/// Pipelined TCP connection speaking the server's frame protocol.
std::unique_ptr<Transport> ConnectLoopback(uint16_t port, Status* status);

/// Request kinds of the served mix; latencies are kept per kind.
enum RequestKind : uint8_t { kRetrieve = 0, kScan = 1, kUpdate = 2 };
inline constexpr int kNumKinds = 3;

struct PhaseSpec {
  double rate = 100;      ///< offered requests per second (Poisson)
  double seconds = 1;     ///< schedule length
  uint64_t seed = 1;      ///< arrival times and request choice
  double drain_seconds = 5;  ///< wait for stragglers after the last send
};

struct PhaseResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;      ///< non-OK response or no response in time
  uint64_t busy = 0;        ///< SERVER_BUSY responses (included in failed)
  /// Latency from intended send time to response, OK responses only.
  std::vector<double> latency_us[kNumKinds];
  std::vector<double> late_us;  ///< actual minus intended send time
  /// Median latency of the last tenth of the schedule (all kinds), the
  /// backlog check: it stays near the overall median unless a queue grows.
  double tail_window_p50_us = 0;
  double elapsed_s = 0;     ///< phase start to last response
};

/// Called on a receiver thread for every response: the request's index in
/// the table and the response itself.
using ResponseCheck =
    std::function<void(uint32_t item, const net::Response& resp)>;

/// Runs one open-loop phase over `conns` (request k goes to connection
/// k % conns.size()). Arrivals take consecutive entries of `table`
/// (wrapping) from a random start; `kinds[i]` is the kind of table[i].
/// Request ids are assigned here. When tracing is on, each request is
/// recorded as a "bench_request" span from its intended send time to its
/// response, under a trace id the frame carries to the server.
Status RunPhase(const std::vector<Transport*>& conns,
                const std::vector<net::Request>& table,
                const std::vector<uint8_t>& kinds, const PhaseSpec& spec,
                const ResponseCheck& check, PhaseResult* out);

/// Closed loop on one connection: keeps `depth` requests in flight for
/// `spec.seconds` (spec.rate is unused), taking table entries in order from
/// a random start; latency runs from send to response. Measures capacity:
/// the server never waits for work, so thread wake-ups, which dominate
/// open-loop latency on a shared machine, barely enter it.
Status RunClosedPhase(Transport* conn, const std::vector<net::Request>& table,
                      const std::vector<uint8_t>& kinds, uint32_t depth,
                      const PhaseSpec& spec, const ResponseCheck& check,
                      PhaseResult* out);

/// Drives RunPhase against an in-process stub whose sender stalls for a
/// known time, and checks the percentile helper on known data. Returns a
/// non-OK status describing the first failed expectation.
Status GeneratorSelfTest();

}  // namespace perfbench
}  // namespace objrep

#endif  // PERFBENCH_OPEN_LOOP_H_
