#include "open_loop.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "exec/concurrent_runner.h"
#include "net/frame.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "util/random.h"

namespace objrep {
namespace perfbench {

using net::Request;
using net::RespStatus;
using net::Response;
using Clock = std::chrono::steady_clock;

namespace {

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

class SocketTransport : public Transport {
 public:
  explicit SocketTransport(int fd) : fd_(fd) {}
  ~SocketTransport() override { ::close(fd_); }
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  Status Send(const Request& req, uint64_t trace_id) override {
    const std::string frame =
        net::EncodeFrame(net::EncodeRequest(req), trace_id);
    size_t off = 0;
    while (off < frame.size()) {
      ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                         MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IOError("send failed");
      off += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Receive(Response* resp) override {
    for (;;) {
      std::string payload;
      bool ready = false;
      Status s = decoder_.Next(&payload, &ready);
      if (!s.ok()) return s;
      if (ready) return net::DecodeResponse(payload, resp);
      char buf[16384];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IOError("connection closed");
      decoder_.Feed(buf, static_cast<size_t>(n));
    }
  }

  void Shutdown() override { ::shutdown(fd_, SHUT_RDWR); }

 private:
  const int fd_;
  net::FrameDecoder decoder_;  // receiver thread only
};

/// Single-server FIFO stand-in for the object server: every request takes
/// `service` to answer, and the sender stalls for `stall` when it sends
/// request `stall_id` (a blocked socket write, as the generator sees it).
class StubTransport : public Transport {
 public:
  StubTransport(uint64_t stall_id, Clock::duration stall,
                Clock::duration service)
      : stall_id_(stall_id), stall_(stall), service_(service) {}

  Status Send(const Request& req, uint64_t /*trace_id*/) override {
    if (req.id == stall_id_) std::this_thread::sleep_for(stall_);
    std::lock_guard<std::mutex> l(mu_);
    free_at_ = std::max(Clock::now(), free_at_) + service_;
    queue_.push_back({free_at_, req.id});
    cv_.notify_all();
    return Status::OK();
  }

  Status Receive(Response* resp) override {
    std::unique_lock<std::mutex> l(mu_);
    for (;;) {
      if (shutdown_) return Status::IOError("stub shut down");
      if (queue_.empty()) {
        cv_.wait(l);
        continue;
      }
      const Pending head = queue_.front();
      if (Clock::now() < head.ready) {
        cv_.wait_until(l, head.ready);
        continue;
      }
      queue_.pop_front();
      *resp = Response{};
      resp->status = RespStatus::kOk;
      resp->verb = net::Verb::kRetrieve;
      resp->id = head.id;
      return Status::OK();
    }
  }

  void Shutdown() override {
    std::lock_guard<std::mutex> l(mu_);
    shutdown_ = true;
    cv_.notify_all();
  }

 private:
  struct Pending {
    Clock::time_point ready;
    uint64_t id;
  };
  const uint64_t stall_id_;
  const Clock::duration stall_;
  const Clock::duration service_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;        // guarded by mu_
  Clock::time_point free_at_{};      // guarded by mu_
  bool shutdown_ = false;            // guarded by mu_
};

constexpr uint8_t kPending = 0xFF;

}  // namespace

LatencyStats Summarize(std::vector<double> samples) {
  const LatencySummary s = SummarizeLatencies(&samples);  // sorts samples
  LatencyStats out;
  out.n = s.count;
  out.p50 = s.p50_us;
  out.p95 = s.p95_us;
  out.p99 = s.p99_us;
  // Nearest rank leaves floor(n / 100) samples beyond the 99th percentile.
  out.p99_supported = s.count >= 1000;
  if (s.count > 10) {
    const size_t r = s.count - 10;
    out.tail_pct =
        100.0 * static_cast<double>(r) / static_cast<double>(s.count);
    out.tail = samples[r - 1];
  }
  return out;
}

std::unique_ptr<Transport> ConnectLoopback(uint16_t port, Status* status) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *status = Status::IOError("socket failed");
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    *status = Status::IOError("connect failed");
    return nullptr;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  *status = Status::OK();
  return std::make_unique<SocketTransport>(fd);
}

Status RunPhase(const std::vector<Transport*>& conns,
                const std::vector<Request>& table,
                const std::vector<uint8_t>& kinds, const PhaseSpec& spec,
                const ResponseCheck& check, PhaseResult* out) {
  *out = PhaseResult{};
  if (conns.empty() || table.empty() || kinds.size() != table.size() ||
      spec.rate <= 0) {
    return Status::InvalidArgument("RunPhase: bad arguments");
  }

  // Poisson schedule: exponential gaps at `rate`; the table is walked in
  // order from a random entry, so every window sees the table's mix.
  Rng rng(spec.seed);
  std::vector<double> at_s;
  std::vector<uint32_t> item;
  const uint64_t start = rng.Uniform(table.size());
  for (double t = 0;;) {
    const double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / spec.rate;
    if (t >= spec.seconds) break;
    item.push_back(
        static_cast<uint32_t>((start + at_s.size()) % table.size()));
    at_s.push_back(t);
  }
  const size_t n = at_s.size();
  const size_t num_conns = conns.size();
  const bool tracing = Trace::enabled();

  std::vector<uint64_t> trace_ids(n, 0);
  if (tracing) {
    for (uint64_t& id : trace_ids) id = TraceIdGen::Next();
  }
  std::vector<double> late_us(n, 0);
  std::vector<Clock::time_point> done(n);
  std::vector<uint8_t> status(n, kPending);
  std::atomic<bool> protocol_error{false};
  std::atomic<size_t> receivers_left{num_conns};

  const Clock::time_point now = Clock::now();
  const Clock::time_point t0 = now + std::chrono::milliseconds(2);
  const uint64_t t0_trace_us = Trace::NowMicros() + 2000;
  auto intended = [&](size_t k) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(at_s[k]));
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < num_conns; ++c) {
    threads.emplace_back([&, c] {
      for (size_t k = c; k < n; k += num_conns) {
        const Clock::time_point due = intended(k);
        std::this_thread::sleep_until(due);
        Request req = table[item[k]];
        req.id = k + 1;
        late_us[k] = std::max(0.0, MicrosBetween(due, Clock::now()));
        if (!conns[c]->Send(req, trace_ids[k]).ok()) return;
      }
    });
    threads.emplace_back([&, c] {
      size_t expected = n > c ? (n - c + num_conns - 1) / num_conns : 0;
      for (size_t got = 0; got < expected; ++got) {
        Response resp;
        if (!conns[c]->Receive(&resp).ok()) break;
        const Clock::time_point t = Clock::now();
        const size_t k = static_cast<size_t>(resp.id - 1);
        if (resp.id == 0 || k >= n || k % num_conns != c ||
            status[k] != kPending) {
          protocol_error.store(true);
          break;
        }
        status[k] = static_cast<uint8_t>(resp.status);
        done[k] = t;
        if (resp.status == RespStatus::kOk) check(item[k], resp);
        if (tracing) {
          ScopedTraceId scope(trace_ids[k]);
          Trace::Complete(
              "bench_request", "bench",
              t0_trace_us + static_cast<uint64_t>(at_s[k] * 1e6),
              static_cast<uint64_t>(MicrosBetween(intended(k), t)), "kind",
              kinds[item[k]]);
        }
      }
      receivers_left.fetch_sub(1);
    });
  }
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(spec.seconds +
                                             spec.drain_seconds));
  while (receivers_left.load() > 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (Transport* t : conns) t->Shutdown();
  for (std::thread& t : threads) t.join();
  if (protocol_error.load()) {
    return Status::Corruption("response id does not match a request");
  }

  out->sent = n;
  out->late_us = std::move(late_us);
  std::vector<double> tail_window;
  Clock::time_point last = t0;
  for (size_t k = 0; k < n; ++k) {
    if (status[k] != static_cast<uint8_t>(RespStatus::kOk)) {
      ++out->failed;
      if (status[k] == static_cast<uint8_t>(RespStatus::kServerBusy)) {
        ++out->busy;
      }
      continue;
    }
    ++out->ok;
    const double us = MicrosBetween(intended(k), done[k]);
    out->latency_us[kinds[item[k]]].push_back(us);
    if (k * 10 >= n * 9) tail_window.push_back(us);
    last = std::max(last, done[k]);
  }
  out->tail_window_p50_us = Summarize(std::move(tail_window)).p50;
  out->elapsed_s = std::chrono::duration<double>(last - t0).count();
  return Status::OK();
}

Status RunClosedPhase(Transport* conn, const std::vector<Request>& table,
                      const std::vector<uint8_t>& kinds, uint32_t depth,
                      const PhaseSpec& spec, const ResponseCheck& check,
                      PhaseResult* out) {
  *out = PhaseResult{};
  if (table.empty() || kinds.size() != table.size() || depth == 0) {
    return Status::InvalidArgument("RunClosedPhase: bad arguments");
  }
  Rng rng(spec.seed);
  const uint64_t start = rng.Uniform(table.size());
  std::vector<Clock::time_point> sent_at;
  std::vector<uint32_t> item;
  auto send_next = [&]() {
    const size_t k = sent_at.size();
    item.push_back(static_cast<uint32_t>((start + k) % table.size()));
    Request req = table[item.back()];
    req.id = k + 1;
    sent_at.push_back(Clock::now());
    return conn->Send(req, 0);
  };
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(spec.seconds));
  for (uint32_t i = 0; i < depth; ++i) OBJREP_RETURN_NOT_OK(send_next());
  std::vector<double> all_us;
  Clock::time_point last = t0;
  for (size_t in_flight = depth; in_flight > 0; --in_flight) {
    Response resp;
    OBJREP_RETURN_NOT_OK(conn->Receive(&resp));
    last = Clock::now();
    const size_t k = static_cast<size_t>(resp.id - 1);
    if (resp.id == 0 || k >= sent_at.size()) {
      return Status::Corruption("response id does not match a request");
    }
    if (resp.status == RespStatus::kOk) {
      ++out->ok;
      check(item[k], resp);
      const double us = MicrosBetween(sent_at[k], last);
      out->latency_us[kinds[item[k]]].push_back(us);
      all_us.push_back(us);
    } else {
      ++out->failed;
      if (resp.status == RespStatus::kServerBusy) ++out->busy;
    }
    if (last < deadline) {
      OBJREP_RETURN_NOT_OK(send_next());
      ++in_flight;
    }
  }
  out->sent = sent_at.size();
  all_us.erase(all_us.begin(), all_us.begin() + all_us.size() * 9 / 10);
  out->tail_window_p50_us = Summarize(std::move(all_us)).p50;
  out->elapsed_s = std::chrono::duration<double>(last - t0).count();
  return Status::OK();
}

Status GeneratorSelfTest() {
  // The percentile helper on known data: 1..2000 and 1..500.
  std::vector<double> known;
  for (int i = 1; i <= 2000; ++i) known.push_back(i);
  LatencyStats k = Summarize(known);
  if (k.n != 2000 || k.p50 != 1000 || k.p99 != 1980 || !k.p99_supported ||
      k.tail_pct != 99.5 || k.tail != 1990) {
    return Status::Corruption("Summarize is wrong on 1..2000");
  }
  known.resize(500);
  k = Summarize(known);
  if (k.p99_supported || k.tail_pct != 98.0 || k.tail != 490) {
    return Status::Corruption("Summarize is wrong on 1..500");
  }

  // 2000 req/s for 0.5 s; the sender stalls 40 ms on request 200. Every
  // request due during the stall must be charged the rest of the stall,
  // and the sender must report itself that late.
  constexpr double kRate = 2000;
  constexpr double kStallUs = 40000;
  StubTransport stub(200, std::chrono::microseconds(40000),
                     std::chrono::microseconds(20));
  std::vector<Request> table(1);
  table[0].verb = net::Verb::kRetrieve;
  const std::vector<uint8_t> kinds = {kRetrieve};
  PhaseSpec spec;
  spec.rate = kRate;
  spec.seconds = 0.5;
  spec.seed = 1;
  spec.drain_seconds = 1;
  PhaseResult r;
  OBJREP_RETURN_NOT_OK(RunPhase({&stub}, table, kinds, spec,
                                [](uint32_t, const Response&) {}, &r));
  if (r.failed != 0 || r.ok != r.sent || r.sent < 800) {
    return Status::Corruption("stub phase lost requests");
  }
  const std::vector<double>& lat = r.latency_us[kRetrieve];
  const double max_lat = *std::max_element(lat.begin(), lat.end());
  const auto delayed = std::count_if(lat.begin(), lat.end(), [](double us) {
    return us >= kStallUs / 2;
  });
  const double max_late = *std::max_element(r.late_us.begin(),
                                            r.late_us.end());
  const auto late_count =
      std::count_if(r.late_us.begin(), r.late_us.end(),
                    [](double us) { return us >= kStallUs / 2; });
  // Requests due in the first half of the stall: kRate * 20 ms = 40
  // expected; demand half of that to stay clear of Poisson noise.
  const double min_delayed = 0.5 * kRate * (kStallUs / 2) / 1e6;
  if (max_lat < 0.9 * kStallUs || static_cast<double>(delayed) < min_delayed) {
    return Status::Corruption(
        "latency is not measured from the intended send time");
  }
  if (max_late < 0.9 * kStallUs ||
      static_cast<double>(late_count) < min_delayed) {
    return Status::Corruption("sender lateness is not reported");
  }
  if (Summarize(lat).p50 > kStallUs / 4) {
    return Status::Corruption("unstalled requests are charged the stall");
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace objrep
