// Network front-end bench: graceful degradation under overload and chaos.
//
// Three phases against one server (loopback TCP, framed protocol):
//
//   1. Sustainable rate: closed-loop writer clients measure the commit
//      throughput the server can actually sustain. The writer carries an
//      injected 20 ms per-group delay (the `engine.concurrent.write.delay`
//      failpoint) standing in for a slow disk, so the measured rate is
//      deterministic and small enough to overdrive from one machine.
//
//   2. Overload: open-loop clients drive writes at 2x that rate with
//      client retries disabled. The server must shed the excess with
//      kRetryAfter + a backoff hint instead of queueing unboundedly —
//      reported as accepted/shed/expired counts and client-observed
//      latency quantiles, which stay bounded because the queue is.
//
//   3. Chaos: the docs/NETWORKING.md fault matrix (latency, drops, frame
//      corruption) over a mixed workload. Exit code is nonzero if any
//      client hangs, any read returns wrong data, or any torn frame goes
//      undetected — the bench doubles as an integrity gate.
//
// Before them, a wire-frame phase runs a fixed query workload over one
// session and reports bytes, wall time and process CPU per query.
//
// Knobs: CDBS_BENCH_MS (per-phase duration, default 400 ms),
// CDBS_FRAME_QUERIES (queries per session in the wire-frame phase, default
// 2000). Set CDBS_BENCH_JSON to persist the metric registry.

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/concurrent_db.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace {

using cdbs::Result;
using cdbs::Status;
using cdbs::StatusCode;
using cdbs::engine::ConcurrentXmlDb;
using cdbs::engine::ConcurrentXmlDbOptions;
using cdbs::engine::NodeId;
using cdbs::net::CdbsClient;
using cdbs::net::ClientOptions;
using cdbs::net::Server;
using cdbs::net::ServerOptions;

constexpr char kDoc[] = "<root><a><b/><b/></a><c><b/></c></root>";

uint64_t GlobalCounter(const std::string& name) {
  for (const cdbs::obs::MetricSnapshot& m :
       cdbs::obs::MetricRegistry::Default().Snapshot()) {
    if (m.name == name) return m.counter_value;
  }
  return 0;
}

ClientOptions MakeClientOptions(uint16_t port, int max_attempts,
                                uint64_t seed) {
  ClientOptions o;
  o.port = port;
  o.max_attempts = max_attempts;
  o.base_backoff_ms = 1;
  o.max_backoff_ms = 50;
  o.jitter_seed = seed;
  return o;
}

/// Phase 1: closed-loop insert throughput = the sustainable write rate.
double MeasureSustainableRate(uint16_t port, NodeId hot,
                              uint64_t duration_ms) {
  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client =
          CdbsClient::Connect(MakeClientOptions(port, /*max_attempts=*/8,
                                                100 + t));
      if (!client.ok()) return;
      while (!stop.load(std::memory_order_relaxed)) {
        if ((*client)
                ->InsertAfter(hot, "n", cdbs::util::Deadline::AfterMillis(2000))
                .ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  cdbs::util::Stopwatch timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  for (auto& t : threads) t.join();
  return committed.load() / timer.ElapsedSeconds();
}

struct OverloadResult {
  uint64_t offered = 0;
  uint64_t accepted = 0;
  uint64_t shed = 0;
  uint64_t expired = 0;
  uint64_t other_failures = 0;
  double seconds = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
};

/// Phase 2: open-loop drive at `rate_per_s`, retries off. Every response
/// is immediate: success, or a shed/expired verdict — never an unbounded
/// queue wait.
OverloadResult DriveOpenLoop(uint16_t port, NodeId hot, double rate_per_s,
                             uint64_t duration_ms) {
  // Enough client threads that the ones blocked on an accepted (queued)
  // write cannot drag the offered rate down to the commit rate: the worst
  // accepted-request latency is queue_capacity * commit_delay ~ 320 ms, so
  // 32 threads sustain ~100/s offered even with 16 of them waiting.
  constexpr int kThreads = 32;
  OverloadResult out;
  std::atomic<uint64_t> offered{0}, accepted{0}, shed{0}, expired{0},
      other{0};
  cdbs::obs::MetricRegistry latencies;  // phase-local histogram
  cdbs::obs::Histogram* lat = latencies.GetHistogram(
      "bench.net.overload.ns", "Client-observed request latency");
  const auto interval = std::chrono::nanoseconds(
      static_cast<uint64_t>(kThreads * 1e9 / rate_per_s));
  std::vector<std::thread> threads;
  cdbs::util::Stopwatch timer;
  const auto t_end = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(duration_ms);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = CdbsClient::Connect(
          MakeClientOptions(port, /*max_attempts=*/1, 200 + t));
      if (!client.ok()) return;
      auto next = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() < t_end) {
        std::this_thread::sleep_until(next);
        next += interval;
        offered.fetch_add(1, std::memory_order_relaxed);
        cdbs::util::Stopwatch rt;
        const Result<uint64_t> r = (*client)->InsertAfter(
            hot, "n", cdbs::util::Deadline::AfterMillis(1000));
        lat->Record(static_cast<uint64_t>(rt.ElapsedNanos()));
        if (r.ok()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status().code() == StatusCode::kRetryAfter) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
          expired.fetch_add(1, std::memory_order_relaxed);
        } else {
          other.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  out.seconds = timer.ElapsedSeconds();
  out.offered = offered.load();
  out.accepted = accepted.load();
  out.shed = shed.load();
  out.expired = expired.load();
  out.other_failures = other.load();
  for (const cdbs::obs::MetricSnapshot& m : latencies.Snapshot()) {
    if (m.name == "bench.net.overload.ns") {
      out.p50_ns = m.p50;
      out.p99_ns = m.p99;
    }
  }
  return out;
}

struct ChaosResult {
  uint64_t ok_ops = 0;
  uint64_t expected_failures = 0;
  uint64_t client_retries = 0;
  uint64_t wrong_reads = 0;
  uint64_t unexpected_failures = 0;
};

/// Phase 3: the chaos profile over a mixed read/write workload.
ChaosResult RunChaos(uint16_t port, NodeId hot,
                     const std::vector<uint64_t>& golden_b,
                     uint64_t duration_ms) {
  constexpr int kThreads = 4;
  ChaosResult out;
  std::atomic<uint64_t> ok{0}, failures{0}, retries{0}, wrong{0},
      unexpected{0};
  const auto t_end = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(duration_ms);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = CdbsClient::Connect(
          MakeClientOptions(port, /*max_attempts=*/4, 300 + t));
      if (!client.ok()) return;
      int i = 0;
      while (std::chrono::steady_clock::now() < t_end) {
        const auto deadline = cdbs::util::Deadline::AfterMillis(2000);
        Status st = Status::OK();
        if (i++ % 3 == 0) {
          const Result<uint64_t> r = (*client)->InsertAfter(hot, "n",
                                                            deadline);
          if (!r.ok()) st = r.status();
        } else {
          Result<std::vector<uint64_t>> r = (*client)->Query("//b", deadline);
          if (r.ok()) {
            bool match = r->size() == golden_b.size();
            for (size_t j = 0; match && j < r->size(); ++j) {
              match = (*r)[j] == golden_b[j];
            }
            if (!match) wrong.fetch_add(1);
          } else {
            st = r.status();
          }
        }
        if (st.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        failures.fetch_add(1, std::memory_order_relaxed);
        switch (st.code()) {
          case StatusCode::kIoError:
          case StatusCode::kCorruption:
          case StatusCode::kDeadlineExceeded:
          case StatusCode::kRetryAfter:
          case StatusCode::kInternal:
            break;
          default:
            unexpected.fetch_add(1);
            std::fprintf(stderr, "unexpected chaos status: %s\n",
                         st.ToString().c_str());
        }
      }
      // Every recovered tear/drop shows up here: the CRC (or the broken
      // stream) was detected and the op re-sent, never trusted blindly.
      retries.fetch_add((*client)->retries(), std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  out.ok_ops = ok.load();
  out.expected_failures = failures.load();
  out.client_retries = retries.load();
  out.wrong_reads = wrong.load();
  out.unexpected_failures = unexpected.load();
  return out;
}

}  // namespace

int main() {
  cdbs::bench::ConfigureTracerFromEnv();
  const uint64_t duration_ms = cdbs::bench::EnvKnob("CDBS_BENCH_MS", 400);

  ConcurrentXmlDbOptions db_options;
  db_options.write_queue_capacity = 16;
  // One commit per group: the closed-loop rate in phase 1 then equals the
  // server's true capacity (1 commit / 20 ms), so "2x sustainable" in
  // phase 2 genuinely overdrives it.
  db_options.group_commit_limit = 1;
  // A plain primary: kDoc as a one-shard, one-document corpus.
  auto corpus = cdbs::bench::OpenOneDocCorpus(kDoc, db_options);
  if (!corpus.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }
  ConcurrentXmlDb* db = (*corpus)->shard(0);
  ServerOptions server_options;
  auto server = Server::StartSharded(corpus->get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  const uint16_t port = (*server)->port();
  const NodeId hot = db->Query("//b").value()[0];
  const std::vector<NodeId> golden_raw = db->Query("//b").value();
  std::vector<uint64_t> golden_b(golden_raw.begin(), golden_raw.end());
  cdbs::obs::MetricRegistry& reg = cdbs::obs::MetricRegistry::Default();

  // Wire-frame phase (docs/NETWORKING.md): one session runs the same
  // query over and over; the delta of the process-wide net.frame.tx.bytes
  // counter is exactly the bytes that hit the wire (each frame counts once
  // at its sender). Client and server share this process, so its CPU time
  // covers both ends of each frame.
  cdbs::bench::Heading("Wire frames");
  {
    // Grow the //n result set so each response carries 200 node ids.
    auto session = CdbsClient::Connect(MakeClientOptions(port, 8, 17));
    if (!session.ok()) return 1;
    for (int i = 0; i < 200; ++i) {
      if (!(*session)->InsertAfter(hot, "n").ok()) return 1;
    }
    const uint64_t n = cdbs::bench::EnvKnob("CDBS_FRAME_QUERIES", 2000);
    const double queries = static_cast<double>(n);
    const uint64_t tx0 = GlobalCounter("net.frame.tx.bytes");
    const double cpu0 = cdbs::bench::ProcessCpuMicros();
    cdbs::util::Stopwatch timer;
    for (uint64_t i = 0; i < n; ++i) {
      if (!(*session)->Query("//n").ok()) return 1;
    }
    const double ms_per_op = timer.ElapsedMillis() / queries;
    const double cpu_us_per_op =
        (cdbs::bench::ProcessCpuMicros() - cpu0) / queries;
    const double tx_per_op =
        static_cast<double>(GlobalCounter("net.frame.tx.bytes") - tx0) /
        queries;
    std::printf(
        "  query bytes/op (req+resp)  %.0f B (%.3f ms)\n"
        "  process CPU/query          %.1f us\n",
        tx_per_op, ms_per_op, cpu_us_per_op);
    reg.GetGauge("bench.net.frame_cpu_us",
                 "Process CPU microseconds per wire-frame query")
        ->Set(cpu_us_per_op);
  }

  // A 20 ms injected commit delay stands in for a slow disk: it pins the
  // sustainable rate low enough to overdrive deterministically.
  if (!cdbs::util::Failpoints::Activate("engine.concurrent.write.delay",
                                        "delay=20")
           .ok()) {
    return 1;
  }

  cdbs::bench::Heading("Network front-end: sustainable write rate");
  std::printf("  phase duration: %" PRIu64
              " ms; queue capacity 16, group limit 1, +20ms/commit delay\n",
              duration_ms);
  const double sustainable = MeasureSustainableRate(port, hot, duration_ms);
  std::printf("  closed-loop commit rate: %.0f inserts/s\n", sustainable);
  reg.GetGauge("bench.net.sustainable_per_s",
               "Closed-loop commit throughput through the server")
      ->Set(sustainable);
  if (sustainable <= 0) {
    std::fprintf(stderr, "no write committed in the measuring phase\n");
    return 1;
  }

  cdbs::bench::Heading("Overload: open-loop drive at 2x sustainable");
  const OverloadResult over =
      DriveOpenLoop(port, hot, 2 * sustainable, duration_ms);
  std::printf(
      "  offered %.0f/s (%" PRIu64 " reqs): accepted %" PRIu64
      ", shed(retry-after) %" PRIu64 ", expired %" PRIu64 ", other %" PRIu64
      "\n"
      "  client-observed latency: p50 %.1f ms, p99 %.1f ms (bounded by the "
      "queue, not the backlog)\n",
      over.offered / over.seconds, over.offered, over.accepted, over.shed,
      over.expired, over.other_failures, over.p50_ns / 1e6,
      over.p99_ns / 1e6);
  reg.GetGauge("bench.net.overload.offered_per_s", "Open-loop offered rate")
      ->Set(over.offered / over.seconds);
  reg.GetGauge("bench.net.overload.accepted_per_s",
               "Commits under 2x overload")
      ->Set(over.accepted / over.seconds);
  reg.GetGauge("bench.net.overload.shed",
               "Requests shed with retry-after under 2x overload")
      ->Set(static_cast<double>(over.shed));
  reg.GetGauge("bench.net.overload.p99_ms",
               "Client-observed p99 latency under 2x overload")
      ->Set(over.p99_ns / 1e6);
  if (over.shed + over.expired == 0) {
    std::printf(
        "  note: nothing shed — the server absorbed the drive rate "
        "(machine faster than the pacing)\n");
  }
  if (over.other_failures > 0) {
    std::fprintf(stderr, "unexpected failures under overload\n");
    return 1;
  }

  cdbs::bench::Heading("Chaos: latency + drops + frame corruption");
  cdbs::util::Failpoints::Deactivate("engine.concurrent.write.delay");
  if (!cdbs::util::Failpoints::ActivateFromList(
           "net.conn.delay=delay=5:prob=0.05;"
           "net.conn.drop=prob=0.02;"
           "net.frame.corrupt=prob=0.02")
           .ok()) {
    return 1;
  }
  const ChaosResult chaos = RunChaos(port, hot, golden_b, duration_ms);
  for (const std::string& site : cdbs::util::Failpoints::ActiveSites()) {
    cdbs::util::Failpoints::Deactivate(site);
  }
  std::printf("  ok ops: %" PRIu64 ", expected failures: %" PRIu64
              ", retries recovering tears/drops: %" PRIu64 "\n"
              "  wrong reads: %" PRIu64 " (must be 0), unexpected statuses: "
              "%" PRIu64 " (must be 0)\n",
              chaos.ok_ops, chaos.expected_failures, chaos.client_retries,
              chaos.wrong_reads, chaos.unexpected_failures);
  reg.GetGauge("bench.net.chaos.ok_ops", "Operations succeeding under chaos")
      ->Set(static_cast<double>(chaos.ok_ops));
  reg.GetGauge("bench.net.chaos.wrong_reads",
               "Reads returning wrong data under chaos (must be 0)")
      ->Set(static_cast<double>(chaos.wrong_reads));

  (*server)->Shutdown();
  (*corpus)->Shutdown();
  // With CDBS_TRACE_SAMPLE set, every server-side request above ran under
  // a trace envelope: print where the time went and export the retained
  // traces (CDBS_TRACE_JSON) for chrome://tracing.
  cdbs::bench::PrintStageBreakdown();
  cdbs::bench::DumpTraces();
  cdbs::bench::DumpMetrics("net");
  if (chaos.wrong_reads != 0 || chaos.unexpected_failures != 0) return 1;
  return 0;
}
