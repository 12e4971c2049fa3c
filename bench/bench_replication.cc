// Replication bench: what follower reads buy, and what replication lag
// costs under pressure (docs/REPLICATION.md).
//
// Two phases over one primary with two streaming followers (loopback TCP):
//
//   1. Follower reads: closed-loop Query throughput with every client on
//      the primary, then the same client count spread across primary +
//      both follower replica servers. Logical replication keeps the
//      replicas bit-identical, so the spread answers must be the same; that
//      agreement is all this phase checks. All three servers share this
//      one process and host, so the measured throughput ratio (printed as
//      it is, often below 1x) says nothing about how reads would scale
//      over separate machines.
//
//   2. Lag under 2x overdrive: a 20 ms injected commit delay pins the
//      sustainable write rate; open-loop writers then drive 2x that. The
//      admission controller sheds the excess, so the replication stream
//      only ever sees the committed rate — repl.lag.* must stay bounded
//      during the burst and return to zero once the drive stops. Unbounded
//      lag growth here would mean followers fall behind the *accepted*
//      load, which no amount of shedding can excuse.
//
// Knobs: CDBS_BENCH_MS (per-phase duration, default 400 ms). Set
// CDBS_BENCH_JSON to persist the metric registry.

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "engine/concurrent_db.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "repl/follower.h"
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
using cdbs::engine::WriteOp;
using cdbs::net::CdbsClient;
using cdbs::net::ClientOptions;
using cdbs::net::Server;
using cdbs::net::ServerOptions;
using cdbs::repl::Follower;
using cdbs::repl::FollowerOptions;

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

bool WaitConverged(const std::vector<Follower*>& followers,
                   ConcurrentXmlDb* primary, int timeout_ms) {
  const cdbs::util::Deadline d =
      cdbs::util::Deadline::AfterMillis(timeout_ms);
  for (;;) {
    bool all = true;
    for (Follower* f : followers) {
      all = all && f->state() == Follower::State::kStreaming &&
            f->applied_lsn() == primary->commit_lsn();
    }
    if (all) return true;
    if (d.expired()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Closed-loop read throughput with `threads` clients round-robined over
/// `ports`. Every successful query is also an integrity check against the
/// golden ids — a replica answering with different node ids is a bug, not
/// a slow read.
double MeasureReadRate(const std::vector<uint16_t>& ports, int threads,
                       const std::vector<uint64_t>& golden_b,
                       uint64_t duration_ms, uint64_t* wrong_reads) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto client = CdbsClient::Connect(MakeClientOptions(
          ports[static_cast<size_t>(t) % ports.size()], /*max_attempts=*/4,
          400 + static_cast<uint64_t>(t)));
      if (!client.ok()) return;
      while (!stop.load(std::memory_order_relaxed)) {
        Result<std::vector<uint64_t>> r = (*client)->Query(
            "//b", cdbs::util::Deadline::AfterMillis(2000));
        if (!r.ok()) continue;
        bool match = r->size() == golden_b.size();
        for (size_t j = 0; match && j < r->size(); ++j) {
          match = (*r)[j] == golden_b[j];
        }
        if (match) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  cdbs::util::Stopwatch timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  for (auto& w : workers) w.join();
  *wrong_reads += wrong.load();
  return ok.load() / timer.ElapsedSeconds();
}

/// Closed-loop insert throughput = the sustainable write rate.
double MeasureSustainableRate(uint16_t port, NodeId hot,
                              uint64_t duration_ms) {
  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = CdbsClient::Connect(
          MakeClientOptions(port, /*max_attempts=*/8,
                            500 + static_cast<uint64_t>(t)));
      if (!client.ok()) return;
      while (!stop.load(std::memory_order_relaxed)) {
        if ((*client)
                ->InsertAfter(hot, "n",
                              cdbs::util::Deadline::AfterMillis(2000))
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

struct OverdriveResult {
  uint64_t offered = 0;
  uint64_t accepted = 0;
  uint64_t shed_or_expired = 0;
  uint64_t other_failures = 0;
  double max_lag_records = 0;
  double max_lag_ms = 0;
  double seconds = 0;
};

/// Open-loop write drive at `rate_per_s` with retries off, while a sampler
/// tracks the peak of the primary's repl.lag.* gauges (in `primary`, the
/// primary engine's registry).
OverdriveResult DriveAndSampleLag(uint16_t port, NodeId hot,
                                  double rate_per_s, uint64_t duration_ms,
                                  cdbs::obs::MetricRegistry& primary) {
  constexpr int kThreads = 32;
  OverdriveResult out;
  std::atomic<uint64_t> offered{0}, accepted{0}, shed{0}, other{0};
  std::atomic<bool> stop_sampler{false};
  cdbs::obs::Gauge* lag_records = primary.GetGauge("repl.lag.records", "");
  cdbs::obs::Gauge* lag_ms = primary.GetGauge("repl.lag.ms", "");
  std::thread sampler([&] {
    while (!stop_sampler.load(std::memory_order_relaxed)) {
      out.max_lag_records = std::max(out.max_lag_records,
                                     lag_records->value());
      out.max_lag_ms = std::max(out.max_lag_ms, lag_ms->value());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  const auto interval = std::chrono::nanoseconds(
      static_cast<uint64_t>(kThreads * 1e9 / rate_per_s));
  const auto t_end = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(duration_ms);
  cdbs::util::Stopwatch timer;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = CdbsClient::Connect(
          MakeClientOptions(port, /*max_attempts=*/1,
                            600 + static_cast<uint64_t>(t)));
      if (!client.ok()) return;
      auto next = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() < t_end) {
        std::this_thread::sleep_until(next);
        next += interval;
        offered.fetch_add(1, std::memory_order_relaxed);
        const Result<uint64_t> r = (*client)->InsertAfter(
            hot, "n", cdbs::util::Deadline::AfterMillis(1000));
        if (r.ok()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status().code() == StatusCode::kRetryAfter ||
                   r.status().code() == StatusCode::kDeadlineExceeded) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          other.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  stop_sampler.store(true);
  sampler.join();
  out.seconds = timer.ElapsedSeconds();
  out.offered = offered.load();
  out.accepted = accepted.load();
  out.shed_or_expired = shed.load();
  out.other_failures = other.load();
  return out;
}

}  // namespace

int main() {
  cdbs::bench::ConfigureTracerFromEnv();
  const uint64_t duration_ms = cdbs::bench::EnvKnob("CDBS_BENCH_MS", 400);
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("cdbs_bench_repl_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);

  ConcurrentXmlDbOptions db_options;
  db_options.write_queue_capacity = 16;
  db_options.group_commit_limit = 1;
  // A plain primary: kDoc as a one-shard, one-document corpus, stored so
  // its log can feed followers.
  auto corpus =
      cdbs::bench::OpenOneDocCorpus(kDoc, db_options, dir + "/primary");
  if (!corpus.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }
  ConcurrentXmlDb* db = (*corpus)->shard(0);
  ServerOptions server_options;
  server_options.repl.heartbeat_ms = 20;
  auto server = Server::StartSharded(corpus->get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  const uint16_t primary_port = (*server)->port();

  // Two streaming followers, each behind its own replica server.
  std::vector<std::unique_ptr<Follower>> followers;
  std::vector<std::unique_ptr<Server>> replica_servers;
  std::vector<Follower*> raw_followers;
  std::vector<uint16_t> all_ports = {primary_port};
  for (int i = 0; i < 2; ++i) {
    FollowerOptions fo;
    fo.primary_port = primary_port;
    fo.db.db.storage_path = dir + "/replica" + std::to_string(i) + ".cdbs";
    fo.reconnect_backoff_ms = 20;
    followers.push_back(Follower::Start(std::move(fo)));
    raw_followers.push_back(followers.back().get());
    auto rs = Server::StartReplica(followers.back().get(), {});
    if (!rs.ok()) {
      std::fprintf(stderr, "replica server failed: %s\n",
                   rs.status().ToString().c_str());
      return 1;
    }
    replica_servers.push_back(std::move(*rs));
    all_ports.push_back(replica_servers.back()->port());
  }

  // Seed a write mix and let both followers converge on it.
  const NodeId hot = db->Query("//b").value()[0];
  for (int i = 0; i < 50; ++i) {
    if (!db->Submit(WriteOp::InsertAfter(hot, "seed")).get().ok()) return 1;
  }
  if (!WaitConverged(raw_followers, db, 15000)) {
    std::fprintf(stderr, "followers never converged on the seed\n");
    return 1;
  }
  const std::vector<NodeId> golden_raw = db->Query("//b").value();
  const std::vector<uint64_t> golden_b(golden_raw.begin(), golden_raw.end());
  cdbs::obs::MetricRegistry& reg = cdbs::obs::MetricRegistry::Default();

  // Stream-bytes phase (docs/REPLICATION.md): the net.frame.tx.bytes
  // delta (each frame counted once at its sender) over a write burst is
  // the wire cost per replicated write, fan-out to both followers included.
  cdbs::bench::Heading("Replication: stream bytes per replicated write");
  {
    const uint64_t burst =
        cdbs::bench::EnvKnob("CDBS_REPL_STREAM_WRITES", 200);
    const uint64_t tx0 = GlobalCounter("net.frame.tx.bytes");
    for (uint64_t i = 0; i < burst; ++i) {
      if (!db->Submit(WriteOp::InsertAfter(hot, "r")).get().ok()) return 1;
    }
    if (!WaitConverged(raw_followers, db, 15000)) {
      std::fprintf(stderr, "followers never converged on the burst\n");
      return 1;
    }
    const double per_op =
        static_cast<double>(GlobalCounter("net.frame.tx.bytes") - tx0) /
        static_cast<double>(burst);
    std::printf("  stream bytes/write (2 followers)  %.0f B\n", per_op);
    reg.GetGauge("bench.repl.stream_bytes_per_write",
                 "Stream bytes per replicated write, both followers")
        ->Set(per_op);
  }

  cdbs::bench::Heading(
      "Replication: follower reads (one process and host; answers checked, "
      "throughput not)");
  constexpr int kReadThreads = 6;
  uint64_t wrong_reads = 0;
  const double single = MeasureReadRate({primary_port}, kReadThreads,
                                        golden_b, duration_ms, &wrong_reads);
  const double spread = MeasureReadRate(all_ports, kReadThreads, golden_b,
                                        duration_ms, &wrong_reads);
  std::printf(
      "  %d clients, primary only:            %.0f queries/s\n"
      "  %d clients over primary+2 followers: %.0f queries/s (%.2fx)\n"
      "  divergent replica answers: %" PRIu64 " (must be 0)\n",
      kReadThreads, single, kReadThreads, spread,
      single > 0 ? spread / single : 0.0, wrong_reads);
  reg.GetGauge("bench.repl.read_per_s.primary_only",
               "Closed-loop read throughput, primary only")
      ->Set(single);
  reg.GetGauge("bench.repl.read_per_s.cluster",
               "Closed-loop read throughput over primary + 2 followers")
      ->Set(spread);

  cdbs::bench::Heading("Replication: lag under 2x write overdrive");
  // The 20 ms injected commit delay pins the sustainable rate (as in
  // bench_net) so "2x" genuinely overdrives the admission controller.
  if (!cdbs::util::Failpoints::Activate("engine.concurrent.write.delay",
                                        "delay=20")
           .ok()) {
    return 1;
  }
  const double sustainable =
      MeasureSustainableRate(primary_port, hot, duration_ms);
  std::printf("  sustainable commit rate: %.0f inserts/s\n", sustainable);
  if (sustainable <= 0) {
    std::fprintf(stderr, "no write committed in the measuring phase\n");
    return 1;
  }
  const OverdriveResult over = DriveAndSampleLag(
      primary_port, hot, 2 * sustainable, duration_ms, db->registry());
  cdbs::util::Failpoints::Deactivate("engine.concurrent.write.delay");

  // The backlog the burst left behind must drain completely.
  const bool drained = WaitConverged(raw_followers, db, 15000);
  std::printf(
      "  offered %.0f/s: accepted %" PRIu64 ", shed %" PRIu64
      ", other %" PRIu64 "\n"
      "  peak lag during burst: %.0f records, %.0f ms\n"
      "  drained after burst: %s (both followers back at the commit LSN)\n",
      over.offered / over.seconds, over.accepted, over.shed_or_expired,
      over.other_failures, over.max_lag_records, over.max_lag_ms,
      drained ? "yes" : "NO");
  reg.GetGauge("bench.repl.overdrive.peak_lag_records",
               "Peak follower lag in records under 2x overdrive")
      ->Set(over.max_lag_records);
  reg.GetGauge("bench.repl.overdrive.peak_lag_ms",
               "Peak follower lag in ms under 2x overdrive")
      ->Set(over.max_lag_ms);

  for (auto& rs : replica_servers) rs->Shutdown();
  for (auto& f : followers) f->Stop();
  (*server)->Shutdown();
  (*corpus)->Shutdown();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  cdbs::bench::PrintStageBreakdown();
  cdbs::bench::DumpTraces();
  cdbs::bench::DumpMetrics("replication");
  if (!drained || over.other_failures > 0 || wrong_reads > 0) return 1;
  return 0;
}
