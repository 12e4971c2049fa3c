// Shard supervision bench: blast radius and time-to-recover under a live
// disk fault (docs/ROBUSTNESS.md).
//
// 16 client threads issue blocking durable insertions over 8 documents on
// 4 shards (explicit placement, 2 documents each). First the corpus sits
// idle for 2 s, then three measured phases run:
//
//   idle       no load and no fault: process CPU per second of the
//              healthy stored corpus, whose threads all wait for work;
//   baseline   all shards healthy;
//   fault      `wal.shard-0.sync.error=enospc` is armed, the shard's
//              writer poisons, the supervisor trips its breaker, and
//              writes routed to it fast-fail while the other 3 shards keep
//              committing;
//   recovery   the fault is cleared and the stopwatch runs until the
//              supervisor reopens and re-admits the shard.
//
// Reported: healthy-shard throughput retention (fault vs baseline, on the
// three shards that never fault), breaker fast-fail rate on the sick
// shard, and recovery latency. As in bench_sharded, every WAL fsync is
// given ~2ms of injected latency so the numbers reflect a disk-bound
// deployment on any hardware.
//
// FAILS (non-zero exit) when healthy-shard retention drops below 50% —
// the regression guard for blast-radius containment: supervision must not
// let one sick shard drag down the survivors' group-commit streams — or
// when the idle corpus burns more than 0.5 ms of CPU per second (a thread
// woke on a clock rather than for work).
//
// Knobs: CDBS_BENCH_MS (per-phase duration, default 400 ms; a phase runs
// on until it has 200 healthy commits, for at most 20 s),
// CDBS_SHARD_FSYNC_DELAY_MS (default 2), CDBS_SUPERVISOR_MIN_RETENTION_PCT
// (default 50; "0" disables the guard). Set CDBS_BENCH_JSON to persist the
// metric registry.

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "obs/metrics.h"
#include "shard/sharded_db.h"
#include "shard/supervisor.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"
#include "xml/shakespeare.h"

namespace {

using cdbs::Result;
using cdbs::engine::NodeId;
using cdbs::engine::WriteOp;
using cdbs::shard::RouterKind;
using cdbs::shard::ShardedDb;
using cdbs::shard::ShardedDbOptions;
using cdbs::shard::ShardHealth;

constexpr size_t kShards = 4;
constexpr size_t kDocs = 8;
constexpr int kClients = 16;
constexpr uint32_t kSickShard = 0;

struct PhaseCounts {
  uint64_t healthy_ok = 0;  // commits on docs of the 3 never-faulted shards
  uint64_t sick_ok = 0;     // commits on the faulted shard's docs
  uint64_t sick_fail = 0;   // typed failures on the faulted shard's docs
  double seconds = 0;

  double healthy_ips() const { return healthy_ok / seconds; }
};

// A phase runs at least this many healthy commits, so the retention ratio
// rests on enough of them in a slow (sanitizer) build too, but stops at
// the wall cap.
constexpr uint64_t kMinHealthyCommits = 200;
constexpr uint64_t kPhaseCapMs = 20000;

// The idle phase: its length and the most process CPU it may burn.
constexpr uint64_t kIdleMs = 2000;
constexpr double kMaxIdleCpuMsPerSec = 0.5;

// Runs kClients blocking writers round-robin over every document for
// `duration_ms`, extended until kMinHealthyCommits healthy commits or
// kPhaseCapMs, attributing results to the faulted vs healthy shards.
PhaseCounts RunLoad(ShardedDb& db, const std::vector<NodeId>& anchors,
                    uint64_t duration_ms) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> healthy_ok{0};
  std::atomic<uint64_t> sick_ok{0};
  std::atomic<uint64_t> sick_fail{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t doc = (c + i++) % kDocs;
        const bool sick = db.ShardOfDoc(doc) == kSickShard;
        const bool ok = db.Submit(doc, WriteOp::InsertAfter(anchors[doc], "w"))
                            .get()
                            .ok();
        if (ok) {
          (sick ? sick_ok : healthy_ok).fetch_add(1);
        } else if (sick) {
          sick_fail.fetch_add(1);
        }
      }
    });
  }
  cdbs::util::Stopwatch timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  while (healthy_ok.load() < kMinHealthyCommits &&
         timer.ElapsedMillis() < kPhaseCapMs) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();

  PhaseCounts out;
  out.seconds = timer.ElapsedSeconds();
  out.healthy_ok = healthy_ok.load();
  out.sick_ok = sick_ok.load();
  out.sick_fail = sick_fail.load();
  return out;
}

}  // namespace

int main() {
  cdbs::bench::ConfigureTracerFromEnv();
  const uint64_t duration_ms = cdbs::bench::EnvKnob("CDBS_BENCH_MS", 400);
  const uint64_t fsync_delay_ms =
      cdbs::bench::EnvKnob("CDBS_SHARD_FSYNC_DELAY_MS", 2);
  const char* raw_pct = std::getenv("CDBS_SUPERVISOR_MIN_RETENTION_PCT");
  const uint64_t min_retention_pct =
      (raw_pct != nullptr && std::string(raw_pct) == "0")
          ? 0
          : cdbs::bench::EnvKnob("CDBS_SUPERVISOR_MIN_RETENTION_PCT", 50);

  cdbs::bench::Heading(
      "Shard supervision: blast radius and recovery (docs/ROBUSTNESS.md)");
  std::printf(
      "  %d blocking clients, %zu documents on %zu shards, shard %u gets a "
      "persistent ENOSPC; fsync delay %" PRIu64 " ms\n",
      kClients, kDocs, kShards, kSickShard, fsync_delay_ms);

  const std::string dir =
      "/tmp/bench_supervisor_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::vector<cdbs::xml::Document> docs;
  for (size_t d = 0; d < kDocs; ++d) {
    docs.push_back(cdbs::xml::GeneratePlay(/*seed=*/70 + d,
                                           /*total_nodes=*/300));
  }
  ShardedDbOptions options;
  options.shard_count = kShards;
  options.router = RouterKind::kExplicit;
  for (size_t d = 0; d < kDocs; ++d) {
    options.placement.push_back(static_cast<uint32_t>(d % kShards));
  }
  options.storage_dir = dir;
  options.read_workers = 2;
  options.shard.group_commit_limit = 4;
  options.shard.poison_after_persist_failures = 2;
  options.supervisor.recovery_backoff_ms = 10;
  options.supervisor.max_recovery_backoff_ms = 100;
  auto opened = ShardedDb::Open(std::move(docs), options);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  ShardedDb& db = **opened;
  std::vector<NodeId> anchors(kDocs);
  for (size_t d = 0; d < kDocs; ++d) {
    anchors[d] = db.QueryDoc(d, "/play/act/scene").value().front();
  }

  const double idle_cpu0 = cdbs::bench::ProcessCpuMicros();
  cdbs::util::Stopwatch idle_timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(kIdleMs));
  const double idle_cpu_ms_per_s =
      (cdbs::bench::ProcessCpuMicros() - idle_cpu0) / 1e3 /
      idle_timer.ElapsedSeconds();
  std::printf("  idle: %.3f ms of process CPU per second over %.1f s "
              "(ceiling %.1f)\n",
              idle_cpu_ms_per_s, idle_timer.ElapsedSeconds(),
              kMaxIdleCpuMsPerSec);

  if (!cdbs::util::Failpoints::Activate(
           "wal.sync.crash",
           "delay=" + std::to_string(fsync_delay_ms) + ":prob=1")
           .ok()) {
    std::fprintf(stderr, "failed to arm the fsync delay failpoint\n");
    return 1;
  }

  std::printf("  %-10s %14s %14s %14s %14s\n", "phase", "healthy ins/s",
              "sick ins/s", "sick fails/s", "healthy ins");
  const PhaseCounts baseline = RunLoad(db, anchors, duration_ms);
  std::printf("  %-10s %14.0f %14.0f %14.0f %14" PRIu64 "\n", "baseline",
              baseline.healthy_ips(), baseline.sick_ok / baseline.seconds,
              baseline.sick_fail / baseline.seconds, baseline.healthy_ok);

  if (!cdbs::util::Failpoints::Activate("wal.shard-0.sync.error",
                                        "enospc")
           .ok()) {
    std::fprintf(stderr, "failed to arm the ENOSPC failpoint\n");
    return 1;
  }
  const PhaseCounts fault = RunLoad(db, anchors, duration_ms);
  std::printf("  %-10s %14.0f %14.0f %14.0f %14" PRIu64 "\n", "fault",
              fault.healthy_ips(), fault.sick_ok / fault.seconds,
              fault.sick_fail / fault.seconds, fault.healthy_ok);

  cdbs::util::Failpoints::Deactivate("wal.shard-0.sync.error");
  cdbs::util::Stopwatch recovery_timer;
  const bool recovered = db.supervisor()->WaitForHealth(
      kSickShard, ShardHealth::kHealthy, /*timeout_ms=*/30000);
  const double recovery_ms = recovery_timer.ElapsedSeconds() * 1000.0;
  cdbs::util::Failpoints::DeactivateAll();
  if (!recovered) {
    std::fprintf(stderr, "FAIL: shard %u never recovered\n", kSickShard);
    return 1;
  }
  std::printf("  -> shard %u re-admitted %.0f ms after the fault cleared "
              "(%" PRIu64 " supervisor recoveries)\n",
              kSickShard, recovery_ms, db.supervisor()->recoveries());

  const double retention = baseline.healthy_ips() > 0
                               ? fault.healthy_ips() / baseline.healthy_ips()
                               : 0.0;
  std::printf("  -> healthy shards retained %.0f%% of baseline throughput "
              "through the fault\n",
              retention * 100);
  cdbs::obs::MetricRegistry::Default()
      .GetGauge("bench.supervisor.healthy_retention_pct",
                "Healthy-shard insert throughput under a one-shard fault, "
                "as a percentage of the all-healthy baseline")
      ->Set(retention * 100);
  cdbs::obs::MetricRegistry::Default()
      .GetGauge("bench.supervisor.recovery_ms",
                "Milliseconds from fault clearing to the shard re-admitted")
      ->Set(recovery_ms);
  cdbs::obs::MetricRegistry::Default()
      .GetGauge("bench.supervisor.idle_cpu_ms_per_s",
                "Process CPU milliseconds per second of the healthy, idle "
                "stored corpus")
      ->Set(idle_cpu_ms_per_s);
  cdbs::bench::DumpMetrics("supervisor");

  db.Shutdown();
  std::filesystem::remove_all(dir);

  if (idle_cpu_ms_per_s > kMaxIdleCpuMsPerSec) {
    std::fprintf(stderr,
                 "FAIL: the idle corpus burned %.3f ms of CPU per second "
                 "(ceiling %.1f) — a thread is waking without work\n",
                 idle_cpu_ms_per_s, kMaxIdleCpuMsPerSec);
    return 1;
  }
  if (min_retention_pct > 0 &&
      retention * 100 < static_cast<double>(min_retention_pct)) {
    std::fprintf(stderr,
                 "FAIL: healthy shards retained only %.0f%% of baseline "
                 "(floor %" PRIu64 "%%) — the sick shard's fault is "
                 "bleeding into the survivors\n",
                 retention * 100, min_retention_pct);
    return 1;
  }
  return 0;
}
